// Scaling sweep on random core graphs (the Table 2 workload, configurable):
// compare NMAP against the PBB baseline while the core count grows.
//
//   $ ./random_sweep [max_cores] [seed]      (defaults 45, 1)

#include <cstdlib>
#include <iostream>

#include "baselines/pbb.hpp"
#include "graph/random_graph.hpp"
#include "nmap/single_path.hpp"
#include "noc/eval_context.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace nocmap;

    std::size_t max_cores = 45;
    std::uint64_t seed = 1;
    if (argc > 1) max_cores = static_cast<std::size_t>(std::atoll(argv[1]));
    if (argc > 2) seed = static_cast<std::uint64_t>(std::atoll(argv[2]));
    if (max_cores < 10 || max_cores > 120) {
        std::cerr << "usage: random_sweep [max_cores in 10..120] [seed]\n";
        return 1;
    }

    util::Table table("Random-graph scaling sweep (seed " + std::to_string(seed) + ")");
    table.set_header({"cores", "PBB cost", "NMAP cost", "ratio", "PBB evals", "NMAP evals"});
    for (std::size_t cores = 10; cores <= max_cores; cores += 10) {
        graph::RandomGraphConfig cfg;
        cfg.core_count = cores;
        cfg.seed = seed + cores;
        const auto g = generate_random_core_graph(cfg);
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(cores, 1e9));

        baselines::PbbOptions pbb_opt;
        pbb_opt.queue_capacity = 4096;
        pbb_opt.max_expansions = 30000;
        baselines::PbbStats stats;
        const auto pbb = baselines::pbb_map(g, ctx, pbb_opt, &stats);
        const auto nm = nmap::map_with_single_path(g, ctx);

        table.add_row({util::Table::num(static_cast<long long>(cores)),
                       util::Table::num(pbb.comm_cost, 0), util::Table::num(nm.comm_cost, 0),
                       util::Table::num(pbb.comm_cost / nm.comm_cost, 2),
                       util::Table::num(static_cast<long long>(stats.expansions)),
                       util::Table::num(static_cast<long long>(nm.evaluations))});
    }
    table.print(std::cout);
    return 0;
}
