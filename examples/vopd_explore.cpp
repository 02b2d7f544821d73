// Design-space exploration of the Video Object Plane Decoder (the paper's
// running example): compare all four mapping algorithms and all routing
// regimes on a 4x4 mesh.
//
//   $ ./vopd_explore

#include <iostream>

#include "apps/vopd.hpp"
#include "baselines/gmap.hpp"
#include "baselines/pbb.hpp"
#include "baselines/pmap.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"
#include "util/table.hpp"

int main() {
    using namespace nocmap;

    const auto vopd = apps::make_vopd();
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);

    struct Entry {
        std::string name;
        nmap::MappingResult result;
    };
    std::vector<Entry> entries;
    entries.push_back({"PMAP", baselines::pmap_map(vopd, ctx)});
    entries.push_back({"GMAP", baselines::gmap_map(vopd, ctx)});
    baselines::PbbOptions pbb_opt;
    entries.push_back({"PBB", baselines::pbb_map(vopd, ctx, pbb_opt)});
    entries.push_back({"NMAP", nmap::map_with_single_path(vopd, ctx)});

    util::Table table("VOPD on a 4x4 mesh — cost and bandwidth by algorithm");
    table.set_header({"algorithm", "cost (hops*MB/s)", "minp BW", "split BW (TM)",
                      "split BW (TA)"});
    for (const auto& e : entries) {
        const auto d = noc::build_commodities(vopd, e.result.mapping);
        const auto routed = nmap::route_single_min_paths(ctx, d);
        lp::McfOptions tm;
        tm.objective = lp::McfObjective::MinMaxLoad;
        tm.quadrant_restricted = true;
        lp::McfOptions ta = tm;
        ta.quadrant_restricted = false;
        table.add_row({e.name, util::Table::num(e.result.comm_cost, 0),
                       util::Table::num(routed.max_load, 0),
                       util::Table::num(lp::solve_mcf(topo, d, tm).objective, 0),
                       util::Table::num(lp::solve_mcf(topo, d, ta).objective, 0)});
    }
    table.print(std::cout);

    const auto& best = entries.back().result;
    std::cout << "\nNMAP placement:\n" << best.mapping.to_string(vopd, topo);
    return 0;
}
