// Table 2 reproduction: communication cost of PBB vs NMAP on random core
// graphs with 25..65 cores (LEDA-style generator), same mesh and ample
// bandwidth.
//
// Paper: NMAP's advantage grows with the core count (ratio 1.54 -> ~1.8).
// Mechanism: PBB's queue cap discards ever larger parts of the search tree
// as the space explodes, while NMAP's O(|U|^2) swap refinement still
// explores a meaningful neighbourhood.

#include <benchmark/benchmark.h>

#include <iostream>

#include "baselines/pbb.hpp"
#include "bench_common.hpp"
#include "graph/random_graph.hpp"
#include "nmap/single_path.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

graph::CoreGraph make_graph(std::size_t cores, std::uint64_t seed) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = cores;
    cfg.seed = seed;
    cfg.average_out_degree = 2.0;
    return generate_random_core_graph(cfg);
}

baselines::PbbOptions pbb_options() {
    // "We monitored the queue length so that the PBB algorithm ran for few
    // minutes" — a fixed queue cap + expansion budget plays that role here.
    baselines::PbbOptions opt;
    opt.queue_capacity = 4096;
    opt.max_expansions = 60000;
    return opt;
}

void print_reproduction() {
    util::Table table("Table 2 — Communication cost ratio, PBB vs NMAP (random graphs)");
    table.set_header({"no", "PBB", "NMAP", "rat."});
    std::vector<std::vector<std::string>> csv;
    for (const std::size_t cores : {25u, 35u, 45u, 55u, 65u}) {
        const auto g = make_graph(cores, cores); // seed = size: deterministic
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(cores, bench::kAmpleCapacity));
        const auto pbb = baselines::pbb_map(g, ctx, pbb_options());
        const auto nm = nmap::map_with_single_path(g, ctx);
        const double ratio = pbb.comm_cost / nm.comm_cost;
        table.add_row({util::Table::num(static_cast<long long>(cores)),
                       util::Table::num(pbb.comm_cost, 0), util::Table::num(nm.comm_cost, 0),
                       util::Table::num(ratio, 2)});
        csv.push_back({util::Table::num(static_cast<long long>(cores)),
                       util::Table::num(pbb.comm_cost, 1), util::Table::num(nm.comm_cost, 1),
                       util::Table::num(ratio, 3)});
    }
    table.print(std::cout);
    std::cout << "(paper: ratios 1.54 / 1.61 / 1.85 / 1.69 / 1.76 for 25..65 cores)\n";
    bench::try_write_csv("table2_scaling.csv", {"cores", "pbb", "nmap", "ratio"}, csv);
}

void BM_NmapScaling(benchmark::State& state) {
    const auto cores = static_cast<std::size_t>(state.range(0));
    const auto g = make_graph(cores, cores);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(cores, bench::kAmpleCapacity));
    for (auto _ : state)
        benchmark::DoNotOptimize(nmap::map_with_single_path(g, ctx).comm_cost);
    state.SetComplexityN(static_cast<benchmark::IterationCount>(cores));
}
BENCHMARK(BM_NmapScaling)->Arg(25)->Arg(35)->Arg(45)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_PbbScaling(benchmark::State& state) {
    const auto cores = static_cast<std::size_t>(state.range(0));
    const auto g = make_graph(cores, cores);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(cores, bench::kAmpleCapacity));
    for (auto _ : state)
        benchmark::DoNotOptimize(baselines::pbb_map(g, ctx, pbb_options()).comm_cost);
}
BENCHMARK(BM_PbbScaling)->Arg(25)->Arg(45)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
