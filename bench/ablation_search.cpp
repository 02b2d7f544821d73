// Ablation: how much each phase of NMAP contributes.
//
//   init        — initialize() alone (constructive placement)
//   init+swap1  — the paper's single pairwise-swap sweep
//   init+swap3  — iterated sweeps to a (near) fixpoint
//   torus       — same algorithm on a torus fabric (the paper's "approach
//                 can be extended to various NoC topologies" remark)

#include <benchmark/benchmark.h>

#include <iostream>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "nmap/initialize.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

void print_reproduction() {
    util::Table table("Ablation — NMAP search phases (Eq.7 cost, hops*MB/s)");
    table.set_header({"app", "init", "init+swap1", "init+swap3", "torus swap1"});
    std::vector<std::vector<std::string>> csv;
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const auto topo = bench::ample_mesh_for(g);
        const auto ctx = noc::EvalContext::borrow(topo);
        const double init_cost =
            bench::mapping_cost(g, topo, nmap::initial_mapping(g, topo));
        nmap::SinglePathOptions one;
        one.max_sweeps = 1;
        const double sweep1 = nmap::map_with_single_path(g, ctx, one).comm_cost;
        nmap::SinglePathOptions three;
        three.max_sweeps = 3;
        const double sweep3 = nmap::map_with_single_path(g, ctx, three).comm_cost;

        // Torus fabric of the same tile count (>= 3x3 required).
        double torus_cost = 0.0;
        {
            const std::int32_t w = std::max<std::int32_t>(3, topo.width());
            const std::int32_t h = std::max<std::int32_t>(3, topo.height());
            const noc::EvalContext torus_ctx(noc::Topology::torus(w, h, bench::kAmpleCapacity));
            torus_cost = nmap::map_with_single_path(g, torus_ctx, one).comm_cost;
        }

        table.add_row({info.name, util::Table::num(init_cost, 0),
                       util::Table::num(sweep1, 0), util::Table::num(sweep3, 0),
                       util::Table::num(torus_cost, 0)});
        csv.push_back({info.name, util::Table::num(init_cost, 1),
                       util::Table::num(sweep1, 1), util::Table::num(sweep3, 1),
                       util::Table::num(torus_cost, 1)});
    }
    table.print(std::cout);
    std::cout << "(torus wrap links shorten distances: expect torus <= mesh cost)\n";
    bench::try_write_csv("ablation_search.csv",
                         {"app", "init", "swap1", "swap3", "torus_swap1"}, csv);
}

void BM_InitializeOnly(benchmark::State& state, const char* app) {
    const auto g = apps::make_application(app);
    const auto topo = bench::ample_mesh_for(g);
    for (auto _ : state) benchmark::DoNotOptimize(nmap::initial_mapping(g, topo));
}

void BM_SwapSweep(benchmark::State& state, const char* app, int sweeps) {
    const auto g = apps::make_application(app);
    const noc::EvalContext ctx(bench::ample_mesh_for(g));
    nmap::SinglePathOptions opt;
    opt.max_sweeps = static_cast<std::size_t>(sweeps);
    for (auto _ : state)
        benchmark::DoNotOptimize(nmap::map_with_single_path(g, ctx, opt).comm_cost);
}

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::RegisterBenchmark("ablation/init/vopd", BM_InitializeOnly, "vopd");
    benchmark::RegisterBenchmark("ablation/swap1/vopd", BM_SwapSweep, "vopd", 1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("ablation/swap3/vopd", BM_SwapSweep, "vopd", 3)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
