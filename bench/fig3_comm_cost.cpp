// Figure 3 reproduction: minimum communication cost (hops * MB/s) of the
// six video applications under PMAP, GMAP, PBB and NMAP, with the same
// (ample) bandwidth constraints for all algorithms.
//
// Expected shape (paper): NMAP ~= PBB <= GMAP < PMAP on every application.

#include <benchmark/benchmark.h>

#include <iostream>

#include "apps/registry.hpp"
#include "baselines/gmap.hpp"
#include "baselines/pbb.hpp"
#include "baselines/pmap.hpp"
#include "bench_common.hpp"
#include "nmap/single_path.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

void print_reproduction() {
    util::Table table("Figure 3 — Communication cost (hops*MB/s), six video apps");
    table.set_header({"app", "PMAP", "GMAP", "PBB", "NMAP"});
    std::vector<std::vector<std::string>> csv;
    for (const auto& row : bench::run_fig3_costs()) {
        table.add_row({row.app, util::Table::num(row.pmap, 0), util::Table::num(row.gmap, 0),
                       util::Table::num(row.pbb, 0), util::Table::num(row.nmap, 0)});
        csv.push_back({row.app, util::Table::num(row.pmap, 1), util::Table::num(row.gmap, 1),
                       util::Table::num(row.pbb, 1), util::Table::num(row.nmap, 1)});
    }
    table.print(std::cout);
    bench::try_write_csv("fig3_comm_cost.csv", {"app", "pmap", "gmap", "pbb", "nmap"}, csv);
}

void BM_Pmap(benchmark::State& state, const char* app) {
    const auto g = apps::make_application(app);
    const noc::EvalContext ctx(bench::ample_mesh_for(g));
    for (auto _ : state) benchmark::DoNotOptimize(baselines::pmap_map(g, ctx).comm_cost);
}

void BM_Gmap(benchmark::State& state, const char* app) {
    const auto g = apps::make_application(app);
    const noc::EvalContext ctx(bench::ample_mesh_for(g));
    for (auto _ : state) benchmark::DoNotOptimize(baselines::gmap_map(g, ctx).comm_cost);
}

void BM_Pbb(benchmark::State& state, const char* app) {
    const auto g = apps::make_application(app);
    const noc::EvalContext ctx(bench::ample_mesh_for(g));
    baselines::PbbOptions opt;
    for (auto _ : state)
        benchmark::DoNotOptimize(baselines::pbb_map(g, ctx, opt).comm_cost);
}

void BM_NmapSinglePath(benchmark::State& state, const char* app) {
    const auto g = apps::make_application(app);
    const noc::EvalContext ctx(bench::ample_mesh_for(g));
    for (auto _ : state)
        benchmark::DoNotOptimize(nmap::map_with_single_path(g, ctx).comm_cost);
}

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::RegisterBenchmark("fig3/pmap/vopd", BM_Pmap, "vopd")
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig3/gmap/vopd", BM_Gmap, "vopd")
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig3/pbb/vopd", BM_Pbb, "vopd")
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark("fig3/nmap/vopd", BM_NmapSinglePath, "vopd")
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("fig3/nmap/mpeg4", BM_NmapSinglePath, "mpeg4")
        ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
