// Figure 4 reproduction: minimum uniform link bandwidth (MB/s) needed per
// application for
//   DPMAP / DGMAP  — dimension-ordered (XY) routing on PMAP / GMAP mappings
//   PMAP / GMAP / NMAP — congestion-aware single minimum-path routing
//   NMAPTM — NMAP mapping, traffic split across minimum (quadrant) paths
//   NMAPTA — NMAP mapping, traffic split across all paths
//
// Expected shape (paper): D* >= single-min-path >= NMAPTM >= NMAPTA, with
// splitting cutting the requirement roughly in half on average.

#include <benchmark/benchmark.h>

#include <iostream>

#include "apps/registry.hpp"
#include "baselines/gmap.hpp"
#include "baselines/pmap.hpp"
#include "bench_common.hpp"
#include "nmap/single_path.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

void print_reproduction() {
    util::Table table("Figure 4 — Min uniform link bandwidth (MB/s)");
    table.set_header(
        {"app", "DPMAP", "DGMAP", "PMAP", "GMAP", "NMAP", "NMAPTM", "NMAPTA"});
    std::vector<std::vector<std::string>> csv;
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const auto topo = bench::ample_mesh_for(g);
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto pmap = baselines::pmap_map(g, ctx);
        const auto gmap = baselines::gmap_map(g, ctx);
        const auto nmap_result = nmap::map_with_single_path(g, ctx);

        const double dpmap = bench::dimension_ordered_bandwidth(g, topo, pmap.mapping);
        const double dgmap = bench::dimension_ordered_bandwidth(g, topo, gmap.mapping);
        const double pmap_bw = bench::min_path_bandwidth(g, topo, pmap.mapping);
        const double gmap_bw = bench::min_path_bandwidth(g, topo, gmap.mapping);
        const double nmap_bw = bench::min_path_bandwidth(g, topo, nmap_result.mapping);
        const double tm = bench::best_split_bandwidth(g, topo, nmap_result.mapping, true);
        const double ta = bench::best_split_bandwidth(g, topo, nmap_result.mapping, false);

        table.add_row({info.name, util::Table::num(dpmap, 0), util::Table::num(dgmap, 0),
                       util::Table::num(pmap_bw, 0), util::Table::num(gmap_bw, 0),
                       util::Table::num(nmap_bw, 0), util::Table::num(tm, 0),
                       util::Table::num(ta, 0)});
        csv.push_back({info.name, util::Table::num(dpmap, 1), util::Table::num(dgmap, 1),
                       util::Table::num(pmap_bw, 1), util::Table::num(gmap_bw, 1),
                       util::Table::num(nmap_bw, 1), util::Table::num(tm, 1),
                       util::Table::num(ta, 1)});
    }
    table.print(std::cout);
    bench::try_write_csv(
        "fig4_bandwidth.csv",
        {"app", "dpmap", "dgmap", "pmap", "gmap", "nmap", "nmaptm", "nmapta"}, csv);
}

void BM_SplitBandwidthExactLp(benchmark::State& state, const char* app, bool quadrant) {
    const auto g = apps::make_application(app);
    const auto topo = bench::ample_mesh_for(g);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = nmap::map_with_single_path(g, ctx);
    for (auto _ : state)
        benchmark::DoNotOptimize(bench::split_bandwidth(g, topo, result.mapping, quadrant));
}

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::RegisterBenchmark("fig4/minmax_lp/vopd/ta", BM_SplitBandwidthExactLp,
                                 "vopd", false)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark("fig4/minmax_lp/vopd/tm", BM_SplitBandwidthExactLp,
                                 "vopd", true)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
