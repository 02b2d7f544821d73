// Table 1 reproduction: per-application ratio of (a) the average
// communication cost of {PMAP, GMAP, PBB} to NMAP's cost ("cstr"), and
// (b) the average single-path bandwidth need of {PMAP, GMAP, PBB} to the
// bandwidth need of NMAP with split-traffic routing ("bwr").
//
// Paper: cstr avg 1.47 (32% cost reduction), bwr avg 2.13 (53% bandwidth
// savings).

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
    util::Table table("Table 1 — Cost and BW ratio vs NMAP (split routing)");
    table.set_header({"App", "cstr", "bwr"});
    std::vector<std::vector<std::string>> csv;
    double cstr_sum = 0.0, bwr_sum = 0.0;
    std::size_t n = 0;
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const auto topo = bench::ample_mesh_for(g);
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto pmap = baselines::pmap_map(g, ctx);
        const auto gmap = baselines::gmap_map(g, ctx);
        baselines::PbbOptions pbb_opt;
        const auto pbb = baselines::pbb_map(g, ctx, pbb_opt);
        const auto nm = nmap::map_with_single_path(g, ctx);

        const double cstr = (pmap.comm_cost + gmap.comm_cost + pbb.comm_cost) /
                            (3.0 * nm.comm_cost);
        const double others_bw = (bench::min_path_bandwidth(g, topo, pmap.mapping) +
                                  bench::min_path_bandwidth(g, topo, gmap.mapping) +
                                  bench::min_path_bandwidth(g, topo, pbb.mapping)) /
                                 3.0;
        const double nmap_split_bw = bench::best_split_bandwidth(g, topo, nm.mapping, false);
        const double bwr = others_bw / nmap_split_bw;

        cstr_sum += cstr;
        bwr_sum += bwr;
        ++n;
        table.add_row({info.name, util::Table::num(cstr, 2), util::Table::num(bwr, 2)});
        csv.push_back({info.name, util::Table::num(cstr, 3), util::Table::num(bwr, 3)});
    }
    table.add_row({"Avg", util::Table::num(cstr_sum / static_cast<double>(n), 2),
                   util::Table::num(bwr_sum / static_cast<double>(n), 2)});
    table.print(std::cout);
    std::cout << "(paper: avg cstr 1.47, avg bwr 2.13)\n";
    bench::try_write_csv("table1_ratios.csv", {"app", "cstr", "bwr"}, csv);
}

void BM_FullTable1Pipeline(benchmark::State& state) {
    const auto g = apps::make_application("pip");
    const auto topo = bench::ample_mesh_for(g);
    const auto ctx = noc::EvalContext::borrow(topo);
    for (auto _ : state) {
        const auto nm = nmap::map_with_single_path(g, ctx);
        benchmark::DoNotOptimize(bench::split_bandwidth(g, topo, nm.mapping, false));
    }
}
BENCHMARK(BM_FullTable1Pipeline)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
