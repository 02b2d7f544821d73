// Ablation: single-link-failure resilience — an engineering consequence of
// split-traffic routing the paper does not evaluate but that follows
// directly from its machinery: a static single-path design dies with any
// link on a used path, while the MCF formulation simply re-solves around
// the failed link (modelled as a near-zero-capacity link).
//
// For each application and every single link failure we report whether
// (a) the static single-path routing still fits (the failed link carried no
// traffic), and (b) split routing can re-balance within the original
// single-path bandwidth budget.

#include <benchmark/benchmark.h>

#include <iostream>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

struct Resilience {
    std::size_t links = 0;
    std::size_t single_path_survives = 0;
    std::size_t split_survives = 0;
};

Resilience evaluate(const graph::CoreGraph& g) {
    const auto base = bench::ample_mesh_for(g);
    const auto ctx = noc::EvalContext::borrow(base);
    const auto result = nmap::map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, result.mapping);
    const auto routed = nmap::route_single_min_paths(ctx, d);
    // Budget: the single-path design's provisioned uniform bandwidth plus
    // the usual engineering margin (links are sized with headroom).
    const double budget = routed.max_load * 1.10;
    const double demand = noc::total_value(d);

    Resilience r;
    r.links = base.link_count();
    for (std::size_t l = 0; l < base.link_count(); ++l) {
        // (a) Static single-path routing survives iff the link was unused.
        if (routed.loads[l] <= 1e-9) ++r.single_path_survives;

        // (b) Split routing: re-solve MCF with this link effectively dead
        // and every other link capped at the budget. The Frank–Wolfe probe
        // is approximate, so a residual violation below 0.5% of the demand
        // counts as survivable (the exact LP would clear it).
        auto degraded = base;
        degraded.set_uniform_capacity(budget);
        degraded.set_link_capacity(static_cast<noc::LinkId>(l), 1e-3);
        lp::McfOptions opt;
        opt.objective = lp::McfObjective::MinSlack;
        opt.use_exact_lp = false;
        opt.approx_iterations = 96;
        const auto mcf = lp::solve_mcf(degraded, d, opt);
        if (mcf.objective <= 0.005 * demand) ++r.split_survives;
    }
    return r;
}

void print_reproduction() {
    util::Table table(
        "Ablation — single-link-failure survival (same mapping, same BW budget)");
    table.set_header({"app", "links", "single-path OK", "split OK", "split advantage"});
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const auto r = evaluate(g);
        const double single_pct =
            100.0 * static_cast<double>(r.single_path_survives) / static_cast<double>(r.links);
        const double split_pct =
            100.0 * static_cast<double>(r.split_survives) / static_cast<double>(r.links);
        table.add_row({info.name, util::Table::num(static_cast<long long>(r.links)),
                       util::Table::num(single_pct, 0) + "%",
                       util::Table::num(split_pct, 0) + "%",
                       util::Table::num(split_pct - single_pct, 0) + " pts"});
    }
    table.print(std::cout);
    std::cout << "(split routing reroutes around most single failures inside the same\n"
                 " bandwidth budget; static single-path designs only survive failures\n"
                 " of unused links)\n";
}

void BM_ResilienceSweep(benchmark::State& state) {
    const auto g = apps::make_application("pip");
    for (auto _ : state) benchmark::DoNotOptimize(evaluate(g).split_survives);
}
BENCHMARK(BM_ResilienceSweep)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
