// Portfolio ablation: wall time of an N-scenario grid run cold (every
// scenario rebuilds its Topology and all topology-derived evaluation state,
// the pre-portfolio status quo) vs on a shared portfolio::TopologyCache
// (each fabric's Topology + EvalContext built once; mappers read the
// context's precomputed distance/quadrant/energy tables).
//
// The grid is the paper's six video applications × four fabric variants —
// the "map a portfolio of applications, rank candidate fabrics" workload
// the portfolio layer exists for. Cold and cached runs produce identical
// mappings (the context changes where distances are read from, not their
// values); the ratio is pure amortization + table-lookup speedup.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "engine/mapper.hpp"
#include "portfolio/runner.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

std::vector<portfolio::Scenario> make_grid() {
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    for (const auto& info : apps::video_applications())
        apps.emplace_back(info.name,
                          std::make_shared<const graph::CoreGraph>(info.factory()));
    return portfolio::make_grid(
        apps, portfolio::parse_topology_list("mesh,torus,ring,hypercube"), "nmap");
}

/// The pre-portfolio path: every scenario builds its own Topology and the
/// mapper recomputes all topology-derived state internally.
double run_cold(const std::vector<portfolio::Scenario>& grid) {
    double total_cost = 0.0;
    for (const portfolio::Scenario& s : grid) {
        const auto topo = s.topology.build(s.graph->node_count());
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto result = engine::map_by_name(s.mapper, *s.graph, ctx);
        total_cost += result.feasible ? result.comm_cost : 0.0;
    }
    return total_cost;
}

/// The portfolio path: one runner, shared cache, context-threaded mappers.
double run_cached(const std::vector<portfolio::Scenario>& grid,
                  portfolio::PortfolioRunner& runner) {
    double total_cost = 0.0;
    for (const auto& r : runner.run(grid))
        total_cost += (r.ok && r.result.feasible) ? r.result.comm_cost : 0.0;
    return total_cost;
}

void print_reproduction() {
    const auto grid = make_grid();
    constexpr std::size_t kRepeats = 5;

    double cold_ms = std::numeric_limits<double>::infinity();
    double cached_ms = std::numeric_limits<double>::infinity();
    double cold_cost = 0.0, cached_cost = 0.0;
    for (std::size_t r = 0; r < kRepeats; ++r) {
        auto start = std::chrono::steady_clock::now();
        cold_cost = run_cold(grid);
        cold_ms = std::min(cold_ms, std::chrono::duration<double, std::milli>(
                                        std::chrono::steady_clock::now() - start)
                                        .count());

        portfolio::PortfolioRunner runner; // fresh cache per repeat
        start = std::chrono::steady_clock::now();
        cached_cost = run_cached(grid, runner);
        cached_ms = std::min(cached_ms, std::chrono::duration<double, std::milli>(
                                            std::chrono::steady_clock::now() - start)
                                            .count());
    }

    util::Table table("Portfolio amortization — " + std::to_string(grid.size()) +
                      " scenarios (6 apps x 4 fabrics), serial");
    table.set_header({"mode", "wall (ms)", "sum feasible cost", "speedup"});
    table.add_row({"cold (rebuild per scenario)", util::Table::num(cold_ms, 2),
                   util::Table::num(cold_cost, 0), util::Table::num(1.0, 2)});
    table.add_row({"shared TopologyCache", util::Table::num(cached_ms, 2),
                   util::Table::num(cached_cost, 0),
                   util::Table::num(cold_ms / cached_ms, 2)});
    table.print(std::cout);
    std::cout << "(acceptance: identical total cost, cached < cold wall-clock)\n";
    bench::try_write_csv("portfolio_amortization.csv",
                         {"mode", "wall_ms", "sum_cost", "speedup"},
                         {{"cold", util::Table::num(cold_ms, 3),
                           util::Table::num(cold_cost, 0), "1.0"},
                          {"cached", util::Table::num(cached_ms, 3),
                           util::Table::num(cached_cost, 0),
                           util::Table::num(cold_ms / cached_ms, 3)}});
}

void bm_cold(benchmark::State& state) {
    const auto grid = make_grid();
    for (auto _ : state) benchmark::DoNotOptimize(run_cold(grid));
}

void bm_cached(benchmark::State& state) {
    const auto grid = make_grid();
    for (auto _ : state) {
        portfolio::PortfolioRunner runner;
        benchmark::DoNotOptimize(run_cached(grid, runner));
    }
}

void bm_cached_warm(benchmark::State& state) {
    // Cache persists across iterations — the steady state of a portfolio
    // service answering many grids over the same fabric candidates.
    const auto grid = make_grid();
    portfolio::PortfolioRunner runner;
    for (auto _ : state) benchmark::DoNotOptimize(run_cached(grid, runner));
}

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::RegisterBenchmark("portfolio24/cold", bm_cold)->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("portfolio24/cached", bm_cached)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("portfolio24/cached_warm", bm_cached_warm)
        ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
