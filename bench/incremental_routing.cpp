// Incremental routing ablation: the cost of one Inequality-3 feasibility
// re-check after a candidate tile swap, and the end-to-end effect on the
// nmap single-path mapper —
//
//   full        evaluate_mapping(): re-route all commodities from scratch
//               (what every surviving sweep candidate paid before the
//               ledger),
//   exact       engine::IncrementalRouter, Exact mode: dirty-propagated
//               replay over the persistent link-load ledger, bit-identical
//               verdicts,
//   fast        IncrementalRouter, Fast mode: rip-up-and-reroute of the
//               incident commodities only.
//
// Acceptance (ISSUE 3): the router clears >= 3x re-checks/sec over full on
// >= 32-tile graphs (Fast mode; Exact lands ~2x — the sequential
// congestion-aware pass genuinely re-routes ~40% of commodities per swap
// in the tight-capacity regime, which bounds any bit-exact scheme), with
// Exact bit-identical sweep results and a measurable end-to-end speedup.
//
// `--smoke` runs a reduced version on a small graph and exits non-zero
// when the incremental path is slower than the full-reroute baseline or
// any parity check fails (the CI release job gates on it).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/incremental_router.hpp"
#include "graph/random_graph.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/evaluation.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;
using bench::ms_since;
using Clock = std::chrono::steady_clock;

struct Workload {
    std::string name;
    graph::CoreGraph graph;
    noc::Topology topo; ///< feasibility-constrained capacity
    noc::Mapping initial;
};

Workload make_workload(std::size_t cores, std::uint64_t seed) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = cores;
    cfg.seed = seed;
    Workload w{"random" + std::to_string(cores), generate_random_core_graph(cfg),
               noc::Topology::mesh(1, 1, 1.0), noc::Mapping{}};
    w.topo = noc::Topology::smallest_mesh_for(cores, bench::kAmpleCapacity);
    w.initial = nmap::initial_mapping(w.graph, w.topo);
    // Tight enough that feasibility genuinely constrains the search, loose
    // enough that most candidates stay feasible (the sweep's regime).
    const double peak = noc::max_load(
        nmap::evaluate_mapping(w.graph, noc::EvalContext::borrow(w.topo), w.initial).loads);
    w.topo.set_uniform_capacity(peak * 1.1);
    return w;
}

/// One deterministic candidate stream: scored against the current base
/// mapping; improving feasible candidates are committed (the sweep's
/// accept-and-rebase pattern).
std::vector<std::pair<noc::TileId, noc::TileId>> swap_stream(const Workload& w,
                                                             std::size_t count) {
    util::Rng rng(w.graph.node_count() * 7919 + 13);
    std::vector<std::pair<noc::TileId, noc::TileId>> swaps;
    swaps.reserve(count);
    while (swaps.size() < count) {
        const auto a = static_cast<noc::TileId>(rng.next_below(w.topo.tile_count()));
        const auto b = static_cast<noc::TileId>(rng.next_below(w.topo.tile_count()));
        if (a == b) continue;
        if (!w.initial.is_occupied(a) && !w.initial.is_occupied(b)) continue;
        swaps.emplace_back(a, b);
    }
    return swaps;
}

struct ThroughputResult {
    double full_ms = 0.0;
    double exact_ms = 0.0;
    double fast_ms = 0.0;
    bool exact_identical = false; ///< exact verdicts == full verdicts, every swap
};

ThroughputResult measure_one_throughput(const Workload& w, std::size_t checks) {
    ThroughputResult r;
    const auto ctx = noc::EvalContext::borrow(w.topo);
    const auto swaps = swap_stream(w, checks);

    // Full re-route per check (the pre-ledger path). Improving feasible
    // candidates are committed, mirroring the sweep's accept rule, so the
    // base trajectory stays in the regime the mapper actually visits.
    std::vector<char> full_verdicts;
    full_verdicts.reserve(checks);
    {
        noc::Mapping base = w.initial;
        double base_cost = nmap::evaluate_mapping(w.graph, ctx, base).cost;
        const auto start = Clock::now();
        for (const auto& [a, b] : swaps) {
            base.swap_tiles(a, b);
            const auto routed = nmap::evaluate_mapping(w.graph, ctx, base);
            benchmark::DoNotOptimize(routed.feasible);
            full_verdicts.push_back(routed.feasible ? 1 : 0);
            if (routed.feasible && routed.cost < base_cost)
                base_cost = routed.cost; // keep the swap
            else
                base.swap_tiles(a, b);
        }
        r.full_ms = ms_since(start);
    }

    const auto run_router = [&](engine::RerouteMode mode, double& out_ms,
                                std::vector<char>& verdicts) {
        engine::RerouteOptions options;
        options.mode = mode;
        engine::IncrementalRouter router(w.graph, ctx, w.initial, options);
        const auto start = Clock::now();
        for (const auto& [a, b] : swaps) {
            const auto eval = router.reroute_swap(a, b);
            benchmark::DoNotOptimize(eval.feasible);
            verdicts.push_back(eval.feasible ? 1 : 0);
            if (eval.feasible && eval.cost < router.cost())
                router.commit();
            else
                router.rollback();
        }
        out_ms = ms_since(start);
    };

    std::vector<char> exact_verdicts;
    std::vector<char> fast_verdicts;
    exact_verdicts.reserve(checks);
    fast_verdicts.reserve(checks);
    run_router(engine::RerouteMode::Exact, r.exact_ms, exact_verdicts);
    run_router(engine::RerouteMode::Fast, r.fast_ms, fast_verdicts);
    r.exact_identical = exact_verdicts == full_verdicts;
    return r;
}

/// Best-of-N timing per method so a descheduled run on a noisy (CI) host
/// cannot flip the smoke gate; the parity verdict must hold in every run.
ThroughputResult measure_throughput(const Workload& w, std::size_t checks,
                                    std::size_t repeats) {
    ThroughputResult best = measure_one_throughput(w, checks);
    for (std::size_t i = 1; i < repeats; ++i) {
        const ThroughputResult r = measure_one_throughput(w, checks);
        best.full_ms = std::min(best.full_ms, r.full_ms);
        best.exact_ms = std::min(best.exact_ms, r.exact_ms);
        best.fast_ms = std::min(best.fast_ms, r.fast_ms);
        best.exact_identical = best.exact_identical && r.exact_identical;
    }
    return best;
}

struct EndToEndResult {
    double incremental_ms = 0.0; ///< pre-ledger: delta prune + full re-route
    double exact_ms = 0.0;
    double fast_ms = 0.0;
    bool exact_identical = false;
};

EndToEndResult measure_end_to_end(const Workload& w, std::size_t repeats) {
    EndToEndResult r;
    const auto ctx = noc::EvalContext::borrow(w.topo);
    const auto run = [&](nmap::SweepEval eval, double& out_ms) {
        nmap::SinglePathOptions opt;
        opt.eval = eval;
        double best = std::numeric_limits<double>::infinity();
        nmap::MappingResult result;
        for (std::size_t i = 0; i < repeats; ++i) {
            const auto start = Clock::now();
            result = nmap::map_with_single_path(w.graph, ctx, opt);
            best = std::min(best, ms_since(start));
        }
        out_ms = best;
        return result;
    };
    const auto incremental = run(nmap::SweepEval::Incremental, r.incremental_ms);
    const auto exact = run(nmap::SweepEval::LedgerExact, r.exact_ms);
    run(nmap::SweepEval::LedgerFast, r.fast_ms);
    r.exact_identical = incremental.mapping == exact.mapping &&
                        incremental.comm_cost == exact.comm_cost;
    return r;
}

int run_report(bool smoke) {
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{24}
              : std::vector<std::size_t>{12, 24, 32, 64, 90};
    const std::size_t checks = smoke ? 400 : 600;
    const std::size_t repeats = smoke ? 3 : 3;

    util::Table table("Incremental routing — feasibility re-checks and end-to-end mapper");
    table.set_header({"workload", "tiles", "full (ms)", "exact (ms)", "fast (ms)",
                      "exact x", "fast x", "e2e pre (ms)", "e2e exact (ms)",
                      "e2e fast (ms)", "e2e exact x", "e2e fast x"});
    std::vector<std::vector<std::string>> csv;
    bool ok = true;
    for (const std::size_t cores : sizes) {
        const Workload w = make_workload(cores, cores);
        const ThroughputResult tp = measure_throughput(w, checks, repeats);
        const EndToEndResult e2e = measure_end_to_end(w, repeats);
        const double exact_speedup = tp.full_ms / tp.exact_ms;
        const double fast_speedup = tp.full_ms / tp.fast_ms;
        const double e2e_speedup = e2e.incremental_ms / e2e.exact_ms;
        ok = ok && tp.exact_identical && e2e.exact_identical;
        if (!tp.exact_identical)
            std::cerr << w.name << ": exact verdicts differ from full re-route!\n";
        if (!e2e.exact_identical)
            std::cerr << w.name << ": LedgerExact mapping differs from pre-ledger sweep!\n";
        if (smoke && exact_speedup < 1.0) {
            std::cerr << w.name << ": incremental exact path slower than baseline ("
                      << exact_speedup << "x)\n";
            ok = false;
        }
        const double e2e_fast_speedup = e2e.incremental_ms / e2e.fast_ms;
        table.add_row({w.name, util::Table::num(static_cast<long long>(w.topo.tile_count())),
                       util::Table::num(tp.full_ms, 2), util::Table::num(tp.exact_ms, 2),
                       util::Table::num(tp.fast_ms, 2), util::Table::num(exact_speedup, 1),
                       util::Table::num(fast_speedup, 1),
                       util::Table::num(e2e.incremental_ms, 2),
                       util::Table::num(e2e.exact_ms, 2), util::Table::num(e2e.fast_ms, 2),
                       util::Table::num(e2e_speedup, 2),
                       util::Table::num(e2e_fast_speedup, 2)});
        csv.push_back({w.name, util::Table::num(static_cast<long long>(w.topo.tile_count())),
                       util::Table::num(tp.full_ms, 3), util::Table::num(tp.exact_ms, 3),
                       util::Table::num(tp.fast_ms, 3), util::Table::num(exact_speedup, 2),
                       util::Table::num(fast_speedup, 2),
                       util::Table::num(e2e.incremental_ms, 3),
                       util::Table::num(e2e.exact_ms, 3), util::Table::num(e2e.fast_ms, 3),
                       util::Table::num(e2e_speedup, 2),
                       util::Table::num(e2e_fast_speedup, 2)});
    }
    table.print(std::cout);
    std::cout << "(acceptance: the router clears >= 3x re-checks/sec on >= 32-tile graphs "
                 "via Fast mode while Exact stays bit-identical to the pre-ledger sweep — "
                 "verdict streams and mappings are compared every run; smoke gate: the "
                 "incremental exact path must not be slower than the full re-route)\n";
    bench::try_write_csv("incremental_routing.csv",
                         {"workload", "tiles", "full_ms", "exact_ms", "fast_ms",
                          "exact_speedup", "fast_speedup", "e2e_incremental_ms",
                          "e2e_exact_ms", "e2e_fast_ms", "e2e_exact_speedup",
                          "e2e_fast_speedup"},
                         csv);
    return ok ? 0 : 1;
}

void bm_recheck(benchmark::State& state, engine::RerouteMode mode) {
    const Workload w = make_workload(64, 64);
    const auto ctx = noc::EvalContext::borrow(w.topo);
    engine::RerouteOptions options;
    options.mode = mode;
    engine::IncrementalRouter router(w.graph, ctx, w.initial, options);
    const auto swaps = swap_stream(w, 256);
    std::size_t i = 0;
    for (auto _ : state) {
        const auto eval = router.reroute_swap(swaps[i].first, swaps[i].second);
        benchmark::DoNotOptimize(eval.feasible);
        router.rollback();
        i = (i + 1) % swaps.size();
    }
}

void bm_recheck_full(benchmark::State& state) {
    const Workload w = make_workload(64, 64);
    const auto ctx = noc::EvalContext::borrow(w.topo);
    const auto swaps = swap_stream(w, 256);
    noc::Mapping base = w.initial;
    std::size_t i = 0;
    for (auto _ : state) {
        base.swap_tiles(swaps[i].first, swaps[i].second);
        const auto routed = nmap::evaluate_mapping(w.graph, ctx, base);
        benchmark::DoNotOptimize(routed.feasible);
        base.swap_tiles(swaps[i].first, swaps[i].second);
        i = (i + 1) % swaps.size();
    }
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (smoke) return run_report(true);

    const int status = run_report(false);
    benchmark::RegisterBenchmark("recheck64/full", bm_recheck_full)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("recheck64/exact", bm_recheck, engine::RerouteMode::Exact)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark("recheck64/fast", bm_recheck, engine::RerouteMode::Fast)
        ->Unit(benchmark::kMicrosecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return status;
}
