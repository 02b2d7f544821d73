// Ablation: the MCF engines NMAP's split phase relies on.
//
// Part 1 (reproduction, DESIGN.md substitution #1): exact LP (column
// generation over paths) vs. Frank–Wolfe approximation — per application, the min-max split bandwidth
// from both engines and their gap. The evidence that running the
// approximation inside the swap loop (and polishing with the exact LP)
// preserves the paper's results.
//
// Part 2: MCF candidate chains. The split mappers solve the same MCF over
// and over with only the commodity tile endpoints moving. This bench drives
// both engines down an identical swap-candidate stream through an
// lp::McfSolver and reports candidate evaluations per second:
//
//   * exact engine, warm vs cold: warm seeds column generation with the
//     paths of the previous optima. Gate: warm never slower than cold, with
//     warm/cold agreeing on feasibility verdicts and objectives on every
//     candidate.
//   * approx engine (the default inner engine of the split mappers): one
//     mode, measured on >= 32-tile graphs. Gate: the solver's answers (it
//     carries a workspace from candidate to candidate) are bit-identical to
//     one-shot solves on every candidate. Its throughput is gated against
//     the committed baseline by scripts/bench_check.py.
//
// `--smoke` runs a reduced version and exits non-zero when the exact gate,
// either parity check, or the default-parameter byte-parity check (context
// overload vs topology overload, run twice) fails. The CI release job gates
// on it; the timing rows feed ablation_mcf.csv and the BENCH_mcf.json
// trajectory file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "graph/random_graph.hpp"
#include "lp/mcf.hpp"
#include "nmap/initialize.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"
#include "noc/commodity.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;
using bench::ms_since;
using Clock = std::chrono::steady_clock;

void print_reproduction() {
    util::Table table("Ablation — MCF engine: exact simplex vs Frank-Wolfe approximation");
    table.set_header({"app", "exact BW", "approx BW", "gap %", "exact flow", "approx flow"});
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const auto topo = bench::ample_mesh_for(g);
        const auto mapping =
            nmap::map_with_single_path(g, noc::EvalContext::borrow(topo)).mapping;
        const auto d = noc::build_commodities(g, mapping);

        lp::McfOptions exact;
        exact.objective = lp::McfObjective::MinMaxLoad;
        const double exact_bw = lp::solve_mcf(topo, d, exact).objective;
        lp::McfOptions approx = exact;
        approx.use_exact_lp = false;
        approx.approx_iterations = 96;
        const double approx_bw = lp::solve_mcf(topo, d, approx).objective;

        lp::McfOptions exact_flow;
        exact_flow.objective = lp::McfObjective::MinFlow;
        const double ef = lp::solve_mcf(topo, d, exact_flow).objective;
        lp::McfOptions approx_flow = exact_flow;
        approx_flow.use_exact_lp = false;
        const double af = lp::solve_mcf(topo, d, approx_flow).objective;

        const double gap = (approx_bw / exact_bw - 1.0) * 100.0;
        table.add_row({info.name, util::Table::num(exact_bw, 1),
                       util::Table::num(approx_bw, 1), util::Table::num(gap, 1),
                       util::Table::num(ef, 0), util::Table::num(af, 0)});
    }
    table.print(std::cout);
}

// ---------------------------------------------------------------- part 2 --

struct Workload {
    std::string name;
    graph::CoreGraph graph;
    noc::Topology topo;
    noc::Mapping initial;
};

Workload make_workload(std::size_t cores, std::uint64_t seed) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = cores;
    cfg.seed = seed;
    Workload w{"random" + std::to_string(cores), generate_random_core_graph(cfg),
               noc::Topology::mesh(1, 1, 1.0), noc::Mapping{}};
    // Ample capacity: every candidate is feasible, so the chains measure
    // pure solve throughput and the warm/cold verdict comparison is exact.
    w.topo = noc::Topology::smallest_mesh_for(cores, bench::kAmpleCapacity);
    w.initial = nmap::initial_mapping(w.graph, w.topo);
    return w;
}

/// The same deterministic swap-candidate stream for every engine variant.
std::vector<std::pair<noc::TileId, noc::TileId>> swap_stream(const Workload& w,
                                                             std::size_t count) {
    util::Rng rng(w.graph.node_count() * 104729 + 7);
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

lp::McfOptions chain_options(bool exact, bool warm) {
    lp::McfOptions opt;
    opt.objective = lp::McfObjective::MinFlow;
    opt.use_exact_lp = exact;
    opt.approx_iterations = 32; // the split mappers' inner-loop default
    opt.warm_start = warm;
    return opt;
}

/// Runs the candidate chain through one engine configuration, mirroring the
/// sweep's accept-and-rebase pattern (improving feasible candidates are
/// committed), and returns the wall time.
double run_chain(const Workload& w,
                 const std::vector<std::pair<noc::TileId, noc::TileId>>& swaps,
                 bool exact, bool warm) {
    const noc::EvalContext ctx = noc::EvalContext::borrow(w.topo);
    lp::McfSolver solver(ctx, chain_options(exact, warm));
    noc::Mapping base = w.initial;
    auto commodities = noc::build_commodities(w.graph, base);

    const auto start = Clock::now();
    double base_obj = solver.solve(commodities).objective;
    for (const auto& [a, b] : swaps) {
        base.swap_tiles(a, b);
        noc::remap_commodities(commodities, base);
        const lp::McfResult r = solver.solve(commodities);
        benchmark::DoNotOptimize(r.objective);
        if (r.feasible && r.objective < base_obj)
            base_obj = r.objective; // keep the swap
        else
            base.swap_tiles(a, b);
    }
    return ms_since(start);
}

/// Best-of-N per variant so a descheduled run on a noisy (CI) host cannot
/// flip the smoke gate.
double best_chain_ms(const Workload& w,
                     const std::vector<std::pair<noc::TileId, noc::TileId>>& swaps,
                     bool exact, bool warm, std::size_t repeats) {
    double best = run_chain(w, swaps, exact, warm);
    for (std::size_t i = 1; i < repeats; ++i)
        best = std::min(best, run_chain(w, swaps, exact, warm));
    return best;
}

/// Candidate-by-candidate parity sweep against the one-shot cold solve,
/// the base trajectory following the cold decisions so both score identical
/// instances. Exact engine: the warm solver must agree on feasibility and
/// (within 1e-6 relative) on the objective. Approx engine: the solver must
/// reproduce the one-shot flows, objective and verdict bit for bit.
bool chain_parity(const Workload& w,
                  const std::vector<std::pair<noc::TileId, noc::TileId>>& swaps,
                  bool exact) {
    const noc::EvalContext ctx = noc::EvalContext::borrow(w.topo);
    lp::McfSolver solver(ctx, chain_options(exact, exact));
    const lp::McfOptions cold_opt = chain_options(exact, false);
    noc::Mapping base = w.initial;
    auto commodities = noc::build_commodities(w.graph, base);
    double base_obj = lp::solve_mcf(ctx, commodities, cold_opt).objective;
    solver.solve(commodities);
    bool ok = true;
    for (const auto& [a, b] : swaps) {
        base.swap_tiles(a, b);
        noc::remap_commodities(commodities, base);
        const lp::McfResult cold = lp::solve_mcf(ctx, commodities, cold_opt);
        const lp::McfResult chained = solver.solve(commodities);
        const bool agree =
            exact ? chained.feasible == cold.feasible &&
                        std::abs(chained.objective - cold.objective) <=
                            1e-6 * std::max(1.0, std::abs(cold.objective))
                  : chained.feasible == cold.feasible &&
                        chained.objective == cold.objective && chained.flows == cold.flows;
        if (!agree) {
            std::cerr << w.name << (exact ? " exact" : " approx")
                      << ": chained/one-shot disagree on candidate (" << a << "," << b
                      << "): chained " << chained.objective << " one-shot "
                      << cold.objective << "\n";
            ok = false;
        }
        if (cold.feasible && cold.objective < base_obj)
            base_obj = cold.objective;
        else
            base.swap_tiles(a, b);
    }
    return ok;
}

/// Default-parameter byte stability: repeated map_with_splitting runs must
/// produce identical mappings and costs (the bit-identity acceptance).
bool mapper_byte_parity() {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(bench::ample_mesh_for(g));
    const auto first = nmap::map_with_splitting(g, ctx);
    for (int i = 0; i < 2; ++i) {
        const auto again = nmap::map_with_splitting(g, ctx);
        if (again.mapping != first.mapping || again.comm_cost != first.comm_cost) {
            std::cerr << "default-parameter split mapping not byte-stable across runs\n";
            return false;
        }
    }
    return true;
}

struct ChainRow {
    std::string workload;
    std::size_t tiles = 0;
    std::string engine;
    double cold_ms = 0.0;
    double cold_eps = 0.0; ///< candidate evaluations per second
    bool has_warm = false; ///< exact engine only
    double warm_ms = 0.0;
    double warm_eps = 0.0;
    double speedup = 0.0;
};

void write_trajectory(const std::vector<ChainRow>& rows) {
    std::ofstream out("BENCH_mcf.json");
    if (!out) {
        std::cerr << "BENCH_mcf.json: cannot open for writing\n";
        return;
    }
    const std::size_t host_cores =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    out << "{\n  \"bench\": \"ablation_mcf\",\n"
        << "  \"metric\": \"candidate evaluations per second (exact: warm vs cold)\",\n"
        << "  \"host_cores\": " << host_cores << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ChainRow& r = rows[i];
        out << "    {\"workload\": \"" << r.workload << "\", \"tiles\": " << r.tiles
            << ", \"engine\": \"" << r.engine << "\", \"cold_evals_per_sec\": "
            << r.cold_eps;
        if (r.has_warm)
            out << ", \"warm_evals_per_sec\": " << r.warm_eps << ", \"speedup\": "
                << r.speedup;
        out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

int run_chain_report(bool smoke) {
    // Approx chains on >= 32-tile graphs; exact chains stay on the small
    // graphs the chain has always measured.
    const std::vector<std::size_t> approx_cores =
        smoke ? std::vector<std::size_t>{32} : std::vector<std::size_t>{32, 64};
    const std::vector<std::size_t> exact_cores =
        smoke ? std::vector<std::size_t>{10} : std::vector<std::size_t>{10, 16};
    const std::size_t checks = smoke ? 120 : 300;
    const std::size_t exact_checks = smoke ? 60 : 100;
    const std::size_t repeats = 3;

    util::Table table("MCF candidate chains — evaluations/sec (exact: warm vs cold)");
    table.set_header(
        {"workload", "tiles", "engine", "cold (ms)", "warm (ms)", "cold ev/s",
         "warm ev/s", "speedup"});
    std::vector<std::vector<std::string>> csv;
    std::vector<ChainRow> rows;
    bool ok = true;

    const auto run_one = [&](const Workload& w, std::size_t n, bool exact) {
        const auto swaps = swap_stream(w, n);
        const double evals = static_cast<double>(n + 1);
        ChainRow row;
        row.workload = w.name;
        row.tiles = w.topo.tile_count();
        row.engine = exact ? "exact" : "approx";
        row.cold_ms = best_chain_ms(w, swaps, exact, false, repeats);
        row.cold_eps = evals / (row.cold_ms / 1000.0);
        row.has_warm = exact;
        if (exact) {
            row.warm_ms = best_chain_ms(w, swaps, exact, true, repeats);
            row.warm_eps = evals / (row.warm_ms / 1000.0);
            row.speedup = row.cold_ms / row.warm_ms;
        }
        rows.push_back(row);
        const auto warm_cell = [&](double v, int digits) {
            return row.has_warm ? util::Table::num(v, digits) : std::string("-");
        };
        table.add_row({row.workload, util::Table::num(static_cast<long long>(row.tiles)),
                       row.engine, util::Table::num(row.cold_ms, 2), warm_cell(row.warm_ms, 2),
                       util::Table::num(row.cold_eps, 0), warm_cell(row.warm_eps, 0),
                       warm_cell(row.speedup, 2)});
        csv.push_back({row.workload, util::Table::num(static_cast<long long>(row.tiles)),
                       row.engine, util::Table::num(row.cold_ms, 3), warm_cell(row.warm_ms, 3),
                       util::Table::num(row.cold_eps, 1), warm_cell(row.warm_eps, 1),
                       warm_cell(row.speedup, 2)});
        return row;
    };

    for (const std::size_t cores : approx_cores) {
        const Workload w = make_workload(cores, cores);
        run_one(w, checks, false);
        if (!chain_parity(w, swap_stream(w, std::min<std::size_t>(checks, 60)), false))
            ok = false;
    }
    for (const std::size_t cores : exact_cores) {
        const Workload w = make_workload(cores, cores);
        const ChainRow row = run_one(w, exact_checks, true);
        if (!chain_parity(w, swap_stream(w, std::min<std::size_t>(exact_checks, 40)), true))
            ok = false;
        if (row.speedup < 1.0) {
            std::cerr << w.name << ": warm exact chain slower than cold (" << row.speedup
                      << "x)\n";
            ok = false;
        }
    }

    table.print(std::cout);
    std::cout << "(acceptance: exact warm never slower than cold, warm/cold verdicts and "
                 "objectives compared on every candidate; approx chained answers "
                 "bit-identical to one-shot solves on every candidate)\n";

    if (!mapper_byte_parity()) ok = false;

    bench::try_write_csv("ablation_mcf.csv",
                         {"workload", "tiles", "engine", "cold_ms", "warm_ms",
                          "cold_evals_per_sec", "warm_evals_per_sec", "speedup"},
                         csv);
    write_trajectory(rows);
    return ok ? 0 : 1;
}

// ------------------------------------------------------- google-benchmark --

void BM_ExactMcf(benchmark::State& state, const char* app) {
    const auto g = apps::make_application(app);
    const auto topo = bench::ample_mesh_for(g);
    const auto mapping = nmap::map_with_single_path(g, noc::EvalContext::borrow(topo)).mapping;
    const auto d = noc::build_commodities(g, mapping);
    lp::McfOptions opt;
    opt.objective = lp::McfObjective::MinMaxLoad;
    for (auto _ : state) benchmark::DoNotOptimize(lp::solve_mcf(topo, d, opt).objective);
}

void BM_ApproxMcf(benchmark::State& state, const char* app) {
    const auto g = apps::make_application(app);
    const auto topo = bench::ample_mesh_for(g);
    const auto mapping = nmap::map_with_single_path(g, noc::EvalContext::borrow(topo)).mapping;
    const auto d = noc::build_commodities(g, mapping);
    lp::McfOptions opt;
    opt.objective = lp::McfObjective::MinMaxLoad;
    opt.use_exact_lp = false;
    for (auto _ : state) benchmark::DoNotOptimize(lp::solve_mcf(topo, d, opt).objective);
}

void BM_Chain(benchmark::State& state, bool exact, std::size_t cores) {
    const Workload w = make_workload(cores, cores);
    const noc::EvalContext ctx = noc::EvalContext::borrow(w.topo);
    lp::McfSolver solver(ctx, chain_options(exact, exact));
    const auto swaps = swap_stream(w, 128);
    noc::Mapping base = w.initial;
    auto commodities = noc::build_commodities(w.graph, base);
    solver.solve(commodities);
    std::size_t i = 0;
    for (auto _ : state) {
        base.swap_tiles(swaps[i].first, swaps[i].second);
        noc::remap_commodities(commodities, base);
        benchmark::DoNotOptimize(solver.solve(commodities).objective);
        base.swap_tiles(swaps[i].first, swaps[i].second);
        i = (i + 1) % swaps.size();
    }
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (smoke) return run_chain_report(true);

    print_reproduction();
    const int status = run_chain_report(false);
    benchmark::RegisterBenchmark("ablation/mcf/exact/vopd", BM_ExactMcf, "vopd")
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark("ablation/mcf/approx/vopd", BM_ApproxMcf, "vopd")
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("ablation/mcf/chain/approx32", BM_Chain, false,
                                 std::size_t{32})
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("ablation/mcf/warm_chain/exact10", BM_Chain, true,
                                 std::size_t{10})
        ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return status;
}
