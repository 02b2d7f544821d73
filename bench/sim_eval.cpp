// Simulated-evaluation throughput: how many cycle-accurate wormhole
// evaluations per second the `eval=simulated` backend sustains on mapped
// applications (ISSUE 10). The simulator is the portfolio's per-scenario
// hot path when a simulated spec is active, so a regression here inflates
// every sim-guided sweep.
//
// Each workload maps an application with NMAP single-path routing and then
// times repeated eval::apply calls with a fixed simulated spec. The
// reported rate comes from the median of seven timed repeats: on a shared
// 4-core host best-of-2 read pip anywhere from 331 to 508 evals/s on one
// build, wider than the 25% gate, while a median ignores the repeats a
// descheduling stretches or a quiet spell shortens.
//
// Since the simulator serves only the routers that hold flits and jumps
// over idle stretches, one smoke evaluation takes about 80 us on pip and
// 1.2 ms on mpeg4 (4-core host). Whole runs of one build still fall into
// spells about 1.6x apart that no in-run statistic removes: 30 smoke runs
// read pip 7.4k-13.4k, mpeg4 508-857 and synth24 285-471 evals/s, two
// thirds of them in the fast spell. BENCH_sim.json records the run
// closest to the median of ten consecutive runs.
//
// `--smoke` runs a reduced version and exits non-zero when determinism
// breaks (two evaluations of the same spec must produce bit-identical
// SimMetrics), a workload fails to produce measured metrics, or the
// throughput collapses to zero. The timing rows feed sim_eval.csv and the
// BENCH_sim.json trajectory file gated by scripts/bench_check.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "eval/backend.hpp"
#include "nmap/single_path.hpp"
#include "noc/eval_context.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;
using bench::ms_since;
using Clock = std::chrono::steady_clock;

struct Workload {
    std::string name;
    graph::CoreGraph graph;
    noc::Topology topo;
    engine::MappingResult mapped;
};

Workload make_workload(const std::string& app) {
    Workload w{app, apps::load_graph_or_application(app),
               noc::Topology::mesh(1, 1, 1.0), engine::MappingResult{}};
    w.topo = bench::ample_mesh_for(w.graph);
    w.mapped = nmap::map_with_single_path(w.graph, noc::EvalContext::borrow(w.topo));
    return w;
}

eval::EvalSpec sim_spec(bool smoke) {
    eval::EvalSpec spec;
    spec.backend = "simulated";
    spec.sim_cycles = smoke ? 4000 : 20000;
    spec.sim_warmup = smoke ? 400 : 2000;
    return spec;
}

/// Timed repeats per workload (odd, so the median is one of them).
constexpr std::size_t kRepeats = 7;

struct SimRow {
    std::string workload;
    std::size_t tiles = 0;
    std::size_t cycles = 0;
    std::size_t packets = 0;
    double p99 = 0.0;
    double evals_per_sec = 0.0;
};

/// Times `count` evaluations and returns the wall time; the evaluations are
/// identical, so the first result doubles as the determinism reference.
double run_evals(const Workload& w, const noc::EvalContext& ctx,
                 const eval::EvalSpec& spec, std::size_t count,
                 eval::Evaluation& first) {
    auto mapped = w.mapped;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
        const eval::Evaluation e = eval::apply(w.graph, ctx, mapped, spec);
        benchmark::DoNotOptimize(e.sim.p99_latency_cycles);
        if (i == 0) first = e;
    }
    return ms_since(start);
}

void write_trajectory(const std::vector<SimRow>& rows, bool smoke) {
    std::ofstream out("BENCH_sim.json");
    if (!out) {
        std::cerr << "BENCH_sim.json: cannot open for writing\n";
        return;
    }
    const std::size_t host_cores =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    out << "{\n  \"bench\": \"sim_eval\",\n"
        << "  \"metric\": \"simulated evaluations per second (median of "
        << kRepeats << " timed repeats)\",\n"
        << "  \"command\": \"./build/sim_eval" << (smoke ? " --smoke" : "") << "\",\n"
        << "  \"host_cores\": " << host_cores << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SimRow& r = rows[i];
        out << "    {\"workload\": \"" << r.workload << "\", \"tiles\": " << r.tiles
            << ", \"sim_cycles\": " << r.cycles << ", \"packets\": " << r.packets
            << ", \"p99_latency_cycles\": " << r.p99
            << ", \"evals_per_sec\": " << r.evals_per_sec << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

int run_report(bool smoke) {
    const std::vector<std::string> apps = {
        "pip", "mpeg4", "synth:nodes=24,edges=40,seed=7"};
    const std::size_t evals = smoke ? 3 : 10;
    const eval::EvalSpec spec = sim_spec(smoke);

    util::Table table("Simulated evaluation throughput (eval=simulated)");
    table.set_header({"workload", "tiles", "packets", "p99 lat", "evals/sec"});
    std::vector<SimRow> rows;
    bool ok = true;
    for (const auto& app : apps) {
        const Workload w = make_workload(app);
        if (!w.mapped.feasible) {
            std::cerr << app << ": mapping infeasible; cannot evaluate\n";
            ok = false;
            continue;
        }
        const noc::EvalContext ctx = noc::EvalContext::borrow(w.topo);

        eval::Evaluation reference;
        std::vector<double> times_ms = {run_evals(w, ctx, spec, evals, reference)};
        for (std::size_t i = 1; i < kRepeats; ++i) {
            eval::Evaluation repeat;
            times_ms.push_back(run_evals(w, ctx, spec, evals, repeat));
            if (!(repeat.sim == reference.sim)) {
                std::cerr << app << ": repeated simulated evaluation diverged\n";
                ok = false;
            }
        }
        if (!reference.sim.present || !reference.sim.measured() ||
            reference.sim.packets == 0) {
            std::cerr << app << ": simulation produced no measured metrics ("
                      << reference.sim.note << ")\n";
            ok = false;
        }

        SimRow row;
        row.workload = app;
        row.tiles = w.topo.tile_count();
        row.cycles = static_cast<std::size_t>(spec.sim_cycles);
        row.packets = reference.sim.packets;
        row.p99 = reference.sim.p99_latency_cycles;
        std::nth_element(times_ms.begin(), times_ms.begin() + kRepeats / 2, times_ms.end());
        const double median_ms = times_ms[kRepeats / 2];
        row.evals_per_sec = median_ms > 0.0 ? 1000.0 * double(evals) / median_ms : 0.0;
        if (row.evals_per_sec <= 0.0) {
            std::cerr << app << ": zero evaluation throughput\n";
            ok = false;
        }
        rows.push_back(row);
        table.add_row({row.workload, util::Table::num(double(row.tiles), 0),
                       util::Table::num(double(row.packets), 0),
                       util::Table::num(row.p99, 1),
                       util::Table::num(row.evals_per_sec, 2)});
    }
    table.print(std::cout);

    write_trajectory(rows, smoke);
    std::vector<std::vector<std::string>> csv_rows;
    for (const SimRow& r : rows)
        csv_rows.push_back({r.workload, std::to_string(r.tiles),
                            std::to_string(r.packets), util::Table::num(r.p99, 3),
                            util::Table::num(r.evals_per_sec, 3)});
    bench::try_write_csv("sim_eval.csv",
                         {"workload", "tiles", "packets", "p99_latency_cycles",
                          "evals_per_sec"},
                         csv_rows);
    if (!ok) std::cerr << "sim_eval: smoke gate FAILED\n";
    return ok ? 0 : 1;
}

void BM_SimEval(benchmark::State& state, const std::string& app) {
    const Workload w = make_workload(app);
    const noc::EvalContext ctx = noc::EvalContext::borrow(w.topo);
    const eval::EvalSpec spec = sim_spec(false);
    auto mapped = w.mapped;
    for (auto _ : state) {
        const eval::Evaluation e = eval::apply(w.graph, ctx, mapped, spec);
        benchmark::DoNotOptimize(e.sim.p99_latency_cycles);
    }
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (smoke) return run_report(true);

    const int status = run_report(false);
    benchmark::RegisterBenchmark("sim/eval/pip", BM_SimEval, std::string("pip"))
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("sim/eval/synth24", BM_SimEval,
                                 std::string("synth:nodes=24,edges=40,seed=7"))
        ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return status;
}
