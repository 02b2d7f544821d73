// Engine ablation: wall time of one full O(|U|^2) pairwise-swap sweep under
// the three candidate-evaluation modes of the mapping engine —
//
//   naive        every candidate is fully re-routed (the paper's literal
//                pseudocode),
//   incremental  engine::IncrementalEvaluator Eq.7 deltas prune candidates,
//                routing only acceptable ones,
//   parallel     incremental + concurrent scoring of each sweep row.
//
// All three return bit-identical mappings (tests/engine/test_sweep.cpp), so
// the ratio is pure sweep-throughput speedup. On the 64-core random graph
// the incremental mode must clear >= 5x.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <limits>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "graph/random_graph.hpp"
#include "nmap/single_path.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

graph::CoreGraph make_random64() {
    graph::RandomGraphConfig cfg;
    cfg.core_count = 64;
    cfg.seed = 64;
    cfg.average_out_degree = 2.0;
    return generate_random_core_graph(cfg);
}

nmap::SinglePathOptions mode_options(nmap::SweepEval eval, std::size_t threads) {
    nmap::SinglePathOptions opt;
    opt.max_sweeps = 1;
    opt.eval = eval;
    opt.threads = threads;
    return opt;
}

double time_mapping_ms(const graph::CoreGraph& g, const noc::EvalContext& ctx,
                       const nmap::SinglePathOptions& opt, std::size_t repeats) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < repeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        const auto result = nmap::map_with_single_path(g, ctx, opt);
        const auto stop = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(result.comm_cost);
        best = std::min(best,
                        std::chrono::duration<double, std::milli>(stop - start).count());
    }
    return best;
}

void print_reproduction() {
    struct Workload {
        std::string name;
        graph::CoreGraph graph;
    };
    std::vector<Workload> workloads;
    workloads.push_back({"vopd", apps::make_application("vopd")});
    workloads.push_back({"mpeg4", apps::make_application("mpeg4")});
    workloads.push_back({"random64", make_random64()});

    util::Table table("Engine sweep evaluation — one full pairwise sweep, wall time");
    table.set_header({"workload", "cores", "naive (ms)", "incr (ms)", "par (ms)",
                      "incr speedup", "par speedup"});
    std::vector<std::vector<std::string>> csv;
    for (const Workload& w : workloads) {
        const noc::EvalContext ctx(bench::ample_mesh_for(w.graph));
        const std::size_t repeats = w.graph.node_count() >= 64 ? 1 : 3;
        const double naive_ms =
            time_mapping_ms(w.graph, ctx, mode_options(nmap::SweepEval::Naive, 1), repeats);
        const double incr_ms = time_mapping_ms(
            w.graph, ctx, mode_options(nmap::SweepEval::Incremental, 1), repeats);
        const double par_ms = time_mapping_ms(
            w.graph, ctx, mode_options(nmap::SweepEval::Incremental, 0), repeats);
        const double incr_speedup = naive_ms / incr_ms;
        const double par_speedup = naive_ms / par_ms;
        table.add_row({w.name, util::Table::num(static_cast<long long>(w.graph.node_count())),
                       util::Table::num(naive_ms, 2), util::Table::num(incr_ms, 2),
                       util::Table::num(par_ms, 2), util::Table::num(incr_speedup, 1),
                       util::Table::num(par_speedup, 1)});
        csv.push_back({w.name, util::Table::num(static_cast<long long>(w.graph.node_count())),
                       util::Table::num(naive_ms, 3), util::Table::num(incr_ms, 3),
                       util::Table::num(par_ms, 3), util::Table::num(incr_speedup, 2),
                       util::Table::num(par_speedup, 2)});
    }
    table.print(std::cout);
    std::cout << "(acceptance: incremental >= 5x over naive on random64; identical "
                 "mappings in all modes)\n";
    bench::try_write_csv("engine_speedup.csv",
                         {"workload", "cores", "naive_ms", "incremental_ms", "parallel_ms",
                          "incremental_speedup", "parallel_speedup"},
                         csv);
}

void bm_sweep(benchmark::State& state, nmap::SweepEval eval, std::size_t threads) {
    const auto g = make_random64();
    const noc::EvalContext ctx(bench::ample_mesh_for(g));
    const auto opt = mode_options(eval, threads);
    for (auto _ : state) {
        const auto result = nmap::map_with_single_path(g, ctx, opt);
        benchmark::DoNotOptimize(result.comm_cost);
    }
}

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::RegisterBenchmark("sweep64/naive", bm_sweep, nmap::SweepEval::Naive, 1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("sweep64/incremental", bm_sweep,
                                 nmap::SweepEval::Incremental, 1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark("sweep64/parallel", bm_sweep, nmap::SweepEval::Incremental,
                                 0)
        ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
