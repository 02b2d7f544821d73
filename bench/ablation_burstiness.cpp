// Ablation: sensitivity of Figure 5(c) to traffic burstiness.
//
// The paper attributes the latency gap between single-path and split
// routing to contention under bursty traffic ("As the traffic is bursty in
// nature, we have contention even when bandwidth constraints are
// satisfied"). This sweep varies the burstiness factor (peak/average rate)
// at a fixed 1.4 GB/s link bandwidth and shows the gap grow with
// burstiness — smooth traffic barely distinguishes the regimes, heavy
// bursts make single-path routing collapse first.

#include <benchmark/benchmark.h>

#include <iostream>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

struct Design {
    noc::Topology topo = noc::Topology::mesh(3, 2, bench::kAmpleCapacity);
    std::vector<sim::FlowSpec> minp;
    std::vector<sim::FlowSpec> split;

    Design() {
        const auto g = apps::make_application("dsp");
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto mapping = nmap::map_with_single_path(g, ctx).mapping;
        const auto d = noc::build_commodities(g, mapping);
        const auto routed = nmap::route_single_min_paths(ctx, d);
        minp = sim::make_single_path_flows(topo, d, routed.routes);
        lp::McfOptions mcf;
        mcf.objective = lp::McfObjective::MinMaxLoad;
        split = sim::make_split_flows(topo, d, lp::solve_mcf(topo, d, mcf).flows);
    }
};

double run(const Design& design, const std::vector<sim::FlowSpec>& flows,
           double burstiness) {
    auto topo = design.topo;
    topo.set_uniform_capacity(1400.0);
    sim::SimConfig cfg;
    cfg.warmup_cycles = 20'000;
    cfg.measure_cycles = 120'000;
    cfg.drain_cycles = 200'000;
    cfg.traffic.burstiness = burstiness;
    sim::Simulator simulator(topo, flows, cfg);
    const auto stats = simulator.run();
    return stats.stalled ? -1.0 : stats.packet_latency.mean();
}

void print_reproduction() {
    Design design;
    util::Table table("Ablation — latency vs burstiness (DSP @ 1.4 GB/s)");
    table.set_header({"burstiness", "Minp (cy)", "Split (cy)", "gap"});
    for (const double b : {1.0, 2.0, 4.0, 6.0, 8.0}) {
        const double minp = run(design, design.minp, b);
        const double split = run(design, design.split, b);
        std::string gap = "-";
        if (minp > 0 && split > 0)
            gap = util::Table::num((minp / split - 1.0) * 100.0, 0) + "%";
        table.add_row({util::Table::num(b, 0),
                       minp < 0 ? "stall" : util::Table::num(minp, 1),
                       split < 0 ? "stall" : util::Table::num(split, 1), gap});
    }
    table.print(std::cout);
    std::cout << "(the split advantage is a *contention* effect: it grows with\n"
                 " burstiness and vanishes for smooth traffic)\n";
}

void BM_BurstinessPoint(benchmark::State& state) {
    Design design;
    for (auto _ : state) benchmark::DoNotOptimize(run(design, design.minp, 4.0));
}
BENCHMARK(BM_BurstinessPoint)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
