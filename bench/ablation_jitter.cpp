// Ablation: packet jitter under the three routing regimes — the argument
// behind NMAPTM (Section 6): "For SoC applications that require low jitter
// (the time between the delivery of adjacent packets), the traffic between
// the cores can be split across multiple minimum paths, instead of all
// paths, so that the packets traveling in the different paths have the same
// hop delay."
//
// We simulate the DSP design and report, per regime, the average latency,
// the delivery jitter (stddev of inter-delivery gaps, worst flow) and the
// hop-count spread (max - min hops within one flow).

#include <benchmark/benchmark.h>

#include <algorithm>
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

struct RegimeResult {
    double latency = 0.0;
    double latency_stddev = 0.0;
    double worst_jitter = 0.0;
    double hop_spread = 0.0;
    bool stalled = false;
};

RegimeResult simulate(const noc::Topology& base, const std::vector<sim::FlowSpec>& flows,
                      double link_gbps) {
    auto topo = base;
    topo.set_uniform_capacity(link_gbps * 1000.0);
    sim::SimConfig cfg;
    cfg.warmup_cycles = 20'000;
    cfg.measure_cycles = 200'000;
    cfg.drain_cycles = 200'000;
    // Smooth sources: with ON/OFF bursts the inter-delivery spread is
    // dominated by the generator itself; smooth arrivals expose the jitter
    // *the routing regime* introduces, which is the paper's argument.
    cfg.traffic.burstiness = 1.0;
    sim::Simulator simulator(topo, flows, cfg);
    const auto stats = simulator.run();
    RegimeResult r;
    r.stalled = stats.stalled;
    r.latency = stats.packet_latency.mean();
    r.latency_stddev = stats.packet_latency.stddev();
    for (const auto& fs : stats.flows) {
        r.worst_jitter = std::max(r.worst_jitter, fs.jitter());
        r.hop_spread = std::max(r.hop_spread, fs.hops.max() - fs.hops.min());
    }
    return r;
}

void print_reproduction() {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, bench::kAmpleCapacity);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto mapped = nmap::map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, mapped.mapping);

    const auto routed = nmap::route_single_min_paths(ctx, d);
    const auto minp = sim::make_single_path_flows(topo, d, routed.routes);

    lp::McfOptions tm;
    tm.objective = lp::McfObjective::MinMaxLoad;
    tm.quadrant_restricted = true;
    const auto tm_flows = sim::make_split_flows(topo, d, lp::solve_mcf(topo, d, tm).flows);

    lp::McfOptions ta = tm;
    ta.quadrant_restricted = false;
    const auto ta_flows = sim::make_split_flows(topo, d, lp::solve_mcf(topo, d, ta).flows);

    util::Table table("Ablation — DSP jitter by routing regime (1.4 GB/s, smooth sources)");
    table.set_header({"regime", "avg latency (cy)", "latency stddev", "worst jitter (cy)",
                      "max hop spread"});
    const struct {
        const char* name;
        const std::vector<sim::FlowSpec>& flows;
    } regimes[] = {{"Minp (single path)", minp},
                   {"NMAPTM (min paths)", tm_flows},
                   {"NMAPTA (all paths)", ta_flows}};
    for (const auto& regime : regimes) {
        const auto r = simulate(topo, regime.flows, 1.4);
        table.add_row({regime.name,
                       r.stalled ? "stall" : util::Table::num(r.latency, 1),
                       util::Table::num(r.latency_stddev, 1),
                       util::Table::num(r.worst_jitter, 1),
                       util::Table::num(r.hop_spread, 0)});
    }
    table.print(std::cout);
    std::cout << "(NMAPTM keeps every flow's hop count uniform — spread 0 — while\n"
                 " NMAPTA may mix path lengths, trading jitter for bandwidth.)\n";
}

void BM_JitterSim(benchmark::State& state) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, bench::kAmpleCapacity);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto mapped = nmap::map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, mapped.mapping);
    const auto routed = nmap::route_single_min_paths(ctx, d);
    const auto flows = sim::make_single_path_flows(topo, d, routed.routes);
    for (auto _ : state) benchmark::DoNotOptimize(simulate(topo, flows, 1.4).latency);
}
BENCHMARK(BM_JitterSim)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
