// Figure 5(c) reproduction: average packet latency (cycles) of the DSP
// filter NoC vs. link bandwidth (1.1 .. 1.8 GB/s), for single minimum-path
// routing ("Minp") and split-traffic routing ("Split"), measured by the
// cycle-accurate wormhole simulator with bursty traffic.
//
// Expected shape (paper): Split is lower and flatter; Minp is higher and
// rises sharply (non-linearly) as bandwidth shrinks, because the 600 MB/s
// flows congest single links and wormhole blocking cascades.

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

struct DspDesign {
    graph::CoreGraph graph = apps::make_application("dsp");
    noc::Topology topo = noc::Topology::mesh(3, 2, bench::kAmpleCapacity);
    noc::Mapping mapping;
    std::vector<noc::Commodity> commodities;
    std::vector<sim::FlowSpec> single_flows;
    std::vector<sim::FlowSpec> split_flows;

    DspDesign() {
        const auto ctx = noc::EvalContext::borrow(topo);
        mapping = nmap::map_with_single_path(graph, ctx).mapping;
        commodities = noc::build_commodities(graph, mapping);
        const auto routed = nmap::route_single_min_paths(ctx, commodities);
        single_flows = sim::make_single_path_flows(topo, commodities, routed.routes);
        lp::McfOptions mcf;
        mcf.objective = lp::McfObjective::MinMaxLoad;
        const auto split = lp::solve_mcf(topo, commodities, mcf);
        split_flows = sim::make_split_flows(topo, commodities, split.flows);
    }
};

sim::SimConfig sim_config() {
    sim::SimConfig cfg;
    cfg.warmup_cycles = 20'000;
    cfg.measure_cycles = 150'000;
    cfg.drain_cycles = 150'000;
    cfg.packet_bytes = 64; // Table 3
    cfg.hop_delay_cycles = 7;
    return cfg;
}

double run_latency(const DspDesign& design, double link_gbps, bool split) {
    auto topo = design.topo;
    topo.set_uniform_capacity(link_gbps * 1000.0); // GB/s -> MB/s
    sim::Simulator simulator(topo, split ? design.split_flows : design.single_flows,
                             sim_config());
    const auto stats = simulator.run();
    if (stats.stalled) return -1.0;
    return stats.packet_latency.mean();
}

void print_reproduction() {
    DspDesign design;
    util::Table table("Figure 5(c) — DSP NoC: avg packet latency (cycles) vs link BW");
    table.set_header({"BW (GB/s)", "Minp", "Split"});
    std::vector<std::vector<std::string>> csv;
    for (double bw = 1.1; bw <= 1.85; bw += 0.1) {
        const double minp = run_latency(design, bw, false);
        const double split = run_latency(design, bw, true);
        table.add_row({util::Table::num(bw, 1),
                       minp < 0 ? "stall" : util::Table::num(minp, 1),
                       split < 0 ? "stall" : util::Table::num(split, 1)});
        csv.push_back({util::Table::num(bw, 1), util::Table::num(minp, 2),
                       util::Table::num(split, 2)});
    }
    table.print(std::cout);
    std::cout << "(paper shape: Split lower & flatter; Minp rises sharply as BW drops)\n";
    bench::try_write_csv("fig5c_latency.csv", {"bw_gbps", "minp_cycles", "split_cycles"},
                         csv);
}

void BM_CycleAccurateSim(benchmark::State& state, bool split) {
    DspDesign design;
    for (auto _ : state) benchmark::DoNotOptimize(run_latency(design, 1.4, split));
}

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::RegisterBenchmark("fig5c/sim/minp", BM_CycleAccurateSim, false)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark("fig5c/sim/split", BM_CycleAccurateSim, true)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
