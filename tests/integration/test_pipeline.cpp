// End-to-end integration: application graph -> NMAP mapping -> routing ->
// netlist -> cycle-accurate simulation, across both routing regimes.

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"
#include "noc/commodity.hpp"
#include "sim/netlist.hpp"
#include "sim/simulator.hpp"

namespace nocmap {
namespace {

sim::SimConfig quick_sim() {
    sim::SimConfig cfg;
    cfg.warmup_cycles = 2'000;
    cfg.measure_cycles = 20'000;
    cfg.drain_cycles = 40'000;
    return cfg;
}

TEST(Pipeline, VopdSinglePathEndToEnd) {
    const auto g = apps::make_application("vopd");
    auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = nmap::map_with_single_path(g, ctx);
    ASSERT_TRUE(result.feasible);

    // Realistic link bandwidth for simulation: 2x the routed peak.
    topo.set_uniform_capacity(noc::max_load(result.loads) * 2.0);
    const auto commodities = noc::build_commodities(g, result.mapping);
    const auto routed = nmap::route_single_min_paths(ctx, commodities);
    ASSERT_TRUE(routed.feasible);
    const auto flows = sim::make_single_path_flows(topo, commodities, routed.routes);

    // Netlist generation covers the full design.
    const auto netlist = sim::netlist_to_string(g, topo, result.mapping, flows);
    EXPECT_NE(netlist.find("fabric mesh 4x4"), std::string::npos);

    sim::Simulator simulator(topo, flows, quick_sim());
    const auto stats = simulator.run();
    EXPECT_FALSE(stats.stalled);
    EXPECT_GT(stats.packets_ejected, 100u);
    EXPECT_EQ(stats.packets_injected, stats.packets_ejected);
    EXPECT_GT(stats.packet_latency.mean(), 0.0);
}

TEST(Pipeline, DspSplitTrafficEndToEnd) {
    const auto g = apps::make_application("dsp");
    auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    nmap::SplitOptions opt;
    opt.mode = nmap::SplitMode::AllPaths;
    const auto result = nmap::map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);

    // Load-balanced split routing for the final mapping (with ample
    // capacity MCF2 degenerates to single shortest paths, so the min-max
    // program is the one that actually splits the heavy flows).
    const auto commodities = noc::build_commodities(g, result.mapping);
    lp::McfOptions minmax;
    minmax.objective = lp::McfObjective::MinMaxLoad;
    const auto balanced = lp::solve_mcf(topo, commodities, minmax);
    ASSERT_TRUE(balanced.solved);
    topo.set_uniform_capacity(balanced.objective * 4.0);
    const auto flows = sim::make_split_flows(topo, commodities, balanced.flows);

    // At least one flow actually splits (the 600 MB/s ones should).
    std::size_t multipath = 0;
    for (const auto& f : flows) multipath += f.paths.size() > 1;
    EXPECT_GE(multipath, 1u);

    sim::Simulator simulator(topo, flows, quick_sim());
    const auto stats = simulator.run();
    EXPECT_FALSE(stats.stalled);
    EXPECT_EQ(stats.packets_injected, stats.packets_ejected);
}

TEST(Pipeline, EveryVideoAppMapsFeasiblyOnItsMesh) {
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(info.cores, 1e9));
        const auto result = nmap::map_with_single_path(g, ctx);
        EXPECT_TRUE(result.feasible) << info.name;
        EXPECT_LT(result.comm_cost, nmap::kMaxValue) << info.name;
        EXPECT_TRUE(result.mapping.is_complete()) << info.name;
    }
}

TEST(Pipeline, SimulatedThroughputMatchesOfferedLoad) {
    const auto g = apps::make_application("dsp");
    auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = nmap::map_with_single_path(g, ctx);
    topo.set_uniform_capacity(noc::max_load(result.loads) * 2.0);
    const auto commodities = noc::build_commodities(g, result.mapping);
    const auto routed = nmap::route_single_min_paths(ctx, commodities);
    const auto flows = sim::make_single_path_flows(topo, commodities, routed.routes);

    auto cfg = quick_sim();
    cfg.measure_cycles = 50'000;
    sim::Simulator simulator(topo, flows, cfg);
    const auto stats = simulator.run();
    ASSERT_FALSE(stats.stalled);

    // Ejected bytes per cycle ~= total demand in bytes/cycle.
    const double offered =
        g.total_bandwidth() / (1000.0 * cfg.clock_ghz); // bytes per cycle
    const double delivered = static_cast<double>(stats.packets_ejected) *
                             static_cast<double>(cfg.packet_bytes) /
                             static_cast<double>(cfg.measure_cycles);
    EXPECT_NEAR(delivered, offered, offered * 0.15);
}

} // namespace
} // namespace nocmap
