// End-to-end mapping / splitting / simulation on non-grid fabrics — the
// paper's "extended to various NoC topologies" direction, exercised through
// the whole stack.

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "baselines/pbb.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "noc/mapping_io.hpp"
#include "sim/netlist.hpp"
#include "sim/simulator.hpp"

namespace nocmap {
namespace {

TEST(CustomFabric, NmapOnRing) {
    const auto g = apps::make_application("pip"); // 8 cores
    const auto ring = noc::Topology::ring(8, 1e9);
    const auto ring_ctx = noc::EvalContext::borrow(ring);
    const auto result = nmap::map_with_single_path(g, ring_ctx);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(result.mapping.is_complete());
    const auto d = noc::build_commodities(g, result.mapping);
    const auto routed = nmap::route_single_min_paths(ring_ctx, d);
    for (std::size_t k = 0; k < d.size(); ++k)
        EXPECT_TRUE(noc::is_minimal_route(ring, routed.routes[k], d[k].src_tile,
                                          d[k].dst_tile));
}

TEST(CustomFabric, NmapOnHypercube) {
    const auto g = apps::make_application("vopd"); // 16 cores on a 4-cube
    const auto cube = noc::Topology::hypercube(4, 1e9);
    const auto cube_ctx = noc::EvalContext::borrow(cube);
    const auto result = nmap::map_with_single_path(g, cube_ctx);
    ASSERT_TRUE(result.feasible);
    // A 4-cube's diameter is 4 (vs 6 on the 4x4 mesh): the richer fabric
    // must not cost more than the mesh mapping.
    const noc::EvalContext mesh_ctx(noc::Topology::mesh(4, 4, 1e9));
    const auto mesh_result = nmap::map_with_single_path(g, mesh_ctx);
    EXPECT_LE(result.comm_cost, mesh_result.comm_cost + 1e-6);
}

TEST(CustomFabric, SplitMcfOnRing) {
    // A ring's two directions are the classic split: a flow between
    // opposite tiles can use both arcs.
    const auto ring = noc::Topology::ring(6, 1.0);
    noc::Commodity c;
    c.id = 0;
    c.src_tile = 0;
    c.dst_tile = 3;
    c.value = 100.0;
    lp::McfOptions opt;
    opt.objective = lp::McfObjective::MinMaxLoad;
    const auto r = lp::solve_mcf(ring, {c}, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_NEAR(r.objective, 50.0, 1e-4); // half each way
    EXPECT_NEAR(lp::max_conservation_violation(ring, {c}, r.flows), 0.0, 1e-6);
}

TEST(CustomFabric, QuadrantRestrictedSplitOnHypercube) {
    const auto cube = noc::Topology::hypercube(3, 1.0);
    noc::Commodity c;
    c.id = 0;
    c.src_tile = 0b000;
    c.dst_tile = 0b011;
    c.value = 90.0;
    lp::McfOptions opt;
    opt.objective = lp::McfObjective::MinMaxLoad;
    opt.quadrant_restricted = true;
    const auto r = lp::solve_mcf(cube, {c}, opt);
    ASSERT_TRUE(r.solved);
    // Two node-disjoint 2-hop paths (via 001 and 010): 45 each.
    EXPECT_NEAR(r.objective, 45.0, 1e-4);
    // Quadrant restriction keeps the flow on minimal paths: total flow =
    // value * distance.
    EXPECT_NEAR(noc::total_flow(r.loads), 90.0 * 2, 1e-4);
}

TEST(CustomFabric, PbbOnRing) {
    const auto g = apps::make_application("dsp");
    const noc::EvalContext ring_ctx(noc::Topology::ring(6, 1e9));
    baselines::PbbOptions opt;
    opt.queue_capacity = 0; // exact (no mesh symmetry breaking applies)
    opt.max_expansions = 0;
    const auto pbb = baselines::pbb_map(g, ring_ctx, opt);
    const auto nm = nmap::map_with_single_path(g, ring_ctx);
    EXPECT_LE(pbb.comm_cost, nm.comm_cost + 1e-9); // exact <= heuristic
}

TEST(CustomFabric, SimulationOnRing) {
    const auto g = apps::make_application("dsp");
    auto ring = noc::Topology::ring(6, 1e9);
    const auto ring_ctx = noc::EvalContext::borrow(ring);
    const auto result = nmap::map_with_single_path(g, ring_ctx);
    ring.set_uniform_capacity(noc::max_load(result.loads) * 2.0);
    const auto d = noc::build_commodities(g, result.mapping);
    const auto routed = nmap::route_single_min_paths(ring_ctx, d);
    const auto flows = sim::make_single_path_flows(ring, d, routed.routes);

    sim::SimConfig cfg;
    cfg.warmup_cycles = 2'000;
    cfg.measure_cycles = 20'000;
    cfg.drain_cycles = 40'000;
    sim::Simulator simulator(ring, flows, cfg);
    const auto stats = simulator.run();
    EXPECT_FALSE(stats.stalled);
    EXPECT_EQ(stats.packets_injected, stats.packets_ejected);

    // The netlist writer handles custom fabrics.
    const auto netlist = sim::netlist_to_string(g, ring, result.mapping, flows);
    EXPECT_NE(netlist.find("fabric custom"), std::string::npos);
}

TEST(CustomFabric, MappingIoRoundtripOnRing) {
    const auto g = apps::make_application("dsp");
    const auto ring = noc::Topology::ring(6, 1e9);
    const auto ring_ctx = noc::EvalContext::borrow(ring);
    const auto result = nmap::map_with_single_path(g, ring_ctx);
    const auto text = noc::mapping_to_string(g, ring, result.mapping);
    // Ring fabrics keep their builder variant in the header (plain
    // "custom" is still accepted on read — see tests/noc/test_mapping_io).
    EXPECT_NE(text.find("ring"), std::string::npos);
    const auto parsed = noc::mapping_from_string(text, g, ring);
    EXPECT_EQ(parsed, result.mapping);
}

} // namespace
} // namespace nocmap
