// End-to-end evaluation coverage for the non-mesh fabrics: torus
// wrap-around hop counts and routing, and the Custom-kind (ring/hypercube)
// evaluation paths that previously only mesh exercised.

#include <gtest/gtest.h>

#include <bit>

#include "apps/registry.hpp"
#include "engine/incremental_cost.hpp"
#include "engine/mapper.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace nocmap::noc {
namespace {

TEST(TorusEval, WrapAroundHopCounts) {
    const auto t = Topology::torus(5, 4, 1e9);
    // Horizontal wrap: (0,0) -> (4,0) is one hop, not four.
    EXPECT_EQ(t.distance(t.tile_at(0, 0), t.tile_at(4, 0)), 1);
    // Vertical wrap: (2,0) -> (2,3) is one hop.
    EXPECT_EQ(t.distance(t.tile_at(2, 0), t.tile_at(2, 3)), 1);
    // Both axes wrap: (0,0) -> (4,3) is 2 hops.
    EXPECT_EQ(t.distance(t.tile_at(0, 0), t.tile_at(4, 3)), 2);
    // Interior pairs keep plain Manhattan distance.
    EXPECT_EQ(t.distance(t.tile_at(1, 1), t.tile_at(3, 2)), 3);
    // No pair is farther than floor(w/2) + floor(h/2).
    for (std::size_t a = 0; a < t.tile_count(); ++a)
        for (std::size_t b = 0; b < t.tile_count(); ++b)
            EXPECT_LE(t.distance(static_cast<TileId>(a), static_cast<TileId>(b)), 2 + 2);
}

TEST(TorusEval, RoutingUsesWrapLinks) {
    const auto t = Topology::torus(5, 3, 1e9);
    const auto ctx = noc::EvalContext::borrow(t);
    std::vector<Commodity> commodities(1);
    commodities[0].id = 0;
    commodities[0].src_tile = t.tile_at(0, 0);
    commodities[0].dst_tile = t.tile_at(4, 0);
    commodities[0].value = 100.0;
    const auto routed = nmap::route_single_min_paths(ctx, commodities);
    ASSERT_TRUE(routed.feasible);
    // The minimal route crosses the wrap link, one hop.
    EXPECT_EQ(routed.routes[0].size(), 1u);
    EXPECT_TRUE(is_minimal_route(t, routed.routes[0], commodities[0].src_tile,
                                 commodities[0].dst_tile));
    EXPECT_DOUBLE_EQ(routed.max_load, 100.0);
}

TEST(TorusEval, MappedApplicationRoutesAreMinimalAndConsistent) {
    const auto graph = apps::make_application("vopd");
    const auto t = Topology::torus(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(t);
    const auto result = engine::map_by_name("nmap", graph, ctx);
    ASSERT_TRUE(result.feasible);
    const auto commodities = build_commodities(graph, result.mapping);
    const auto routed = nmap::route_single_min_paths(ctx, commodities);
    for (std::size_t k = 0; k < commodities.size(); ++k)
        EXPECT_TRUE(is_minimal_route(t, routed.routes[k], commodities[k].src_tile,
                                     commodities[k].dst_tile));
    // Eq.7 equals the summed hop·value of the minimal routes.
    EXPECT_DOUBLE_EQ(result.comm_cost, communication_cost(t, commodities));
    EXPECT_DOUBLE_EQ(total_flow(routed.loads), communication_cost(t, commodities));
}

TEST(TorusEval, WrapReducesCostVersusMesh) {
    const auto graph = apps::make_application("vopd");
    const auto mesh = engine::map_by_name("nmap", graph, EvalContext(Topology::mesh(4, 4, 1e9)));
    const auto torus =
        engine::map_by_name("nmap", graph, EvalContext(Topology::torus(4, 4, 1e9)));
    ASSERT_TRUE(mesh.feasible);
    ASSERT_TRUE(torus.feasible);
    // Wrap links can only shorten minimal distances.
    EXPECT_LE(torus.comm_cost, mesh.comm_cost);
}

TEST(CustomEval, RingEndToEndEvaluation) {
    const auto graph = apps::make_application("dsp");
    const auto ring = Topology::ring(graph.node_count(), 1e9);
    const auto ring_ctx = noc::EvalContext::borrow(ring);
    const auto result = engine::map_by_name("nmap", graph, ring_ctx);
    ASSERT_TRUE(result.feasible);
    const auto commodities = build_commodities(graph, result.mapping);
    const auto routed = nmap::route_single_min_paths(ring_ctx, commodities);
    ASSERT_TRUE(routed.feasible);
    for (std::size_t k = 0; k < commodities.size(); ++k)
        EXPECT_TRUE(is_minimal_route(ring, routed.routes[k], commodities[k].src_tile,
                                     commodities[k].dst_tile));
    EXPECT_DOUBLE_EQ(routed.cost, communication_cost(ring, commodities));
    EXPECT_TRUE(satisfies_bandwidth(ring, routed.loads));
    EXPECT_DOUBLE_EQ(total_violation(ring, routed.loads), 0.0);
}

TEST(CustomEval, HypercubeEndToEndEvaluation) {
    const auto graph = apps::make_application("vopd");
    const auto cube = Topology::hypercube(4, 1e9);
    const auto cube_ctx = noc::EvalContext::borrow(cube);
    const auto result = engine::map_by_name("nmap", graph, cube_ctx);
    ASSERT_TRUE(result.feasible);
    const auto commodities = build_commodities(graph, result.mapping);
    // Hypercube distance is the Hamming distance of the tile ids.
    for (const Commodity& c : commodities) {
        const auto xor_bits =
            static_cast<std::uint32_t>(c.src_tile) ^ static_cast<std::uint32_t>(c.dst_tile);
        EXPECT_EQ(cube.distance(c.src_tile, c.dst_tile),
                  static_cast<std::int32_t>(std::popcount(xor_bits)));
    }
    EXPECT_DOUBLE_EQ(result.comm_cost, communication_cost(cube, commodities));
}

TEST(CustomEval, IncrementalDeltaMatchesFullRecomputeOnRing) {
    const auto graph = apps::make_application("dsp");
    const auto ring = Topology::ring(graph.node_count() + 2, 1e9);
    const auto ring_ctx = noc::EvalContext::borrow(ring);
    const auto mapping = nmap::initial_mapping(graph, ring);
    engine::IncrementalEvaluator eval(graph, ring_ctx, mapping);
    for (TileId a = 0; a < static_cast<TileId>(ring.tile_count()); ++a)
        for (TileId b = a + 1; b < static_cast<TileId>(ring.tile_count()); ++b) {
            Mapping swapped = mapping;
            swapped.swap_tiles(a, b);
            const double full = communication_cost(ring, build_commodities(graph, swapped));
            EXPECT_NEAR(eval.cost() + eval.swap_delta(a, b), full, 1e-9 * (1.0 + full));
        }
}

TEST(CustomEval, CapacityViolationDetectedOnRing) {
    // Two cores forced around a 3-ring with capacity below their demand.
    graph::CoreGraph g("tiny");
    const auto a = g.add_node("a");
    const auto b = g.add_node("b");
    g.add_edge(a, b, 500.0);
    const noc::EvalContext ring_ctx(Topology::ring(3, 100.0));
    const auto result = engine::map_by_name("nmap", g, ring_ctx);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.comm_cost, engine::kMaxValue);
}

} // namespace
} // namespace nocmap::noc
