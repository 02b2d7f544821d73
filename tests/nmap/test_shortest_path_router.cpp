#include "nmap/shortest_path_router.hpp"

#include <gtest/gtest.h>

#include "nmap/initialize.hpp"
#include "nmap/result.hpp"
#include "apps/registry.hpp"

namespace nocmap::nmap {
namespace {

noc::Commodity make_commodity(std::int32_t id, noc::TileId src, noc::TileId dst,
                              double value) {
    noc::Commodity c;
    c.id = id;
    c.src_core = id;
    c.dst_core = id + 100;
    c.src_tile = src;
    c.dst_tile = dst;
    c.value = value;
    return c;
}

TEST(ShortestPathRouter, RoutesAreMinimalAndInQuadrant) {
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(3, 2), 100.0),
        make_commodity(1, topo.tile_at(2, 3), topo.tile_at(0, 0), 50.0)};
    const auto r = route_single_min_paths(ctx, d);
    ASSERT_EQ(r.routes.size(), 2u);
    for (std::size_t k = 0; k < d.size(); ++k) {
        EXPECT_TRUE(noc::is_minimal_route(topo, r.routes[k], d[k].src_tile, d[k].dst_tile));
        noc::TileId at = d[k].src_tile;
        for (const noc::LinkId l : r.routes[k]) {
            EXPECT_TRUE(topo.in_quadrant(topo.link(l).dst, d[k].src_tile, d[k].dst_tile));
            at = topo.link(l).dst;
        }
        EXPECT_EQ(at, d[k].dst_tile);
    }
}

TEST(ShortestPathRouter, LoadsMatchAccumulation) {
    const auto topo = noc::Topology::mesh(3, 3, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const std::vector<noc::Commodity> d{
        make_commodity(0, 0, 8, 70.0), make_commodity(1, 2, 6, 30.0)};
    const auto r = route_single_min_paths(ctx, d);
    const auto expected = noc::accumulate_loads(topo, d, r.routes);
    ASSERT_EQ(expected.size(), r.loads.size());
    for (std::size_t l = 0; l < expected.size(); ++l)
        EXPECT_NEAR(expected[l], r.loads[l], 1e-9);
    EXPECT_NEAR(r.max_load, noc::max_load(expected), 1e-9);
}

TEST(ShortestPathRouter, CostIsEquation7WhenFeasible) {
    const noc::EvalContext ctx(noc::Topology::mesh(3, 3, 1e9));
    const std::vector<noc::Commodity> d{make_commodity(0, 0, 8, 100.0)};
    const auto r = route_single_min_paths(ctx, d);
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.cost, 400.0); // distance 4 * 100
}

TEST(ShortestPathRouter, InfeasibleReturnsMaxValue) {
    auto topo = noc::Topology::mesh(3, 3, 10.0); // tiny capacities
    const std::vector<noc::Commodity> d{make_commodity(0, 0, 8, 100.0)};
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto r = route_single_min_paths(ctx, d);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.cost, kMaxValue);
    EXPECT_GT(r.max_load, 10.0);
}

TEST(ShortestPathRouter, CongestionAwareSpreading) {
    // Two equal commodities between the same corner pair: the second must
    // avoid the first one's path, halving the peak load vs. stacking.
    const auto topo = noc::Topology::mesh(2, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0),
        make_commodity(1, topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0)};
    const auto r = route_single_min_paths(ctx, d);
    EXPECT_NE(r.routes[0], r.routes[1]);
    EXPECT_NEAR(r.max_load, 100.0, 1e-9);
}

TEST(ShortestPathRouter, HeaviestCommodityRoutedFirst) {
    // The heavy flow gets the contention-free shortest choice; loads stay
    // balanced regardless of input order.
    const auto topo = noc::Topology::mesh(2, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 10.0),
        make_commodity(1, topo.tile_at(0, 0), topo.tile_at(1, 1), 500.0)};
    const auto r = route_single_min_paths(ctx, d);
    EXPECT_NEAR(r.max_load, 500.0, 1e-9);
    // Reversed order gives the same peak (sorting inside the router).
    std::swap(d[0], d[1]);
    d[0].id = 0;
    d[1].id = 1;
    const auto r2 = route_single_min_paths(ctx, d);
    EXPECT_NEAR(r2.max_load, 500.0, 1e-9);
}

TEST(ShortestPathRouter, EmptyCommoditySet) {
    const noc::EvalContext ctx(noc::Topology::mesh(2, 2, 100.0));
    const auto r = route_single_min_paths(ctx, {});
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.cost, 0.0);
    EXPECT_DOUBLE_EQ(r.max_load, 0.0);
}

TEST(ShortestPathRouter, VopdWholeAppFeasibleOnAmpleMesh) {
    const auto g = apps::make_application("vopd");
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto mapping = initial_mapping(g, topo);
    const auto d = noc::build_commodities(g, mapping);
    const auto r = route_single_min_paths(ctx, d);
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(r.cost, noc::communication_cost(topo, d));
    EXPECT_GT(r.max_load, 0.0);
}

} // namespace
} // namespace nocmap::nmap
