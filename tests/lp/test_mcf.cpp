#include "lp/mcf.hpp"

#include <gtest/gtest.h>

#include "certified_mcf.hpp"

namespace nocmap::lp {
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

TEST(Mcf, EmptyCommoditySetTriviallyFeasible) {
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto r = solve_certified(topo, {}, {});
    EXPECT_TRUE(r.solved);
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(noc::max_load(r.loads), 0.0);
}

TEST(Mcf, MinFlowEqualsValueTimesDistance) {
    const auto topo = noc::Topology::mesh(3, 3, 1000.0);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(2, 1), 50.0)};
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    const auto r = solve_certified(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_TRUE(r.feasible);
    EXPECT_NEAR(r.objective, 50.0 * 3, 1e-6);
    EXPECT_NEAR(max_conservation_violation(topo, d, r.flows), 0.0, 1e-6);
}

TEST(Mcf, MinFlowRespectsCapacities) {
    // 100 units across a 2x2 mesh with 60-capacity links: must split.
    const auto topo = noc::Topology::mesh(2, 2, 60.0);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0)};
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    const auto r = solve_certified(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, r.loads, 1e-6));
    // Both minimal paths used; total flow still value * distance.
    EXPECT_NEAR(r.objective, 200.0, 1e-6);
    EXPECT_NEAR(max_conservation_violation(topo, d, r.flows), 0.0, 1e-6);
}

TEST(Mcf, MinFlowInfeasibleWhenCutTooSmall) {
    // 150 units out of a corner with two 60-capacity outgoing links.
    const auto topo = noc::Topology::mesh(2, 2, 60.0);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 150.0)};
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    const auto r = solve_certified(topo, d, opt);
    EXPECT_FALSE(r.feasible);
}

TEST(Mcf, MinSlackZeroWhenAmple) {
    const auto topo = noc::Topology::mesh(3, 3, 1000.0);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(2, 2), 100.0),
        make_commodity(1, topo.tile_at(2, 0), topo.tile_at(0, 2), 100.0)};
    McfOptions opt;
    opt.objective = McfObjective::MinSlack;
    const auto r = solve_certified(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_TRUE(r.feasible);
    EXPECT_NEAR(r.objective, 0.0, 1e-6);
}

TEST(Mcf, MinSlackMeasuresUnavoidableViolation) {
    // Corner-to-corner demand 100 on a 2x2 mesh with 40-capacity links:
    // the source's outgoing cut overloads by 20, the destination's incoming
    // cut by another 20 (disjoint links), so the minimum total slack is 40.
    const auto topo = noc::Topology::mesh(2, 2, 40.0);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0)};
    McfOptions opt;
    opt.objective = McfObjective::MinSlack;
    const auto r = solve_certified(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_FALSE(r.feasible);
    EXPECT_NEAR(r.objective, 40.0, 1e-4);
}

TEST(Mcf, MinMaxLoadSplitsAcrossDisjointPaths) {
    // One commodity corner-to-corner on 2x2: two link-disjoint minimal
    // paths -> optimal max load is value/2.
    const auto topo = noc::Topology::mesh(2, 2, 1.0); // capacities ignored
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0)};
    McfOptions opt;
    opt.objective = McfObjective::MinMaxLoad;
    const auto r = solve_certified(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_NEAR(r.objective, 50.0, 1e-4);
    EXPECT_NEAR(noc::max_load(r.loads), 50.0, 1e-4);
}

TEST(Mcf, QuadrantRestrictionKeepsFlowInQuadrant) {
    const auto topo = noc::Topology::mesh(4, 4, 1.0);
    const auto c = make_commodity(0, topo.tile_at(1, 1), topo.tile_at(2, 3), 80.0);
    McfOptions opt;
    opt.objective = McfObjective::MinMaxLoad;
    opt.quadrant_restricted = true;
    const auto r = solve_certified(topo, {c}, opt);
    ASSERT_TRUE(r.solved);
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
        if (r.flows[0][l] <= 1e-9) continue;
        const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
        EXPECT_TRUE(topo.in_quadrant(link.src, c.src_tile, c.dst_tile));
        EXPECT_TRUE(topo.in_quadrant(link.dst, c.src_tile, c.dst_tile));
    }
    // Quadrant flows are minimal-length: total flow = value * distance.
    EXPECT_NEAR(noc::total_flow(r.loads), 80.0 * 3, 1e-4);
}

TEST(Mcf, AllowedLinksHonorsQuadrantFlag) {
    const auto topo = noc::Topology::mesh(4, 4, 1.0);
    const auto c = make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 10.0);
    EXPECT_EQ(allowed_links(topo, c, false).size(), topo.link_count());
    const auto restricted = allowed_links(topo, c, true);
    EXPECT_EQ(restricted.size(), 8u); // 2x2 quadrant: 4 undirected = 8 directed links
}

TEST(Mcf, MultiCommodityCapacitySharing) {
    // Two commodities share a 3x1 chain: each link carries the sum.
    const auto topo = noc::Topology::mesh(3, 1, 100.0);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(2, 0), 60.0),
        make_commodity(1, topo.tile_at(1, 0), topo.tile_at(2, 0), 40.0)};
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    const auto r = solve_certified(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_TRUE(r.feasible);
    const auto hot = topo.link_between(1, 2).value();
    EXPECT_NEAR(r.loads[static_cast<std::size_t>(hot)], 100.0, 1e-6);
}

TEST(Mcf, ConservationViolationDetectsCorruption) {
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 10.0)};
    McfOptions opt;
    const auto r = solve_certified(topo, d, opt);
    auto corrupted = r.flows;
    corrupted[0][0] += 5.0;
    EXPECT_GT(max_conservation_violation(topo, d, corrupted), 1.0);
}

TEST(Mcf, DecomposeSinglePath) {
    const auto topo = noc::Topology::mesh(3, 1, 100.0);
    const auto c = make_commodity(0, topo.tile_at(0, 0), topo.tile_at(2, 0), 50.0);
    McfOptions opt;
    const auto r = solve_certified(topo, {c}, opt);
    const auto paths = decompose_into_paths(topo, c, r.flows[0]);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_NEAR(paths[0].second, 1.0, 1e-9);
    EXPECT_TRUE(noc::is_valid_route(topo, paths[0].first, c.src_tile, c.dst_tile));
}

TEST(Mcf, DecomposeSplitFlows) {
    const auto topo = noc::Topology::mesh(2, 2, 1.0);
    const auto c = make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0);
    McfOptions opt;
    opt.objective = McfObjective::MinMaxLoad;
    const auto r = solve_certified(topo, {c}, opt);
    const auto paths = decompose_into_paths(topo, c, r.flows[0]);
    ASSERT_EQ(paths.size(), 2u);
    double total = 0.0;
    for (const auto& [route, weight] : paths) {
        EXPECT_TRUE(noc::is_valid_route(topo, route, c.src_tile, c.dst_tile));
        EXPECT_EQ(route.size(), 2u);
        total += weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_NEAR(paths[0].second, 0.5, 1e-3);
}

TEST(Mcf, DecomposeRejectsGarbage) {
    const auto topo = noc::Topology::mesh(2, 2, 1.0);
    const auto c = make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0);
    EXPECT_THROW(decompose_into_paths(topo, c, std::vector<double>(2, 0.0)),
                 std::invalid_argument);
    // All-zero flow of the right size: no path carries flow.
    EXPECT_THROW(
        decompose_into_paths(topo, c, std::vector<double>(topo.link_count(), 0.0)),
        std::logic_error);
}

} // namespace
} // namespace nocmap::lp
