// Deeper MCF properties: detours under tight capacities, torus quadrants,
// multi-commodity interaction and scaling of the exact solver.

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "certified_mcf.hpp"
#include "lp/mcf.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"

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

TEST(McfExtra, TightCapacityForcesDetours) {
    // Adjacent pair with demand 150 but only 100 on the direct link: the
    // overflow must detour over >= 3-hop paths, so total flow exceeds
    // value * distance.
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto c =
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 0), 150.0);
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    const auto r = solve_certified(topo, {c}, opt);
    ASSERT_TRUE(r.solved);
    ASSERT_TRUE(r.feasible);
    // 100 direct (1 hop) + 50 detour (3 hops) = 250 total flow, minimum.
    EXPECT_NEAR(r.objective, 100.0 * 1 + 50.0 * 3, 1e-4);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, r.loads, 1e-6));
}

TEST(McfExtra, QuadrantRestrictionCanBeInfeasibleWhereAllPathsIsNot) {
    // Same situation, but quadrant-restricted: the quadrant of an adjacent
    // pair is just the direct link -> 150 cannot fit in 100.
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto c =
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 0), 150.0);
    McfOptions tm;
    tm.objective = McfObjective::MinSlack;
    tm.quadrant_restricted = true;
    const auto restricted = solve_certified(topo, {c}, tm);
    ASSERT_TRUE(restricted.solved);
    EXPECT_FALSE(restricted.feasible);
    EXPECT_NEAR(restricted.objective, 50.0, 1e-4); // unavoidable slack

    McfOptions ta = tm;
    ta.quadrant_restricted = false;
    EXPECT_TRUE(solve_certified(topo, {c}, ta).feasible);
}

TEST(McfExtra, TorusQuadrantUsesWrapLinks) {
    const auto torus = noc::Topology::torus(5, 3, 1.0);
    // Tiles 1 apart through the wrap: the quadrant contains the wrap link.
    const auto c = make_commodity(0, torus.tile_at(0, 0), torus.tile_at(4, 0), 60.0);
    McfOptions opt;
    opt.objective = McfObjective::MinMaxLoad;
    opt.quadrant_restricted = true;
    const auto r = solve_certified(torus, {c}, opt);
    ASSERT_TRUE(r.solved);
    // Only one minimal path (the single wrap link): all 60 on it.
    EXPECT_NEAR(r.objective, 60.0, 1e-4);
    const auto wrap = torus.link_between(torus.tile_at(0, 0), torus.tile_at(4, 0));
    ASSERT_TRUE(wrap.has_value());
    EXPECT_NEAR(r.flows[0][static_cast<std::size_t>(*wrap)], 60.0, 1e-4);
}

TEST(McfExtra, OppositeFlowsDoNotShareCapacity) {
    // Directed links: A->B and B->A traffic use different links, so both
    // can fill the full capacity.
    const auto topo = noc::Topology::mesh(2, 1, 100.0);
    const std::vector<noc::Commodity> d{make_commodity(0, 0, 1, 100.0),
                                        make_commodity(1, 1, 0, 100.0)};
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    const auto r = solve_certified(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_TRUE(r.feasible);
}

TEST(McfExtra, ExactSolverHandlesVopdScale) {
    // Full VOPD on a 4x4 mesh: 21 commodities x 48 links (~1000 columns).
    const auto g = apps::make_application("vopd");
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto mapping = nmap::map_with_single_path(g, ctx).mapping;
    const auto d = noc::build_commodities(g, mapping);
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    const auto r = solve_certified(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_TRUE(r.feasible);
    // Ample capacity: optimum is shortest-path flow = Eq.7 cost.
    EXPECT_NEAR(r.objective, noc::communication_cost(topo, d), 1e-3);
    EXPECT_NEAR(max_conservation_violation(topo, d, r.flows), 0.0, 1e-5);
}

TEST(McfExtra, MinMaxScalesLinearlyWithDemand) {
    const auto topo = noc::Topology::mesh(3, 3, 1.0);
    McfOptions opt;
    opt.objective = McfObjective::MinMaxLoad;
    const auto c1 = make_commodity(0, 0, 8, 100.0);
    auto c2 = c1;
    c2.value = 300.0;
    const double bw1 = solve_certified(topo, {c1}, opt).objective;
    const double bw3 = solve_certified(topo, {c2}, opt).objective;
    EXPECT_NEAR(bw3, 3.0 * bw1, 1e-4);
}

} // namespace
} // namespace nocmap::lp
