#include "baselines/exhaustive.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "baselines/annealing.hpp"
#include "baselines/pbb.hpp"
#include "nmap/single_path.hpp"

namespace nocmap::baselines {
namespace {

TEST(Exhaustive, PlacementCount) {
    EXPECT_EQ(placement_count(2, 4), 12u);
    EXPECT_EQ(placement_count(4, 4), 24u);
    EXPECT_EQ(placement_count(6, 6), 720u);
    EXPECT_EQ(placement_count(1, 10), 10u);
    EXPECT_EQ(placement_count(5, 4), 0u);
    // Saturates instead of overflowing.
    EXPECT_EQ(placement_count(30, 30), std::numeric_limits<std::uint64_t>::max());
}

TEST(Exhaustive, RejectsOversizedInstances) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    EXPECT_THROW(exhaustive_map(g, ctx), std::invalid_argument);
    ExhaustiveOptions tight;
    tight.max_placements = 10;
    const auto small = apps::make_application("dsp");
    const noc::EvalContext small_ctx(noc::Topology::mesh(3, 2, 1e9));
    EXPECT_THROW(exhaustive_map(small, small_ctx, tight), std::invalid_argument);
}

TEST(Exhaustive, OptimalOnDsp) {
    const auto g = apps::make_application("dsp");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 2, 1e9));
    const auto optimum = exhaustive_map(g, ctx);
    // Uncapped PBB is exact too: they must agree.
    PbbOptions exact;
    exact.queue_capacity = 0;
    exact.max_expansions = 0;
    const auto pbb = pbb_map(g, ctx, exact);
    EXPECT_NEAR(optimum.comm_cost, pbb.comm_cost, 1e-9);
    // And every heuristic is lower-bounded by it.
    EXPECT_LE(optimum.comm_cost, nmap::map_with_single_path(g, ctx).comm_cost + 1e-9);
    EXPECT_LE(optimum.comm_cost, annealing_map(g, ctx).comm_cost + 1e-9);
}

TEST(Exhaustive, OptimalOnPip) {
    const auto g = apps::make_application("pip"); // 8 cores on 4x2: 8! = 40320
    const noc::EvalContext ctx(noc::Topology::mesh(4, 2, 1e9));
    const auto optimum = exhaustive_map(g, ctx);
    EXPECT_TRUE(optimum.feasible);
    EXPECT_LE(optimum.comm_cost, nmap::map_with_single_path(g, ctx).comm_cost + 1e-9);
    PbbOptions exact;
    exact.queue_capacity = 0;
    exact.max_expansions = 0;
    EXPECT_NEAR(optimum.comm_cost, pbb_map(g, ctx, exact).comm_cost, 1e-9);
}

TEST(Exhaustive, TrivialInstances) {
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 100);
    const noc::EvalContext ctx(noc::Topology::mesh(2, 2, 1e9));
    const auto result = exhaustive_map(g, ctx);
    EXPECT_DOUBLE_EQ(result.comm_cost, 100.0); // adjacent placement
    EXPECT_THROW(exhaustive_map(graph::CoreGraph{}, ctx), std::invalid_argument);
}

} // namespace
} // namespace nocmap::baselines
