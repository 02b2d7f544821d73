#include "nmap/single_path.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "noc/commodity.hpp"

namespace nocmap::nmap {
namespace {

TEST(SinglePath, ImprovesOrMatchesInitialMapping) {
    for (const char* app : {"vopd", "mpeg4", "pip"}) {
        const auto g = apps::make_application(app);
        const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto init = initial_mapping(g, topo);
        const auto init_cost =
            noc::communication_cost(topo, noc::build_commodities(g, init));
        const auto result = map_with_single_path(g, ctx);
        ASSERT_TRUE(result.feasible) << app;
        EXPECT_LE(result.comm_cost, init_cost + 1e-9) << app;
    }
}

TEST(SinglePath, ResultIsCompleteAndValid) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    const auto result = map_with_single_path(g, ctx);
    EXPECT_TRUE(result.mapping.is_complete());
    EXPECT_NO_THROW(result.mapping.validate());
    EXPECT_GT(result.evaluations, 100u); // O(|U|^2) swap evaluations happened
}

TEST(SinglePath, CostMatchesIndependentReevaluation) {
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, result.mapping);
    EXPECT_NEAR(result.comm_cost, noc::communication_cost(topo, d), 1e-9);
    const auto routed = route_single_min_paths(ctx, d);
    EXPECT_NEAR(noc::max_load(result.loads), routed.max_load, 1e-9);
}

TEST(SinglePath, TwoCoreChainIsOptimal) {
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_node("c");
    g.add_edge("a", "b", 100);
    g.add_edge("b", "c", 100);
    const noc::EvalContext ctx(noc::Topology::mesh(3, 3, 1e9));
    const auto result = map_with_single_path(g, ctx);
    // Optimal chain cost: both edges at distance 1.
    EXPECT_DOUBLE_EQ(result.comm_cost, 200.0);
}

TEST(SinglePath, InfeasibleUnderTinyCapacities) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1.0)); // 1 MB/s links
    const auto result = map_with_single_path(g, ctx);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.comm_cost, kMaxValue);
}

TEST(SinglePath, FeasibilityAtModerateCapacityViaLoadBalancing) {
    // Capacity just above what a balanced routing needs: the swap search +
    // congestion-aware router must find a feasible configuration.
    const auto g = apps::make_application("pip");
    auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto unconstrained = map_with_single_path(g, ctx);
    const double peak = noc::max_load(unconstrained.loads);
    topo.set_uniform_capacity(peak * 1.05);
    const auto constrained = map_with_single_path(g, ctx);
    EXPECT_TRUE(constrained.feasible);
}

TEST(SinglePath, Deterministic) {
    const auto g = apps::make_application("mwa");
    const noc::EvalContext ctx(noc::Topology::mesh(5, 3, 1e9));
    const auto a = map_with_single_path(g, ctx);
    const auto b = map_with_single_path(g, ctx);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_DOUBLE_EQ(a.comm_cost, b.comm_cost);
}

TEST(SinglePath, ExtraSweepsNeverHurt) {
    const auto g = apps::make_application("mpeg4");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    SinglePathOptions one;
    one.max_sweeps = 1;
    SinglePathOptions three;
    three.max_sweeps = 3;
    EXPECT_LE(map_with_single_path(g, ctx, three).comm_cost,
              map_with_single_path(g, ctx, one).comm_cost + 1e-9);
}

TEST(SinglePath, CostLowerBoundedByTotalBandwidth) {
    // Every edge covers at least one hop: cost >= total bandwidth.
    const auto g = apps::make_application("dsd");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    const auto result = map_with_single_path(g, ctx);
    EXPECT_GE(result.comm_cost, g.total_bandwidth() - 1e-9);
}

} // namespace
} // namespace nocmap::nmap
