#include "baselines/pmap.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "graph/random_graph.hpp"

namespace nocmap::baselines {
namespace {

TEST(Pmap, CompleteValidMapping) {
    for (const char* app : {"vopd", "mpeg4", "pip", "mwa", "mwag", "dsd"}) {
        const auto g = apps::make_application(app);
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
        const auto placement = pmap_placement(g, ctx);
        EXPECT_TRUE(placement.is_complete()) << app;
        EXPECT_NO_THROW(placement.validate()) << app;
    }
}

TEST(Pmap, HeaviestEdgePartnersAreAdjacent) {
    graph::CoreGraph g;
    g.add_node("hub");
    g.add_node("big");
    g.add_node("small");
    g.add_edge("hub", "big", 900);
    g.add_edge("hub", "small", 10);
    const auto topo = noc::Topology::mesh(3, 3, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto placement = pmap_placement(g, ctx);
    EXPECT_EQ(topo.distance(placement.tile_of(0), placement.tile_of(1)), 1);
}

TEST(Pmap, FeasibleWithAmpleCapacity) {
    const auto g = apps::make_application("mwa");
    const noc::EvalContext ctx(noc::Topology::mesh(5, 3, 1e9));
    const auto result = pmap_map(g, ctx);
    EXPECT_TRUE(result.feasible);
    EXPECT_GE(result.comm_cost, g.total_bandwidth());
}

TEST(Pmap, Deterministic) {
    const auto g = apps::make_application("mwag");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    EXPECT_EQ(pmap_placement(g, ctx), pmap_placement(g, ctx));
}

TEST(Pmap, HandlesDisconnectedGraphs) {
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_node("island");
    g.add_edge("a", "b", 10);
    const noc::EvalContext ctx(noc::Topology::mesh(2, 2, 1e9));
    const auto placement = pmap_placement(g, ctx);
    EXPECT_TRUE(placement.is_complete());
}

TEST(Pmap, ScalesToLargeRandomGraphs) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = 40;
    cfg.seed = 9;
    const auto g = generate_random_core_graph(cfg);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(40, 1e9));
    const auto placement = pmap_placement(g, ctx);
    EXPECT_TRUE(placement.is_complete());
    EXPECT_NO_THROW(placement.validate());
}

} // namespace
} // namespace nocmap::baselines
