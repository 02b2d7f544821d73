#include "baselines/gmap.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "noc/commodity.hpp"

namespace nocmap::baselines {
namespace {

TEST(Gmap, CompleteValidMapping) {
    for (const char* app : {"vopd", "mpeg4", "pip", "mwa", "mwag", "dsd"}) {
        const auto g = apps::make_application(app);
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
        const auto placement = gmap_placement(g, ctx);
        EXPECT_TRUE(placement.is_complete()) << app;
        EXPECT_NO_THROW(placement.validate()) << app;
    }
}

TEST(Gmap, ResultFeasibleWithAmpleCapacity) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    const auto result = gmap_map(g, ctx);
    EXPECT_TRUE(result.feasible);
    EXPECT_LT(result.comm_cost, 1e12);
    EXPECT_GE(result.comm_cost, g.total_bandwidth());
}

TEST(Gmap, FirstCoreOnMaxDegreeTile) {
    const auto g = apps::make_application("vopd");
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto placement = gmap_placement(g, ctx);
    graph::NodeId heaviest = 0;
    double best = -1.0;
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        const double t = g.node_traffic(static_cast<graph::NodeId>(v));
        if (t > best) {
            best = t;
            heaviest = static_cast<graph::NodeId>(v);
        }
    }
    EXPECT_EQ(topo.degree(placement.tile_of(heaviest)), 4u);
}

TEST(Gmap, Deterministic) {
    const auto g = apps::make_application("dsd");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    EXPECT_EQ(gmap_placement(g, ctx), gmap_placement(g, ctx));
}

TEST(Gmap, ThrowsOnOversizedGraph) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 3, 1e9));
    EXPECT_THROW(gmap_placement(g, ctx), std::invalid_argument);
}

TEST(Gmap, AdjacentPairForTrivialGraph) {
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 42);
    const auto topo = noc::Topology::mesh(3, 3, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto placement = gmap_placement(g, ctx);
    EXPECT_EQ(topo.distance(placement.tile_of(0), placement.tile_of(1)), 1);
}

} // namespace
} // namespace nocmap::baselines
