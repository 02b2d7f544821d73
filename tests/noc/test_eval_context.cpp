#include "noc/eval_context.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/registry.hpp"
#include "nmap/initialize.hpp"
#include "noc/commodity.hpp"
#include "noc/energy.hpp"
#include "noc/evaluation.hpp"

namespace nocmap::noc {
namespace {

std::vector<Topology> all_kinds() {
    std::vector<Topology> topologies;
    topologies.push_back(Topology::mesh(4, 3, 1e9));
    topologies.push_back(Topology::torus(5, 4, 1e9));
    topologies.push_back(Topology::ring(7, 1e9));
    topologies.push_back(Topology::hypercube(3, 1e9));
    topologies.push_back(Topology::custom(
        4, {Link{0, 1, 1e9}, Link{1, 0, 1e9}, Link{1, 2, 1e9}, Link{2, 1, 1e9},
            Link{2, 3, 1e9}, Link{3, 2, 1e9}, Link{3, 0, 1e9}, Link{0, 3, 1e9}}));
    return topologies;
}

TEST(EvalContext, DistanceTableMatchesTopologyEverywhere) {
    for (const Topology& topo : all_kinds()) {
        const EvalContext ctx = EvalContext::borrow(topo);
        std::int32_t max_seen = 0;
        for (std::size_t a = 0; a < topo.tile_count(); ++a)
            for (std::size_t b = 0; b < topo.tile_count(); ++b) {
                const auto ta = static_cast<TileId>(a);
                const auto tb = static_cast<TileId>(b);
                EXPECT_EQ(ctx.distance(ta, tb), topo.distance(ta, tb))
                    << topo.variant() << " " << a << "->" << b;
                max_seen = std::max(max_seen, topo.distance(ta, tb));
            }
        EXPECT_EQ(ctx.diameter(), max_seen) << topo.variant();
    }
}

TEST(EvalContext, QuadrantMatchesTopologyEverywhere) {
    for (const Topology& topo : all_kinds()) {
        const EvalContext ctx = EvalContext::borrow(topo);
        for (std::size_t a = 0; a < topo.tile_count(); ++a)
            for (std::size_t b = 0; b < topo.tile_count(); ++b)
                for (std::size_t t = 0; t < topo.tile_count(); ++t) {
                    const auto ta = static_cast<TileId>(a);
                    const auto tb = static_cast<TileId>(b);
                    const auto tt = static_cast<TileId>(t);
                    EXPECT_EQ(ctx.in_quadrant(tt, ta, tb), topo.in_quadrant(tt, ta, tb))
                        << topo.variant() << " t=" << t << " a=" << a << " b=" << b;
                }
    }
}

TEST(EvalContext, BitEnergyMatchesModel) {
    EnergyModel model;
    model.switch_pj_per_bit = 0.3;
    model.link_pj_per_bit = 0.5;
    const Topology topo = Topology::mesh(4, 4, 1e9);
    const EvalContext ctx = EvalContext::borrow(topo, model);
    for (std::size_t hops = 0; hops <= static_cast<std::size_t>(ctx.diameter()) + 3; ++hops)
        EXPECT_DOUBLE_EQ(ctx.bit_energy(hops), model.bit_energy(hops));
    EXPECT_DOUBLE_EQ(ctx.energy_model().switch_pj_per_bit, 0.3);
}

TEST(EvalContext, SharedOwnershipKeepsTopologyAlive) {
    auto topo = std::make_shared<const Topology>(Topology::mesh(3, 3, 1e9));
    EvalContext ctx(topo);
    topo.reset();
    EXPECT_EQ(ctx.topology().tile_count(), 9u);
    EXPECT_EQ(ctx.distance(0, 8), 4);
}

TEST(EvalContext, EvaluationOverloadsMatchPlainPaths) {
    const auto graph = apps::make_application("vopd");
    for (const Topology& topo : {Topology::mesh(4, 4, 1e9), Topology::ring(16, 1e9)}) {
        const EvalContext ctx = EvalContext::borrow(topo);
        const auto mapping = nmap::initial_mapping(graph, topo);
        const auto commodities = build_commodities(graph, mapping);
        EXPECT_DOUBLE_EQ(communication_cost(ctx, commodities),
                         communication_cost(topo, commodities));
        EXPECT_DOUBLE_EQ(average_weighted_hops(ctx, commodities),
                         average_weighted_hops(topo, commodities));
        EXPECT_DOUBLE_EQ(mapping_energy_mw(ctx, commodities),
                         mapping_energy_mw(topo, commodities));
    }
}

} // namespace
} // namespace nocmap::noc
