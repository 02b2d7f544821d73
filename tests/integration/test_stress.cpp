// Randomized stress / property sweep: the full mapping pipeline on random
// core graphs of varying size, checking the invariants every component must
// uphold regardless of input.

#include <gtest/gtest.h>

#include "baselines/gmap.hpp"
#include "baselines/pmap.hpp"
#include "graph/random_graph.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "noc/energy.hpp"

namespace nocmap {
namespace {

struct StressParam {
    std::size_t cores;
    std::uint64_t seed;
};

class PipelineStress : public ::testing::TestWithParam<StressParam> {
protected:
    graph::CoreGraph make_graph() const {
        graph::RandomGraphConfig cfg;
        cfg.core_count = GetParam().cores;
        cfg.seed = GetParam().seed;
        cfg.average_out_degree = std::min(2.5, static_cast<double>(GetParam().cores - 1));
        return generate_random_core_graph(cfg);
    }
};

TEST_P(PipelineStress, NmapInvariants) {
    const auto g = make_graph();
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = nmap::map_with_single_path(g, ctx);

    // Structure.
    ASSERT_TRUE(result.mapping.is_complete());
    ASSERT_NO_THROW(result.mapping.validate());
    ASSERT_TRUE(result.feasible);

    // Cost bounds: every edge travels at least 1 hop and at most the mesh
    // diameter.
    const double diameter = static_cast<double>(
        topo.distance(topo.tile_at(0, 0), topo.tile_at(topo.width() - 1, topo.height() - 1)));
    EXPECT_GE(result.comm_cost, g.total_bandwidth() - 1e-6);
    EXPECT_LE(result.comm_cost, g.total_bandwidth() * diameter + 1e-6);

    // The reported cost matches an independent evaluation of the mapping.
    const auto d = noc::build_commodities(g, result.mapping);
    EXPECT_NEAR(result.comm_cost, noc::communication_cost(topo, d), 1e-6);

    // The routing behind the loads is minimal and conserves traffic: total
    // flow on links equals the Eq.7 cost.
    EXPECT_NEAR(noc::total_flow(result.loads), result.comm_cost, 1e-6);

    // Energy is consistent with cost (affine relation for fixed demand).
    const double energy = noc::mapping_energy_mw(topo, d);
    EXPECT_GT(energy, 0.0);
}

TEST_P(PipelineStress, SplitNeverNeedsMoreBandwidth) {
    const auto g = make_graph();
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = nmap::map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, result.mapping);

    lp::McfOptions tm;
    tm.objective = lp::McfObjective::MinMaxLoad;
    tm.quadrant_restricted = true;
    tm.use_exact_lp = GetParam().cores <= 16; // keep big instances fast
    tm.approx_iterations = 96;
    const auto tm_result = lp::solve_mcf(topo, d, tm);

    lp::McfOptions ta = tm;
    ta.quadrant_restricted = false;
    const auto ta_result = lp::solve_mcf(topo, d, ta);

    const double single_bw = noc::max_load(result.loads);
    EXPECT_LE(tm_result.objective, single_bw * 1.001 + 1e-6);
    if (tm.use_exact_lp) { // the approximation is only near-monotone
        EXPECT_LE(ta_result.objective, tm_result.objective + 1e-6);
    }

    // Conservation of the split solutions.
    EXPECT_LT(lp::max_conservation_violation(topo, d, tm_result.flows), 1e-4);
    EXPECT_LT(lp::max_conservation_violation(topo, d, ta_result.flows), 1e-4);
}

TEST_P(PipelineStress, BaselinesProduceValidMappings) {
    const auto g = make_graph();
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    for (const auto& result :
         {baselines::pmap_map(g, ctx), baselines::gmap_map(g, ctx)}) {
        EXPECT_TRUE(result.mapping.is_complete());
        EXPECT_NO_THROW(result.mapping.validate());
        EXPECT_GE(result.comm_cost, g.total_bandwidth() - 1e-6);
    }
}

TEST_P(PipelineStress, QuadrantRouterStaysMinimal) {
    const auto g = make_graph();
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto mapping = nmap::map_with_single_path(g, ctx).mapping;
    const auto d = noc::build_commodities(g, mapping);
    const auto routed = nmap::route_single_min_paths(ctx, d);
    for (std::size_t k = 0; k < d.size(); ++k)
        EXPECT_TRUE(noc::is_minimal_route(topo, routed.routes[k], d[k].src_tile,
                                          d[k].dst_tile))
            << "commodity " << k;
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, PipelineStress,
    ::testing::Values(StressParam{6, 1}, StressParam{9, 2}, StressParam{12, 3},
                      StressParam{16, 4}, StressParam{16, 5}, StressParam{20, 6},
                      StressParam{25, 7}, StressParam{30, 8}));

// Torus fabrics exercise the wrap-around quadrant logic end to end.
class TorusStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TorusStress, FullPipelineOnTorus) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = 14;
    cfg.seed = GetParam();
    const auto g = generate_random_core_graph(cfg);
    const auto torus = noc::Topology::torus(4, 4, 1e9);
    const auto torus_ctx = noc::EvalContext::borrow(torus);
    const auto result = nmap::map_with_single_path(g, torus_ctx);
    ASSERT_TRUE(result.feasible);
    const auto d = noc::build_commodities(g, result.mapping);
    const auto routed = nmap::route_single_min_paths(torus_ctx, d);
    for (std::size_t k = 0; k < d.size(); ++k)
        EXPECT_TRUE(noc::is_minimal_route(torus, routed.routes[k], d[k].src_tile,
                                          d[k].dst_tile));
    // Torus distances never exceed mesh distances: the torus mapping cost is
    // at most the mesh cost for the same graph.
    const noc::EvalContext mesh_ctx(noc::Topology::mesh(4, 4, 1e9));
    const auto mesh_result = nmap::map_with_single_path(g, mesh_ctx);
    EXPECT_LE(result.comm_cost, mesh_result.comm_cost + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TorusStress, ::testing::Values(11, 22, 33, 44));

// Non-uniform link capacities: MCF must respect each link's own budget.
TEST(HeterogeneousCapacity, McfRespectsPerLinkBudgets) {
    auto topo = noc::Topology::mesh(2, 2, 100.0);
    // Choke one of the two minimal paths of the corner-to-corner commodity.
    const auto choked = topo.link_between(topo.tile_at(0, 0), topo.tile_at(1, 0)).value();
    topo.set_link_capacity(choked, 25.0);

    noc::Commodity c;
    c.id = 0;
    c.src_tile = topo.tile_at(0, 0);
    c.dst_tile = topo.tile_at(1, 1);
    c.value = 100.0;

    lp::McfOptions opt;
    opt.objective = lp::McfObjective::MinFlow;
    const auto r = lp::solve_mcf(topo, {c}, opt);
    ASSERT_TRUE(r.solved);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.loads[static_cast<std::size_t>(choked)], 25.0 + 1e-6);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, r.loads, 1e-6));
}

TEST(HeterogeneousCapacity, SinglePathRouterSeesTightLinks) {
    auto topo = noc::Topology::mesh(3, 1, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto middle = topo.link_between(1, 2).value();
    topo.set_link_capacity(middle, 10.0);
    noc::Commodity c;
    c.id = 0;
    c.src_tile = 0;
    c.dst_tile = 2;
    c.value = 50.0;
    const auto routed = nmap::route_single_min_paths(ctx, {c});
    // Only one path exists and it violates the choked link.
    EXPECT_FALSE(routed.feasible);
}

} // namespace
} // namespace nocmap
