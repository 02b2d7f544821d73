#include "baselines/annealing.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "nmap/initialize.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"

namespace nocmap::baselines {
namespace {

TEST(Annealing, ProducesValidCompleteMapping) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    const auto result = annealing_map(g, ctx);
    EXPECT_TRUE(result.mapping.is_complete());
    EXPECT_NO_THROW(result.mapping.validate());
    EXPECT_TRUE(result.feasible);
}

TEST(Annealing, ImprovesOnInitialPlacement) {
    const auto g = apps::make_application("vopd");
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const double init_cost = noc::communication_cost(
        topo, noc::build_commodities(g, nmap::initial_mapping(g, topo)));
    const auto result = annealing_map(g, ctx);
    EXPECT_LE(result.comm_cost, init_cost + 1e-9);
}

TEST(Annealing, DeterministicForFixedSeed) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 2, 1e9));
    AnnealingOptions opt;
    opt.seed = 11;
    const auto a = annealing_map(g, ctx, opt);
    const auto b = annealing_map(g, ctx, opt);
    EXPECT_EQ(a.mapping, b.mapping);
}

TEST(Annealing, SeedChangesTrajectory) {
    const auto g = apps::make_application("mwag");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    AnnealingOptions a_opt, b_opt;
    a_opt.seed = 1;
    b_opt.seed = 2;
    const auto a = annealing_map(g, ctx, a_opt);
    const auto b = annealing_map(g, ctx, b_opt);
    // Costs may coincide, but both must be valid; mappings usually differ.
    EXPECT_TRUE(a.mapping.is_complete());
    EXPECT_TRUE(b.mapping.is_complete());
}

TEST(Annealing, CostMatchesIndependentEvaluation) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = annealing_map(g, ctx);
    EXPECT_NEAR(result.comm_cost,
                noc::communication_cost(topo, noc::build_commodities(g, result.mapping)),
                1e-9);
}

TEST(Annealing, HandlesSingleCore) {
    graph::CoreGraph g;
    g.add_node("solo");
    const noc::EvalContext ctx(noc::Topology::mesh(2, 2, 1e9));
    const auto result = annealing_map(g, ctx);
    EXPECT_TRUE(result.mapping.is_complete());
    EXPECT_DOUBLE_EQ(result.comm_cost, 0.0);
}

} // namespace
} // namespace nocmap::baselines
