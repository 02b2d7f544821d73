#include "nmap/split.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "lp/certified_mcf.hpp"
#include "nmap/initialize.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "portfolio/runner.hpp"

namespace nocmap::nmap {
namespace {

/// Replays the exact polish of a split result on its final mapping, with
/// every solve's certificate verified: MinSlack decides feasibility,
/// MinFlow gives the reported cost bit for bit, and the loads come from
/// MinFlow (MinMaxLoad under optimize_bandwidth).
void expect_certified_polish(const graph::CoreGraph& g, const noc::Topology& topo,
                             const SplitOptions& opt, const MappingResult& result) {
    const auto d = noc::build_commodities(g, result.mapping);
    lp::McfOptions mcf;
    mcf.quadrant_restricted = opt.mode == SplitMode::MinPaths;
    mcf.objective = lp::McfObjective::MinSlack;
    const auto slack = lp::solve_certified(topo, d, mcf);
    mcf.objective = lp::McfObjective::MinFlow;
    const auto flow = lp::solve_certified(topo, d, mcf);
    if (opt.optimize_bandwidth) {
        mcf.objective = lp::McfObjective::MinMaxLoad;
        EXPECT_EQ(lp::solve_certified(topo, d, mcf).loads, result.loads);
        EXPECT_EQ(flow.feasible ? flow.objective : kMaxValue, result.comm_cost);
        return;
    }
    EXPECT_EQ(slack.feasible, result.feasible);
    if (!result.feasible) {
        EXPECT_EQ(result.comm_cost, kMaxValue);
        return;
    }
    EXPECT_EQ(flow.objective, result.comm_cost);
    EXPECT_EQ(flow.loads, result.loads);
}

TEST(Split, FeasibleWhereSinglePathIsNot) {
    // One heavy flow larger than any single link: splitting is required.
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 150.0);
    auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);

    const auto single = map_with_single_path(g, ctx);
    EXPECT_FALSE(single.feasible);

    SplitOptions opt;
    opt.mode = SplitMode::AllPaths;
    const auto split = map_with_splitting(g, ctx, opt);
    EXPECT_TRUE(split.feasible);
    EXPECT_LT(split.comm_cost, kMaxValue);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, split.loads, 1e-4));
    expect_certified_polish(g, topo, opt, split);
}

TEST(Split, FlowsConserveAndMatchLoads) {
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    const auto result = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    expect_certified_polish(g, topo, opt, result);
    const auto d = noc::build_commodities(g, result.mapping);
    EXPECT_NEAR(lp::max_conservation_violation(topo, d, result.flows), 0.0, 1e-5);
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
        double sum = 0.0;
        for (const auto& flow : result.flows) sum += flow[l];
        EXPECT_NEAR(sum, result.loads[l], 1e-6);
    }
}

TEST(Split, CostLowerBoundedByMappingCost) {
    // MCF2 total flow >= Σ value * distance (each unit travels >= distance).
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = map_with_splitting(g, ctx);
    ASSERT_TRUE(result.feasible);
    expect_certified_polish(g, topo, {}, result);
    const auto d = noc::build_commodities(g, result.mapping);
    EXPECT_GE(result.comm_cost, noc::communication_cost(topo, d) - 1e-4);
    // With ample capacity, shortest paths are optimal: equality.
    EXPECT_NEAR(result.comm_cost, noc::communication_cost(topo, d), 1e-2);
}

TEST(Split, MinPathsModeStaysInQuadrants) {
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.mode = SplitMode::MinPaths;
    const auto result = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    expect_certified_polish(g, topo, opt, result);
    const auto d = noc::build_commodities(g, result.mapping);
    for (std::size_t k = 0; k < d.size(); ++k)
        for (std::size_t l = 0; l < topo.link_count(); ++l) {
            if (result.flows[k][l] <= 1e-6) continue;
            const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
            EXPECT_TRUE(topo.in_quadrant(link.src, d[k].src_tile, d[k].dst_tile));
            EXPECT_TRUE(topo.in_quadrant(link.dst, d[k].src_tile, d[k].dst_tile));
        }
    // Quadrant flows are minimal: total flow equals the Eq.7 cost exactly.
    EXPECT_NEAR(result.comm_cost, noc::communication_cost(topo, d), 1e-2);
}

TEST(Split, SplitNeedsNoMoreBandwidthThanSinglePath) {
    // For the same mapping, the min-max split load never exceeds the
    // single-path peak load.
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto single = map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, single.mapping);

    lp::McfOptions mcf;
    mcf.objective = lp::McfObjective::MinMaxLoad;
    const auto split = lp::solve_certified(topo, d, mcf);
    ASSERT_TRUE(split.solved);
    EXPECT_LE(split.objective, noc::max_load(single.loads) + 1e-6);
}

TEST(Split, ExactInnerLpOnTinyInstance) {
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_node("c");
    g.add_edge("a", "b", 120.0);
    g.add_edge("b", "c", 40.0);
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.mcf_engine = McfEngine::Exact;
    const auto result = map_with_splitting(g, ctx, opt);
    EXPECT_TRUE(result.feasible);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, result.loads, 1e-4));
    expect_certified_polish(g, topo, opt, result);
}

TEST(Split, Deterministic) {
    const auto g = apps::make_application("dsp");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 2, 1e9));
    const auto a = map_with_splitting(g, ctx);
    const auto b = map_with_splitting(g, ctx);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_NEAR(a.comm_cost, b.comm_cost, 1e-9);
}

TEST(Split, BandwidthModeNeverWorseThanRemappingCostOptimal) {
    // The Figure-4 variant searches mappings for minimum min-max load; it
    // must never need more bandwidth than its own starting point
    // (initialize()) re-routed with splitting.
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.optimize_bandwidth = true;
    const auto optimized = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(optimized.feasible);
    expect_certified_polish(g, topo, opt, optimized);

    const auto init = initial_mapping(g, topo);
    lp::McfOptions minmax;
    minmax.objective = lp::McfObjective::MinMaxLoad;
    const auto rerouted =
        lp::solve_certified(topo, noc::build_commodities(g, init), minmax);
    EXPECT_LE(noc::max_load(optimized.loads), rerouted.objective + 1e-6);
}

TEST(Split, BandwidthModeQuadrantFlowsStayMinimal) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.optimize_bandwidth = true;
    opt.mode = SplitMode::MinPaths;
    const auto result = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    expect_certified_polish(g, topo, opt, result);
    const auto d = noc::build_commodities(g, result.mapping);
    for (std::size_t k = 0; k < d.size(); ++k)
        for (std::size_t l = 0; l < topo.link_count(); ++l) {
            if (result.flows[k][l] <= 1e-6) continue;
            const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
            EXPECT_TRUE(topo.in_quadrant(link.src, d[k].src_tile, d[k].dst_tile));
            EXPECT_TRUE(topo.in_quadrant(link.dst, d[k].src_tile, d[k].dst_tile));
        }
}

TEST(Split, BandwidthModeReportsMcf2Cost) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.optimize_bandwidth = true;
    const auto result = map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    expect_certified_polish(g, topo, opt, result);
    // comm_cost is the MCF2 flow of the final mapping: bounded below by the
    // Eq.7 mapping cost.
    const auto d = noc::build_commodities(g, result.mapping);
    EXPECT_GE(result.comm_cost, noc::communication_cost(topo, d) - 1e-6);
}

TEST(Split, WarmStartMatchesColdVerdictAndCost) {
    // Warm inner engines may pick different cost-equal flows mid-sweep, but
    // feasibility and the final exact polish's cost must agree with the cold
    // run on these ample-capacity instances (shortest-path optimum).
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    for (const auto engine : {McfEngine::Approx, McfEngine::Exact}) {
        SplitOptions cold_opt;
        cold_opt.mcf_engine = engine;
        SplitOptions warm_opt = cold_opt;
        warm_opt.warm_start = true;
        const auto cold = map_with_splitting(g, ctx, cold_opt);
        const auto warm = map_with_splitting(g, ctx, warm_opt);
        EXPECT_EQ(warm.feasible, cold.feasible);
        ASSERT_TRUE(warm.feasible);
        expect_certified_polish(g, topo, cold_opt, cold);
        expect_certified_polish(g, topo, warm_opt, warm);
        EXPECT_NEAR(warm.comm_cost, cold.comm_cost,
                    1e-6 * std::max(1.0, cold.comm_cost));
    }
}

TEST(Split, WarmStartExactOnConstrainedInstance) {
    // The 2x2/100-capacity instance from FeasibleWhereSinglePathIsNot, with
    // the warm exact engine driving every swap evaluation.
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 150.0);
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    SplitOptions opt;
    opt.mcf_engine = McfEngine::Exact;
    opt.warm_start = true;
    const auto result = map_with_splitting(g, ctx, opt);
    EXPECT_TRUE(result.feasible);
    EXPECT_TRUE(noc::satisfies_bandwidth(topo, result.loads, 1e-4));
    expect_certified_polish(g, topo, opt, result);
}

TEST(Split, ReportsInfeasibleWhenTrulyImpossible) {
    // Demand exceeding the source's total outgoing capacity can never fit.
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 500.0);
    const auto topo = noc::Topology::mesh(2, 2, 100.0); // corner cut = 200
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = map_with_splitting(g, ctx);
    EXPECT_FALSE(result.feasible);
    EXPECT_EQ(result.comm_cost, kMaxValue);
    expect_certified_polish(g, topo, {}, result);
}

TEST(Split, DeadlineCutsThePolishShort) {
    // A 100 ms budget on a 128-core nmap-split at 400 MB/s links (over
    // 100 s unbounded on a 4-core host; one sweep row alone is about 130
    // Frank–Wolfe solves): the sweep polls the deadline before every MCF
    // solve and the exact polish once per pricing round, so the typed
    // error arrives within a second of the budget instead of after a row
    // or a full polish whose result is discarded.
    portfolio::Scenario scenario;
    scenario.app = "synth";
    scenario.graph = std::make_shared<const graph::CoreGraph>(
        apps::load_graph_or_application("synth:nodes=128,edges=230,seed=2"));
    scenario.topology.capacity = 400.0;
    scenario.mapper = "nmap-split";
    scenario.deadline_ms = 100;
    portfolio::PortfolioRunner runner;
    const auto start = std::chrono::steady_clock::now();
    const auto results = runner.run({scenario});
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].error_code, "deadline-exceeded");
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__)
    // The overshoot bound is a Release-build promise; sanitizer and debug
    // builds run the same code several times slower.
    EXPECT_LT(elapsed, std::chrono::milliseconds(100 + 1000));
#else
    (void)elapsed;
#endif
}

} // namespace
} // namespace nocmap::nmap
