#include "lp/mcf_approx.hpp"

#include <gtest/gtest.h>

#include "certified_mcf.hpp"
#include "util/rng.hpp"

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

std::vector<noc::Commodity> random_commodities(const noc::Topology& topo, std::size_t n,
                                               util::Rng& rng) {
    std::vector<noc::Commodity> d;
    for (std::size_t k = 0; k < n; ++k) {
        noc::TileId src, dst;
        do {
            src = static_cast<noc::TileId>(rng.next_below(topo.tile_count()));
            dst = static_cast<noc::TileId>(rng.next_below(topo.tile_count()));
        } while (src == dst);
        d.push_back(make_commodity(static_cast<std::int32_t>(k), src, dst,
                                   rng.next_double_in(20.0, 300.0)));
    }
    return d;
}

TEST(McfApprox, ConservationHoldsExactly) {
    const auto topo = noc::Topology::mesh(4, 4, 1000.0);
    util::Rng rng(3);
    const auto d = random_commodities(topo, 8, rng);
    McfOptions opt;
    opt.use_exact_lp = false;
    opt.objective = McfObjective::MinMaxLoad;
    const auto r = solve_mcf(topo, d, opt);
    ASSERT_TRUE(r.solved);
    EXPECT_NEAR(max_conservation_violation(topo, d, r.flows), 0.0, 1e-6);
}

TEST(McfApprox, LoadsAreFlowSums) {
    const auto topo = noc::Topology::mesh(3, 3, 1000.0);
    util::Rng rng(4);
    const auto d = random_commodities(topo, 5, rng);
    McfOptions opt;
    opt.use_exact_lp = false;
    const auto r = solve_mcf(topo, d, opt);
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
        double sum = 0.0;
        for (std::size_t k = 0; k < d.size(); ++k) sum += r.flows[k][l];
        EXPECT_NEAR(sum, r.loads[l], 1e-9);
    }
}

class ApproxVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproxVsExact, MinMaxLoadWithinTolerance) {
    const auto topo = noc::Topology::mesh(3, 3, 1.0);
    util::Rng rng(GetParam());
    const auto d = random_commodities(topo, 6, rng);

    McfOptions exact;
    exact.objective = McfObjective::MinMaxLoad;
    exact.use_exact_lp = true;
    const auto re = solve_certified(topo, d, exact);
    ASSERT_TRUE(re.solved);

    McfOptions approx = exact;
    approx.use_exact_lp = false;
    approx.approx_iterations = 128;
    const auto ra = solve_mcf(topo, d, approx);
    ASSERT_TRUE(ra.solved);

    // Approximation is an upper bound on the optimum, within ~15%.
    EXPECT_GE(ra.objective, re.objective - 1e-6);
    EXPECT_LE(ra.objective, re.objective * 1.15 + 1e-6);
}

TEST_P(ApproxVsExact, MinFlowWithinTolerance) {
    const auto topo = noc::Topology::mesh(3, 3, 10000.0); // ample capacity
    util::Rng rng(GetParam() + 1000);
    const auto d = random_commodities(topo, 6, rng);

    McfOptions exact;
    exact.objective = McfObjective::MinFlow;
    const auto re = solve_certified(topo, d, exact);
    ASSERT_TRUE(re.solved);

    McfOptions approx = exact;
    approx.use_exact_lp = false;
    approx.approx_iterations = 96;
    const auto ra = solve_mcf(topo, d, approx);
    ASSERT_TRUE(ra.solved);
    EXPECT_TRUE(ra.feasible);

    // With ample capacity min total flow = Σ value*distance for both.
    EXPECT_NEAR(ra.objective, re.objective, re.objective * 0.05 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproxVsExact, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(McfApprox, QuadrantRestrictionRespected) {
    const auto topo = noc::Topology::mesh(4, 4, 1.0);
    const auto c = make_commodity(0, topo.tile_at(0, 1), topo.tile_at(3, 2), 90.0);
    McfOptions opt;
    opt.use_exact_lp = false;
    opt.quadrant_restricted = true;
    opt.objective = McfObjective::MinMaxLoad;
    const auto r = solve_mcf(topo, {c}, opt);
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
        if (r.flows[0][l] <= 1e-9) continue;
        const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
        EXPECT_TRUE(topo.in_quadrant(link.src, c.src_tile, c.dst_tile));
        EXPECT_TRUE(topo.in_quadrant(link.dst, c.src_tile, c.dst_tile));
    }
}

TEST(McfApprox, SlackModeDetectsFeasibility) {
    const auto topo = noc::Topology::mesh(2, 2, 60.0);
    McfOptions opt;
    opt.use_exact_lp = false;
    opt.objective = McfObjective::MinSlack;
    // Feasible when split: 100 over two 60-capacity paths.
    const auto ok = solve_mcf(
        topo, {make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 100.0)}, opt);
    EXPECT_TRUE(ok.feasible);
    // Infeasible: 150 over an 120-capacity cut.
    const auto bad = solve_mcf(
        topo, {make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 150.0)}, opt);
    EXPECT_FALSE(bad.feasible);
    EXPECT_GT(bad.objective, 10.0);
}

// The path-reuse guard: a search runs only when the link costs moved.

TEST(McfApprox, AmpleMinFlowSearchesOncePerCommodity) {
    // No link ever overloads, so every MinFlow cost stays exactly 1.0, the
    // unit cost of the initial assignment: no iteration searches again.
    const auto topo = noc::Topology::mesh(4, 4, 1e6);
    util::Rng rng(11);
    const auto d = random_commodities(topo, 9, rng);
    for (const bool quadrant : {false, true}) {
        McfOptions opt;
        opt.use_exact_lp = false;
        opt.objective = McfObjective::MinFlow;
        opt.quadrant_restricted = quadrant;
        const auto r = solve_mcf(topo, d, opt);
        EXPECT_TRUE(r.feasible);
        EXPECT_EQ(r.path_searches, d.size()) << (quadrant ? "quadrant" : "all-paths");
    }
}

TEST(McfApprox, OverloadedMinFlowSearchesAgain) {
    // 150 over a 120-capacity cut: the overload penalty moves the costs.
    const auto topo = noc::Topology::mesh(2, 2, 60.0);
    const std::vector<noc::Commodity> d = {
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 150.0)};
    McfOptions opt;
    opt.use_exact_lp = false;
    opt.objective = McfObjective::MinFlow;
    const auto r = solve_mcf(topo, d, opt);
    EXPECT_FALSE(r.feasible);
    EXPECT_GT(r.path_searches, d.size());
}

TEST(McfApprox, CarriedWorkspaceSearchesOnlyMovedCommodities) {
    // Ample MinFlow ends every solve on unit costs, so an McfSolver's next
    // solve keeps each unmoved commodity's min-hop path.
    const auto topo = noc::Topology::mesh(4, 4, 1e6);
    const auto ctx = noc::EvalContext::borrow(topo);
    util::Rng rng(23);
    auto d = random_commodities(topo, 7, rng);
    for (const bool quadrant : {false, true}) {
        McfOptions opt;
        opt.use_exact_lp = false;
        opt.objective = McfObjective::MinFlow;
        opt.quadrant_restricted = quadrant;
        McfSolver solver(ctx, opt);
        EXPECT_EQ(solver.solve(d).path_searches, d.size());
        EXPECT_EQ(solver.solve(d).path_searches, 0u);
        auto moved = d;
        moved[3].dst_tile = moved[3].src_tile == 0 ? 15 : 0;
        const auto r = solver.solve(moved);
        EXPECT_EQ(r.path_searches, 1u);
        EXPECT_EQ(r.flows, solve_mcf(ctx, moved, opt).flows);
    }
}

TEST(McfApprox, ExactEngineRunsNoApproxSearches) {
    const auto topo = noc::Topology::mesh(3, 3, 1e6);
    util::Rng rng(5);
    const auto r = solve_certified(topo, random_commodities(topo, 4, rng), McfOptions{});
    EXPECT_EQ(r.path_searches, 0u);
}

} // namespace
} // namespace nocmap::lp
