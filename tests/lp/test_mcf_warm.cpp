#include "lp/mcf.hpp"

#include <gtest/gtest.h>

#include "certified_mcf.hpp"
#include "util/rng.hpp"

namespace nocmap::lp {
namespace {

// McfSolver contract: a warm chain over swap-perturbed commodity sets must
// agree with one-shot cold solves on feasibility and objective, while the
// exact engine actually seeds candidates from its carried column pool.

/// Swap-chain generator: a tile permutation plays the mapping; each step
/// swaps two tiles and re-derives the commodity endpoints, exactly like a
/// pairwise-swap candidate in the split mappers.
class SwapChain {
public:
    SwapChain(const noc::Topology& topo, std::size_t commodity_count, util::Rng& rng)
        : rng_(rng), perm_(topo.tile_count()) {
        for (std::size_t t = 0; t < perm_.size(); ++t)
            perm_[t] = static_cast<noc::TileId>(t);
        rng_.shuffle(perm_);
        commodities_.resize(commodity_count);
        for (std::size_t k = 0; k < commodity_count; ++k) {
            noc::Commodity& c = commodities_[k];
            c.id = static_cast<std::int32_t>(k);
            c.src_core = static_cast<std::int32_t>(k);
            c.dst_core = static_cast<std::int32_t>(k + commodity_count);
            c.value = rng_.next_double_in(1.0, 10.0);
        }
        refresh();
    }

    const std::vector<noc::Commodity>& step() {
        const std::size_t a = rng_.next_below(perm_.size());
        std::size_t b = rng_.next_below(perm_.size() - 1);
        if (b >= a) ++b;
        std::swap(perm_[a], perm_[b]);
        refresh();
        return commodities_;
    }

    const std::vector<noc::Commodity>& commodities() const { return commodities_; }

private:
    void refresh() {
        for (std::size_t k = 0; k < commodities_.size(); ++k) {
            commodities_[k].src_tile = perm_[static_cast<std::size_t>(commodities_[k].src_core)];
            commodities_[k].dst_tile = perm_[static_cast<std::size_t>(commodities_[k].dst_core)];
        }
    }

    util::Rng& rng_;
    std::vector<noc::TileId> perm_;
    std::vector<noc::Commodity> commodities_;
};

void expect_agrees_with_cold(const noc::EvalContext& ctx,
                             const std::vector<noc::Commodity>& commodities,
                             const McfOptions& options, const McfResult& warm,
                             double rel_tol) {
    McfOptions cold_options = options;
    cold_options.warm_start = false;
    const CertificateVerdict verdict =
        verify_mcf_certificate(ctx.topology(), commodities, options, warm);
    EXPECT_TRUE(verdict.ok) << "warm: " << verdict.reason;
    const McfResult cold = solve_certified(ctx, commodities, cold_options);
    EXPECT_EQ(warm.solved, cold.solved);
    EXPECT_EQ(warm.feasible, cold.feasible);
    if (cold.solved) {
        EXPECT_NEAR(warm.objective, cold.objective,
                    rel_tol * std::max(1.0, std::abs(cold.objective)));
    }
}

class McfWarmObjectives : public ::testing::TestWithParam<McfObjective> {};

TEST_P(McfWarmObjectives, ExactWarmChainAgreesWithCold) {
    const auto topo = noc::Topology::mesh(4, 4, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    McfOptions opt;
    opt.objective = GetParam();
    opt.use_exact_lp = true;
    opt.warm_start = true;
    McfSolver solver(ctx, opt);
    util::Rng rng(2024);
    SwapChain chain(topo, 6, rng);
    expect_agrees_with_cold(ctx, chain.commodities(), opt,
                            solver.solve(chain.commodities()), 1e-6);
    for (int s = 0; s < 12; ++s) {
        const auto& commodities = chain.step();
        expect_agrees_with_cold(ctx, commodities, opt, solver.solve(commodities), 1e-6);
    }
    // Commodities a swap did not move started from the carried paths.
    EXPECT_EQ(solver.stats().solves, 13u);
    EXPECT_GT(solver.stats().pool_seeded, 0u);
}

TEST_P(McfWarmObjectives, ExactWarmChainAgreesWithColdUnderTightCapacities) {
    // Capacity 12 with values up to 10: several candidates violate the
    // bandwidth constraints, so the chain crosses feasible<->infeasible.
    const auto topo = noc::Topology::mesh(3, 3, 12.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    McfOptions opt;
    opt.objective = GetParam();
    opt.use_exact_lp = true;
    opt.warm_start = true;
    McfSolver solver(ctx, opt);
    util::Rng rng(7);
    SwapChain chain(topo, 4, rng);
    expect_agrees_with_cold(ctx, chain.commodities(), opt,
                            solver.solve(chain.commodities()), 1e-6);
    for (int s = 0; s < 10; ++s) {
        const auto& commodities = chain.step();
        expect_agrees_with_cold(ctx, commodities, opt, solver.solve(commodities), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(AllObjectives, McfWarmObjectives,
                         ::testing::Values(McfObjective::MinSlack, McfObjective::MinFlow,
                                           McfObjective::MinMaxLoad));

TEST(McfWarm, QuadrantModeFallsBackToColdBitIdentically) {
    const auto topo = noc::Topology::mesh(4, 4, 50.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    opt.use_exact_lp = true;
    opt.quadrant_restricted = true;
    opt.warm_start = true;
    McfSolver solver(ctx, opt);
    util::Rng rng(31);
    SwapChain chain(topo, 5, rng);
    for (int s = 0; s < 6; ++s) {
        const auto& commodities = s == 0 ? chain.commodities() : chain.step();
        const McfResult warm = solver.solve(commodities);
        McfOptions cold_options = opt;
        cold_options.warm_start = false;
        const McfResult cold = solve_certified(ctx, commodities, cold_options);
        EXPECT_EQ(warm.solved, cold.solved);
        EXPECT_EQ(warm.feasible, cold.feasible);
        EXPECT_EQ(warm.objective, cold.objective); // bitwise: same cold code path
        EXPECT_EQ(warm.flows, cold.flows);
    }
    EXPECT_EQ(solver.stats().pool_seeded, 0u);
}

TEST(McfWarm, EmptyCommoditySetTriviallyFeasible) {
    const auto topo = noc::Topology::mesh(2, 2, 10.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    McfOptions opt;
    opt.warm_start = true;
    McfSolver solver(ctx, opt);
    const McfResult r = solver.solve({});
    EXPECT_TRUE(r.solved);
    EXPECT_TRUE(r.feasible);
    EXPECT_DOUBLE_EQ(noc::max_load(r.loads), 0.0);
}

TEST(McfWarm, CommodityCountChangeKeepsAgreeingWithCold) {
    const auto topo = noc::Topology::mesh(3, 3, 100.0);
    const auto ctx = noc::EvalContext::borrow(topo);
    McfOptions opt;
    opt.objective = McfObjective::MinFlow;
    opt.use_exact_lp = true;
    opt.warm_start = true;
    McfSolver solver(ctx, opt);
    util::Rng rng(5);
    SwapChain big(topo, 4, rng);
    SwapChain small(topo, 3, rng);
    expect_agrees_with_cold(ctx, big.commodities(), opt, solver.solve(big.commodities()),
                            1e-6);
    expect_agrees_with_cold(ctx, small.commodities(), opt,
                            solver.solve(small.commodities()), 1e-6);
    expect_agrees_with_cold(ctx, big.commodities(), opt, solver.solve(big.commodities()),
                            1e-6);
    // The pool is keyed by endpoint pair, not by commodity slot: the third
    // solve reuses the first one's paths despite the count change between.
    EXPECT_GT(solver.stats().pool_seeded, 0u);
}

} // namespace
} // namespace nocmap::lp
