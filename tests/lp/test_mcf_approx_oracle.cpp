// Differential test: the Frank–Wolfe kernel against the dense Frank–Wolfe
// oracle on seeded random instances. The kernel reuses unchanged shortest
// paths and touches only each commodity's flow support; neither may change
// a single bit of the flows, loads, objective or verdict. Every objective,
// both routing modes, four fabric kinds and four capacity regimes (the
// overloaded one makes the link costs move between iterations) are
// covered, one-shot and through an McfSolver whose workspace is carried
// from solve to solve.

#include <gtest/gtest.h>

#include <string>

#include "fw_mcf_oracle.hpp"
#include "lp/mcf_approx.hpp"
#include "noc/eval_context.hpp"
#include "random_mcf_instances.hpp"

namespace nocmap::lp {
namespace {

void expect_bit_identical(const McfResult& kernel, const McfResult& oracle) {
    EXPECT_EQ(kernel.solved, oracle.solved);
    EXPECT_EQ(kernel.feasible, oracle.feasible);
    EXPECT_EQ(kernel.objective, oracle.objective);
    EXPECT_EQ(kernel.loads, oracle.loads);
    EXPECT_EQ(kernel.flows, oracle.flows);
}

std::string label_of(const McfOptions& options) {
    static const char* const kObjectives[] = {"MinSlack", "MinFlow", "MinMaxLoad"};
    return std::string(kObjectives[static_cast<int>(options.objective)]) +
           (options.quadrant_restricted ? " quadrant" : " all-paths") + " iterations " +
           std::to_string(options.approx_iterations);
}

class McfApproxOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McfApproxOracle, KernelMatchesDenseIterationBitForBit) {
    const std::uint64_t seed = GetParam();
    util::Rng rng(seed * 6151 + 29);
    const auto regime = static_cast<Capacity>(seed % 4);
    // One workspace across every fabric, mode and objective: switching
    // topology or routing mode must not leak a stale graph, mask or path.
    ApproxWorkspace shared;
    for (const Fabric& fabric : kFabrics) {
        const std::size_t tiles = fabric.make(1.0).tile_count();
        auto commodities = random_commodities(tiles, 3 + rng.next_below(10), rng);
        const noc::Topology topo = fabric.make(regime_capacity(regime, commodities));
        const auto ctx = noc::EvalContext::borrow(topo);
        for (const bool quadrant : {false, true})
            for (const McfObjective objective :
                 {McfObjective::MinSlack, McfObjective::MinFlow, McfObjective::MinMaxLoad}) {
                McfOptions options;
                options.objective = objective;
                options.quadrant_restricted = quadrant;
                options.use_exact_lp = false;
                options.approx_iterations = seed % 2 == 0 ? 48 : 32;
                SCOPED_TRACE(std::string(fabric.name) + " seed " + std::to_string(seed) +
                             " " + label_of(options));
                const McfResult oracle = solve_mcf_fw_oracle(topo, commodities, options);
                expect_bit_identical(solve_mcf_approx(topo, commodities, options), oracle);
                expect_bit_identical(solve_mcf(ctx, commodities, options), oracle);
                expect_bit_identical(solve_mcf_approx(ctx, commodities, options, &shared),
                                     oracle);
            }
    }
}

TEST_P(McfApproxOracle, CarriedWorkspaceMatchesDenseIterationBitForBit) {
    // A swap chain through one McfSolver per program: the workspace keeps
    // its buffers, quadrant masks and paths from the previous candidate,
    // and the commodity count changes midway.
    const std::uint64_t seed = GetParam();
    util::Rng rng(seed * 4099 + 3);
    const auto regime = static_cast<Capacity>(seed % 4);
    const Fabric& fabric = kFabrics[seed % std::size(kFabrics)];
    const std::size_t tiles = fabric.make(1.0).tile_count();
    auto commodities = random_commodities(tiles, 4 + rng.next_below(8), rng);
    const noc::Topology topo = fabric.make(regime_capacity(regime, commodities));
    const auto ctx = noc::EvalContext::borrow(topo);
    for (const bool quadrant : {false, true})
        for (const McfObjective objective :
             {McfObjective::MinSlack, McfObjective::MinFlow, McfObjective::MinMaxLoad}) {
            McfOptions options;
            options.objective = objective;
            options.quadrant_restricted = quadrant;
            options.use_exact_lp = false;
            options.approx_iterations = 32;
            McfSolver solver(ctx, options);
            auto chain = commodities;
            for (int step = 0; step < 6; ++step) {
                SCOPED_TRACE(std::string(fabric.name) + " seed " + std::to_string(seed) +
                             " " + label_of(options) + " step " + std::to_string(step));
                expect_bit_identical(solver.solve(chain),
                                     solve_mcf_fw_oracle(topo, chain, options));
                // Move one endpoint, as a swap does; drop a commodity at step 3.
                auto& moved = chain[rng.next_below(chain.size())];
                do {
                    moved.dst_tile = static_cast<noc::TileId>(rng.next_below(tiles));
                } while (moved.dst_tile == moved.src_tile);
                if (step == 3 && chain.size() > 1) chain.pop_back();
            }
        }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McfApproxOracle, ::testing::Range<std::uint64_t>(1, 13));

} // namespace
} // namespace nocmap::lp
