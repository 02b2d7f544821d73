// Differential test: the column-generation engine against the dense
// arc-form oracle on seeded random instances of at most 16 tiles, and on
// the exact polish of every paper app's nmap-split / nmap-tm mapping.
// Objectives must agree within 1e-9 relative and feasibility verdicts must
// be identical; every column-generation answer must carry a certificate
// that verifies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "apps/registry.hpp"
#include "certified_mcf.hpp"
#include "dense_mcf_oracle.hpp"
#include "nmap/split.hpp"
#include "noc/commodity.hpp"
#include "random_mcf_instances.hpp"

namespace nocmap::lp {
namespace {

const char* name_of(McfObjective objective) {
    switch (objective) {
    case McfObjective::MinSlack: return "MinSlack";
    case McfObjective::MinFlow: return "MinFlow";
    case McfObjective::MinMaxLoad: return "MinMaxLoad";
    }
    return "?";
}

/// Runs both engines on one instance and compares verdicts and objectives.
void expect_matches_oracle(const noc::Topology& topo,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options, const std::string& label) {
    SCOPED_TRACE(label + " " + name_of(options.objective) +
                 (options.quadrant_restricted ? " quadrant" : " all-paths"));
    const McfResult dense = solve_mcf_dense(topo, commodities, options);
    const McfResult cg = solve_certified(topo, commodities, options);
    EXPECT_EQ(cg.solved, dense.solved);
    EXPECT_EQ(cg.feasible, dense.feasible);
    if (cg.solved && dense.solved) {
        EXPECT_NEAR(cg.objective, dense.objective,
                    1e-9 * std::max({1.0, std::abs(cg.objective), std::abs(dense.objective)}));
    }
}

class McfOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McfOracle, ColumnGenerationMatchesDenseArcForm) {
    const std::uint64_t seed = GetParam();
    util::Rng rng(seed * 7919 + 13);
    const auto regime = static_cast<Capacity>(seed % 4);
    for (const Fabric& fabric : kFabrics) {
        const std::size_t tiles = fabric.make(1.0).tile_count();
        auto commodities = random_commodities(tiles, 3 + rng.next_below(8), rng);
        const noc::Topology topo = fabric.make(regime_capacity(regime, commodities));
        const std::string label = std::string(fabric.name) + " seed " + std::to_string(seed);
        for (const bool quadrant : {false, true})
            for (const McfObjective objective :
                 {McfObjective::MinSlack, McfObjective::MinFlow, McfObjective::MinMaxLoad}) {
                McfOptions options;
                options.objective = objective;
                options.quadrant_restricted = quadrant;
                expect_matches_oracle(topo, commodities, options, label);
            }
        if (regime == Capacity::Overloaded) {
            McfOptions flow;
            flow.objective = McfObjective::MinFlow;
            const McfResult r = solve_mcf(topo, commodities, flow);
            EXPECT_FALSE(r.feasible) << label;
            EXPECT_TRUE(r.certificate.proves_infeasible) << label;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McfOracle, ::testing::Range<std::uint64_t>(1, 13));

/// The exact polish of every paper app's nmap-split (all paths) and nmap-tm
/// (quadrant) mapping, on the ample mesh the mappers run on and on a mesh
/// whose links carry only 60% of the ample run's peak load.
class PaperPolishOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperPolishOracle, PolishMatchesDenseArcForm) {
    const auto g = apps::make_application(GetParam());
    for (const nmap::SplitMode mode : {nmap::SplitMode::AllPaths, nmap::SplitMode::MinPaths}) {
        const auto ample = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
        const auto ample_ctx = noc::EvalContext::borrow(ample);
        ASSERT_LE(ample.tile_count(), 16u);
        nmap::SplitOptions split;
        split.mode = mode;
        const auto mapped = nmap::map_with_splitting(g, ample_ctx, split);
        const auto commodities = noc::build_commodities(g, mapped.mapping);
        auto tight = ample;
        tight.set_uniform_capacity(0.6 * noc::max_load(mapped.loads));
        const std::string label = std::string(GetParam()) +
                                  (mode == nmap::SplitMode::AllPaths ? " nmap-split"
                                                                     : " nmap-tm");
        for (const noc::Topology* topo : {&ample, static_cast<const noc::Topology*>(&tight)})
            for (const McfObjective objective :
                 {McfObjective::MinSlack, McfObjective::MinFlow, McfObjective::MinMaxLoad}) {
                McfOptions options;
                options.objective = objective;
                options.quadrant_restricted = mode == nmap::SplitMode::MinPaths;
                expect_matches_oracle(*topo, commodities, options, label);
            }
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, PaperPolishOracle,
                         ::testing::Values("vopd", "mpeg4", "mwa", "mwag", "pip", "dsd",
                                           "dsp"));

} // namespace
} // namespace nocmap::lp
