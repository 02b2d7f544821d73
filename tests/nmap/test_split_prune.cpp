// The split sweep's Eq.7 prune and its per-candidate cancellation.
//
// Lemma: a mapping's Eq.7 cost (Σ bandwidth × min-hop distance) is a lower
// bound on its MCF2 objective, in both split modes, with both inner
// engines, on mesh, torus and custom fabrics. SplitPolicy rejects a phase-2
// candidate unsolved when that bound reaches a feasible incumbent; the
// sweep-level test audits every such rejection against the solve it skipped.

#include "nmap/split_policy.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "graph/random_graph.hpp"
#include "nmap/initialize.hpp"
#include "noc/commodity.hpp"
#include "util/rng.hpp"

namespace nocmap::nmap {
namespace {

/// One fabric kind at two link capacities: the tighter level forces
/// detours and split flows under the exact engine, the looser one gets
/// Frank–Wolfe answers feasible too (it certifies fewer instances).
struct Fabric {
    std::string name;
    std::vector<noc::Topology> levels;
};

/// A 12-tile bidirectional ring with three chords: BFS distances on an
/// irregular custom fabric.
noc::Topology chorded_ring(double capacity) {
    const std::size_t n = 12;
    std::vector<noc::Link> links;
    const auto both = [&](std::size_t u, std::size_t v) {
        links.push_back({static_cast<noc::TileId>(u), static_cast<noc::TileId>(v), capacity});
        links.push_back({static_cast<noc::TileId>(v), static_cast<noc::TileId>(u), capacity});
    };
    for (std::size_t t = 0; t < n; ++t) both(t, (t + 1) % n);
    both(0, 5);
    both(3, 9);
    both(7, 11);
    return noc::Topology::custom(n, std::move(links));
}

std::vector<Fabric> fabrics() {
    return {{"mesh", {noc::Topology::mesh(4, 3, 500.0), noc::Topology::mesh(4, 3, 700.0)}},
            {"torus", {noc::Topology::torus(4, 3, 400.0), noc::Topology::torus(4, 3, 600.0)}},
            {"custom", {chorded_ring(500.0), chorded_ring(700.0)}}};
}

/// The MCF2 program the split sweep solves per candidate.
lp::McfOptions flow_options(const SplitOptions& options) {
    lp::McfOptions mcf;
    mcf.objective = lp::McfObjective::MinFlow;
    mcf.quadrant_restricted = options.mode == SplitMode::MinPaths;
    mcf.use_exact_lp = options.mcf_engine == McfEngine::Exact;
    mcf.approx_iterations = options.approx_iterations;
    return mcf;
}

TEST(SplitPrune, Eq7CostBoundsEveryFeasibleMcf2Answer) {
    for (const Fabric& fabric : fabrics()) {
        for (const SplitMode mode : {SplitMode::AllPaths, SplitMode::MinPaths}) {
            for (const McfEngine engine : {McfEngine::Approx, McfEngine::Exact}) {
                SplitOptions options;
                options.mode = mode;
                options.mcf_engine = engine;
                const lp::McfOptions mcf = flow_options(options);
                std::size_t feasible = 0;
                std::size_t detoured = 0;
                for (const noc::Topology& topo : fabric.levels) {
                    const noc::EvalContext ctx = noc::EvalContext::borrow(topo);
                    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
                        graph::RandomGraphConfig cfg;
                        cfg.core_count = 10;
                        cfg.seed = seed;
                        const auto g = graph::generate_random_core_graph(cfg);
                        util::Rng rng(seed * 977 + 13);
                        const auto tile = [&] {
                            return static_cast<noc::TileId>(rng.next_below(topo.tile_count()));
                        };
                        noc::Mapping mapping = initial_mapping(g, topo);
                        for (int k = 0; k < 8; ++k) mapping.swap_tiles(tile(), tile());
                        const engine::IncrementalEvaluator eval(g, ctx, mapping);
                        for (int trial = 0; trial < 8; ++trial) {
                            const noc::TileId a = tile();
                            const noc::TileId b = tile();
                            const double bound = eval.cost() + eval.swap_delta(a, b);
                            noc::Mapping candidate = mapping;
                            candidate.swap_tiles(a, b);
                            const lp::McfResult r = lp::solve_mcf(
                                ctx, noc::build_commodities(g, candidate), mcf);
                            if (!r.feasible) continue;
                            ++feasible;
                            if (r.objective > bound + 1e-6) ++detoured;
                            EXPECT_GE(r.objective,
                                      bound - 1e-9 * (1.0 + std::abs(r.objective)))
                                << fabric.name << " capacity " << topo.link(0).capacity
                                << " mode " << static_cast<int>(mode) << " engine "
                                << static_cast<int>(engine) << " seed " << seed << " swap "
                                << a << "," << b;
                        }
                    }
                }
                EXPECT_GT(feasible, 0u) << fabric.name;
                // All-paths flows at these capacities leave minimal paths,
                // so the bound is exercised below the answer, not only at it.
                if (mode == SplitMode::AllPaths) {
                    EXPECT_GT(detoured, 0u) << fabric.name;
                }
            }
        }
    }
}

/// Forwards to a SplitPolicy. Each candidate it rejects against a feasible
/// incumbent (the prune: every solved phase-2 candidate scores feasible) is
/// solved one-shot — the answer the skipped chain solve would have given —
/// and must not beat the incumbent.
class AuditedSplitPolicy final : public engine::SweepPolicy {
public:
    AuditedSplitPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                       const SplitOptions& options)
        : inner_(graph, ctx, options), graph_(graph), ctx_(ctx),
          flow_(flow_options(options)) {}

    engine::Score evaluate(const noc::Mapping& mapping) override {
        return inner_.evaluate(mapping);
    }

    engine::Score evaluate_swap(const noc::Mapping& base, const engine::Score& base_score,
                                const engine::Score& incumbent, noc::TileId a,
                                noc::TileId b) override {
        const engine::Score score = inner_.evaluate_swap(base, base_score, incumbent, a, b);
        if (incumbent.feasible && !score.feasible) {
            ++pruned_;
            noc::Mapping candidate = base;
            candidate.swap_tiles(a, b);
            const lp::McfResult r =
                lp::solve_mcf(ctx_, noc::build_commodities(graph_, candidate), flow_);
            if (r.feasible) {
                EXPECT_GE(r.objective, incumbent.primary) << "swap " << a << "," << b;
            }
        }
        return score;
    }

    void on_commit(const noc::Mapping& best, const engine::Score& score) override {
        inner_.on_commit(best, score);
    }
    void on_rebase(const noc::Mapping& placed, const engine::Score& score) override {
        inner_.on_rebase(placed, score);
    }

    const SplitPolicy& inner() const { return inner_; }
    std::size_t pruned() const { return pruned_; }

private:
    SplitPolicy inner_;
    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
    lp::McfOptions flow_;
    std::size_t pruned_ = 0;
};

TEST(SplitPrune, EveryPrunedCandidateWouldSolveToAtLeastTheIncumbent) {
    struct Case {
        std::string app;
        noc::Topology topo;
    };
    const std::vector<Case> cases = {
        {"vopd", noc::Topology::mesh(4, 4, 400.0)},
        {"vopd", noc::Topology::torus(4, 4, 400.0)},
        {"mpeg4", noc::Topology::mesh(5, 3, 500.0)},
        {"pip", chorded_ring(300.0)},
    };
    std::size_t pruned = 0;
    for (const Case& c : cases) {
        const auto g = apps::make_application(c.app);
        const noc::EvalContext ctx = noc::EvalContext::borrow(c.topo);
        for (const SplitMode mode : {SplitMode::AllPaths, SplitMode::MinPaths}) {
            for (const McfEngine engine : {McfEngine::Approx, McfEngine::Exact}) {
                SplitOptions options;
                options.mode = mode;
                options.mcf_engine = engine;
                AuditedSplitPolicy policy(g, ctx, options);
                const engine::SweepOutcome outcome = engine::SwapSweepDriver().sweep(
                    initial_mapping(g, c.topo), policy);
                const MappingResult mapped = map_with_splitting(g, ctx, options);
                const std::string label =
                    c.app + " " + c.topo.variant() +
                    (mode == SplitMode::AllPaths ? " all-paths" : " min-paths") +
                    (engine == McfEngine::Exact ? " exact" : " approx");
                EXPECT_EQ(outcome.best, mapped.mapping) << label;
                // Sweep evaluations plus the polish: MCF1, then MCF2 if it fits.
                EXPECT_EQ(policy.inner().evaluations() + (mapped.feasible ? 2 : 1),
                          mapped.evaluations)
                    << label;
                pruned += policy.pruned();
            }
        }
    }
    EXPECT_GT(pruned, 0u);
}

TEST(SplitPrune, CancelStopsTheSweepWithinOneSolve) {
    // vopd at 400 MB/s runs both phases (MCF1 until a candidate fits, then
    // MCF2), and the flips below land in each. A callback that reads true
    // from poll `flip_at` on may allow at most one further MCF solve; a
    // poll per row would let the rest of the row solve.
    const auto g = apps::make_application("vopd");
    const noc::Topology topo = noc::Topology::mesh(4, 4, 400.0);
    const noc::EvalContext ctx = noc::EvalContext::borrow(topo);
    bool flipped_in_phase[2] = {false, false};
    for (const std::size_t flip_at : {2u, 7u, 20u, 45u, 70u}) {
        std::size_t polls = 0;
        std::size_t solves_at_flip = 0;
        const SplitPolicy* watched = nullptr;
        SplitOptions options;
        options.cancel = [&] {
            if (++polls == flip_at) solves_at_flip = watched->mcf_solves();
            return polls >= flip_at;
        };
        SplitPolicy policy(g, ctx, options);
        watched = &policy;
        engine::SweepOptions sweep;
        sweep.cancel = options.cancel;
        engine::SwapSweepDriver(sweep).sweep(initial_mapping(g, topo), policy);
        ASSERT_GE(polls, flip_at) << "flip_at " << flip_at;
        EXPECT_LE(policy.mcf_solves(), solves_at_flip + 1) << "flip_at " << flip_at;
        flipped_in_phase[policy.bw_satisfied() ? 1 : 0] = true;
    }
    EXPECT_TRUE(flipped_in_phase[0] && flipped_in_phase[1]);
}

} // namespace
} // namespace nocmap::nmap
