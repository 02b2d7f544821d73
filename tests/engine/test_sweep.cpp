#include "engine/sweep.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "graph/random_graph.hpp"
#include "nmap/initialize.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"

namespace nocmap::engine {
namespace {

nmap::SinglePathOptions with(nmap::SweepEval eval, std::size_t threads,
                             std::size_t sweeps = 1) {
    nmap::SinglePathOptions opt;
    opt.eval = eval;
    opt.threads = threads;
    opt.max_sweeps = sweeps;
    return opt;
}

/// The incremental sweep prunes with Eq.7 deltas and re-routes only
/// acceptable candidates; it must return exactly the mapping of the naive
/// (route-everything) sweep.
TEST(SwapSweep, IncrementalMatchesNaiveOnApps) {
    for (const char* app : {"vopd", "mpeg4", "pip", "dsd"}) {
        const auto g = apps::make_application(app);
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
        const auto naive =
            nmap::map_with_single_path(g, ctx, with(nmap::SweepEval::Naive, 1));
        const auto incremental =
            nmap::map_with_single_path(g, ctx, with(nmap::SweepEval::Incremental, 1));
        EXPECT_EQ(naive.mapping, incremental.mapping) << app;
        EXPECT_DOUBLE_EQ(naive.comm_cost, incremental.comm_cost) << app;
    }
}

TEST(SwapSweep, IncrementalMatchesNaiveUnderTightCapacities) {
    // Feasibility-constrained search exercises the infeasible-phase path
    // (full evaluation, max-load tie-breaking).
    const auto g = apps::make_application("pip");
    auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto unconstrained = nmap::map_with_single_path(g, ctx);
    topo.set_uniform_capacity(noc::max_load(unconstrained.loads) * 1.05);
    const auto naive = nmap::map_with_single_path(g, ctx, with(nmap::SweepEval::Naive, 1));
    const auto incremental =
        nmap::map_with_single_path(g, ctx, with(nmap::SweepEval::Incremental, 1));
    EXPECT_EQ(naive.mapping, incremental.mapping);
    EXPECT_EQ(naive.feasible, incremental.feasible);
}

/// The parallel sweep scores one row's candidates concurrently and reduces
/// lowest-index-first: any thread count returns the serial sweep's mapping.
TEST(SwapSweep, ParallelSweepMatchesSerialSweep) {
    for (const char* app : {"vopd", "mpeg4", "pip"}) {
        const auto g = apps::make_application(app);
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
        const auto serial =
            nmap::map_with_single_path(g, ctx, with(nmap::SweepEval::Incremental, 1, 3));
        for (const std::size_t threads : {2u, 4u, 0u}) {
            const auto parallel = nmap::map_with_single_path(
                g, ctx, with(nmap::SweepEval::Incremental, threads, 3));
            EXPECT_EQ(serial.mapping, parallel.mapping) << app << " threads=" << threads;
            EXPECT_DOUBLE_EQ(serial.comm_cost, parallel.comm_cost)
                << app << " threads=" << threads;
        }
    }
}

TEST(SwapSweep, ParallelSweepMatchesSerialOnRandomGraph) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = 30;
    cfg.seed = 11;
    const auto g = generate_random_core_graph(cfg);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    const auto serial =
        nmap::map_with_single_path(g, ctx, with(nmap::SweepEval::Incremental, 1));
    const auto parallel =
        nmap::map_with_single_path(g, ctx, with(nmap::SweepEval::Incremental, 4));
    EXPECT_EQ(serial.mapping, parallel.mapping);
    EXPECT_DOUBLE_EQ(serial.comm_cost, parallel.comm_cost);
}

struct SweepCase {
    graph::CoreGraph graph;
    noc::Topology topo;
};

std::vector<SweepCase> sweep_cases() {
    std::vector<SweepCase> cases;
    // Full fabric: every tile occupied.
    cases.push_back({apps::make_application("vopd"), noc::Topology::mesh(4, 4, 1e9)});
    // Sparse fabric: 6 cores on 9 tiles, so mid-row commits change which
    // (core, empty-tile) relocation moves exist.
    graph::RandomGraphConfig cfg;
    cfg.core_count = 6;
    cfg.seed = 5;
    cases.push_back({generate_random_core_graph(cfg), noc::Topology::mesh(3, 3, 1e9)});
    return cases;
}

TEST(SwapSweep, FirstImprovementAcceptanceStillImproves) {
    // Drive the generic driver directly with a trivial Eq.7 policy.
    class Eq7Policy final : public SweepPolicy {
    public:
        Eq7Policy(const graph::CoreGraph& g, const noc::Topology& t) : g_(g), t_(t) {}
        Score evaluate(const noc::Mapping& m) override {
            count_evaluation();
            return {noc::communication_cost(t_, noc::build_commodities(g_, m)), 0.0, true};
        }
        Score evaluate_swap(const noc::Mapping& base, const Score&, const Score&,
                            noc::TileId a, noc::TileId b) override {
            noc::Mapping candidate = base;
            candidate.swap_tiles(a, b);
            return evaluate(candidate);
        }
        bool parallel_safe() const override { return true; }

    private:
        const graph::CoreGraph& g_;
        const noc::Topology& t_;
    };

    for (const SweepCase& c : sweep_cases()) {
        const auto initial = nmap::initial_mapping(c.graph, c.topo);
        const double init_cost =
            noc::communication_cost(c.topo, noc::build_commodities(c.graph, initial));
        for (const Acceptance acceptance :
             {Acceptance::Greedy, Acceptance::FirstImprovement}) {
            // threads > 1 with FirstImprovement must serialize (scores
            // computed against the row-start mapping cannot be committed
            // onto a re-based one), so the reported score must always
            // describe the returned mapping.
            for (const std::size_t threads : {1u, 4u}) {
                Eq7Policy policy(c.graph, c.topo);
                SweepOptions options;
                options.acceptance = acceptance;
                options.threads = threads;
                const SweepOutcome outcome = SwapSweepDriver(options).sweep(initial, policy);
                EXPECT_TRUE(outcome.best.is_complete());
                EXPECT_NO_THROW(outcome.best.validate());
                EXPECT_LE(outcome.best_score.primary, init_cost + 1e-9);
                EXPECT_DOUBLE_EQ(outcome.best_score.primary,
                                 noc::communication_cost(
                                     c.topo, noc::build_commodities(c.graph, outcome.best)));
                EXPECT_GT(policy.evaluations(), 10u);
            }
        }
    }
}

TEST(SwapSweep, PolicyExceptionPropagatesFromParallelScoring) {
    // A throwing policy must surface its exception to the caller (the CLI
    // reports it via catch in main), not std::terminate the process.
    class ThrowingPolicy final : public SweepPolicy {
    public:
        Score evaluate(const noc::Mapping&) override { return {1.0, 0.0, true}; }
        Score evaluate_swap(const noc::Mapping&, const Score&, const Score&, noc::TileId,
                            noc::TileId) override {
            throw std::runtime_error("policy failure");
        }
        bool parallel_safe() const override { return true; }
    };

    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto initial = nmap::initial_mapping(g, topo);
    for (const std::size_t threads : {1u, 4u}) {
        ThrowingPolicy policy;
        SweepOptions options;
        options.threads = threads;
        EXPECT_THROW(SwapSweepDriver(options).sweep(initial, policy), std::runtime_error)
            << "threads=" << threads;
    }
}

TEST(SwapSweep, AnnealIsDeterministicForFixedSeed) {
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    AnnealOptions options;
    options.seed = 17;
    const AnnealOutcome a = anneal(g, ctx, initial, options);
    const AnnealOutcome b = anneal(g, ctx, initial, options);
    EXPECT_EQ(a.best, b.best);
    EXPECT_DOUBLE_EQ(a.best_cost, b.best_cost);
    // The tracked best cost is a real Eq.7 cost of the returned mapping.
    EXPECT_NEAR(a.best_cost,
                noc::communication_cost(topo, noc::build_commodities(g, a.best)), 1e-6);
}

} // namespace
} // namespace nocmap::engine
