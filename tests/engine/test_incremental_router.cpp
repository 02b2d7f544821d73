#include "engine/incremental_router.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "engine/sweep.hpp"
#include "graph/random_graph.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"
#include "noc/evaluation.hpp"
#include "util/rng.hpp"

namespace nocmap::engine {
namespace {

graph::CoreGraph random_graph(std::size_t cores, std::uint64_t seed) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = cores;
    cfg.seed = seed;
    return generate_random_core_graph(cfg);
}

/// A valid random swap: at least one tile occupied (the sweep never
/// proposes empty-empty swaps, and the router treats them as mapping-only).
std::pair<noc::TileId, noc::TileId> random_swap(util::Rng& rng, const noc::Mapping& m) {
    while (true) {
        const auto a = static_cast<noc::TileId>(rng.next_below(m.tile_count()));
        const auto b = static_cast<noc::TileId>(rng.next_below(m.tile_count()));
        if (a == b) continue;
        if (!m.is_occupied(a) && !m.is_occupied(b)) continue;
        return {a, b};
    }
}

void expect_matches_full_reroute(const IncrementalRouter& router,
                                 const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                 const char* what) {
    const nmap::SinglePathRouting full = nmap::evaluate_mapping(graph, ctx, router.mapping());
    EXPECT_EQ(router.loads(), full.loads) << what;
    EXPECT_EQ(router.routes(), full.routes) << what;
    EXPECT_EQ(router.feasible(), full.feasible) << what;
    EXPECT_EQ(router.max_load(), full.max_load) << what;
    EXPECT_EQ(router.cost(), full.cost) << what;
}

/// The tentpole property: across random graphs and random swap sequences
/// (with rollbacks interleaved and the audit resync enabled), Exact mode's
/// ledger state — loads, routes, feasibility, max_load, cost — stays
/// bit-identical to a from-scratch evaluate_mapping() at every step, and
/// every pending evaluation predicts the full re-route of the candidate
/// bit-identically too.
TEST(IncrementalRouter, ExactIsBitIdenticalToFullRerouteUnderRandomSwaps) {
    struct Case {
        std::size_t cores;
        std::uint64_t seed;
        double capacity_scale; ///< capacity = initial max load x this
    };
    // Full and sparse fabrics, loose and tight capacities (tight ones keep
    // the search crossing the feasibility boundary).
    const Case cases[] = {{9, 3, 10.0}, {12, 7, 1.05}, {16, 11, 1.3}, {25, 5, 0.95}};
    for (const Case& c : cases) {
        const auto g = random_graph(c.cores, c.seed);
        auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto initial = nmap::initial_mapping(g, topo);
        topo.set_uniform_capacity(
            noc::max_load(nmap::evaluate_mapping(g, ctx, initial).loads) *
            c.capacity_scale);

        RerouteOptions options;
        options.mode = RerouteMode::Exact;
        options.resync_cadence = 7; // frequent audits
        options.audit = true;
        IncrementalRouter router(g, ctx, initial, options);
        expect_matches_full_reroute(router, g, ctx, "after bind");

        util::Rng rng(c.seed * 977 + 1);
        for (int step = 0; step < 60; ++step) {
            const auto [a, b] = random_swap(rng, router.mapping());
            const RerouteEval eval = router.reroute_swap(a, b);
            // The pending score is the full re-route of the candidate.
            noc::Mapping candidate = router.mapping();
            candidate.swap_tiles(a, b);
            const nmap::SinglePathRouting full = nmap::evaluate_mapping(g, ctx, candidate);
            EXPECT_EQ(eval.feasible, full.feasible) << "step " << step;
            EXPECT_EQ(eval.max_load, full.max_load) << "step " << step;
            EXPECT_EQ(eval.cost, full.cost) << "step " << step;
            if (step % 3 == 2) {
                router.rollback(); // rollbacks must leave the state untouched
            } else {
                ASSERT_NO_THROW(router.commit()) << "audit diverged at step " << step;
            }
            expect_matches_full_reroute(router, g, ctx, "after step");
        }
        EXPECT_GT(router.commit_count(), 30u);
    }
}

TEST(IncrementalRouter, RebaseTakesTheSwapShortcutAndStaysExact) {
    const auto g = random_graph(12, 19);
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    IncrementalRouter router(g, ctx, initial);
    const std::size_t full_before = router.full_reroute_count();

    // One swap away: must go through the O(deg) path, no full re-route.
    noc::Mapping swapped = initial;
    swapped.swap_tiles(0, 5);
    router.rebase(swapped);
    EXPECT_EQ(router.full_reroute_count(), full_before);
    EXPECT_EQ(router.mapping(), swapped);
    expect_matches_full_reroute(router, g, ctx, "rebase via swap");

    // Far away (three tiles rotated): needs the from-scratch path.
    noc::Mapping rotated = swapped;
    rotated.swap_tiles(1, 2);
    rotated.swap_tiles(2, 3);
    router.rebase(rotated);
    EXPECT_GT(router.full_reroute_count(), full_before);
    EXPECT_EQ(router.mapping(), rotated);
    expect_matches_full_reroute(router, g, ctx, "rebase via rebind");
}

TEST(IncrementalRouter, RejectsMisuse) {
    const auto g = random_graph(8, 2);
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    IncrementalRouter router(g, ctx, nmap::initial_mapping(g, topo));
    EXPECT_THROW(router.commit(), std::logic_error);
    router.reroute_swap(0, 1);
    EXPECT_THROW(router.reroute_swap(1, 2), std::logic_error);
    router.rollback();
    EXPECT_THROW(router.commit(), std::logic_error);
}

/// Fast mode's contract: its loads always describe its own routes, its
/// feasibility verdict matches its own loads, and — thanks to the full
/// re-route confirmation — it never calls a candidate infeasible that the
/// sequential router would accept.
TEST(IncrementalRouter, FastModeInvariants) {
    const auto g = random_graph(16, 23);
    auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    topo.set_uniform_capacity(
        noc::max_load(nmap::evaluate_mapping(g, ctx, initial).loads) * 1.02);

    RerouteOptions options;
    options.mode = RerouteMode::Fast;
    IncrementalRouter router(g, ctx, initial, options);
    util::Rng rng(99);
    for (int step = 0; step < 80; ++step) {
        const auto [a, b] = random_swap(rng, router.mapping());
        const RerouteEval eval = router.reroute_swap(a, b);
        if (!eval.feasible) {
            noc::Mapping candidate = router.mapping();
            candidate.swap_tiles(a, b);
            EXPECT_FALSE(nmap::evaluate_mapping(g, ctx, candidate).feasible)
                << "fast mode reported infeasible where the full re-route is feasible";
        }
        if (step % 2 == 0)
            router.commit();
        else
            router.rollback();

        // Loads are exactly the accumulation of the router's own routes.
        const noc::LinkLoads recounted =
            noc::accumulate_loads(topo, router.commodities(), router.routes());
        ASSERT_EQ(recounted.size(), router.loads().size());
        for (std::size_t l = 0; l < recounted.size(); ++l)
            EXPECT_NEAR(router.loads()[l], recounted[l], 1e-9) << "link " << l;
        EXPECT_EQ(router.feasible(), noc::satisfies_bandwidth(topo, router.loads()));
    }
}

nmap::SinglePathOptions with_eval(nmap::SweepEval eval, std::size_t threads = 1,
                                  std::size_t sweeps = 1) {
    nmap::SinglePathOptions opt;
    opt.eval = eval;
    opt.threads = threads;
    opt.max_sweeps = sweeps;
    return opt;
}

/// Sweep-level acceptance: the default LedgerExact mode returns exactly the
/// naive (route-everything) mapper's result, serial and parallel, across
/// resync cadences.
TEST(IncrementalRouter, LedgerExactSweepMatchesNaiveSweep) {
    for (const char* app : {"vopd", "mpeg4", "pip", "dsd"}) {
        const auto g = apps::make_application(app);
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
        const auto naive =
            nmap::map_with_single_path(g, ctx, with_eval(nmap::SweepEval::Naive));
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            auto opt = with_eval(nmap::SweepEval::LedgerExact, threads);
            opt.reroute.audit = true;
            opt.reroute.resync_cadence = 5;
            const auto ledger = nmap::map_with_single_path(g, ctx, opt);
            EXPECT_EQ(naive.mapping, ledger.mapping) << app << " threads=" << threads;
            EXPECT_DOUBLE_EQ(naive.comm_cost, ledger.comm_cost) << app;
            EXPECT_EQ(naive.loads, ledger.loads) << app;
        }
        // Cadence 0 (never resync) must change nothing either.
        auto no_resync = with_eval(nmap::SweepEval::LedgerExact);
        no_resync.reroute.resync_cadence = 0;
        EXPECT_EQ(naive.mapping, nmap::map_with_single_path(g, ctx, no_resync).mapping)
            << app;
    }
}

TEST(IncrementalRouter, LedgerExactSweepMatchesNaiveUnderTightCapacities) {
    const auto g = apps::make_application("pip");
    auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto unconstrained = nmap::map_with_single_path(g, ctx);
    topo.set_uniform_capacity(noc::max_load(unconstrained.loads) * 1.05);
    const auto naive = nmap::map_with_single_path(g, ctx, with_eval(nmap::SweepEval::Naive));
    auto opt = with_eval(nmap::SweepEval::LedgerExact);
    opt.reroute.audit = true;
    opt.reroute.resync_cadence = 3;
    const auto ledger = nmap::map_with_single_path(g, ctx, opt);
    EXPECT_EQ(naive.mapping, ledger.mapping);
    EXPECT_EQ(naive.feasible, ledger.feasible);
    EXPECT_EQ(naive.loads, ledger.loads);
}

TEST(IncrementalRouter, LedgerExactMultiSweepParallelMatchesSerial) {
    const auto g = random_graph(30, 11);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    const auto serial =
        nmap::map_with_single_path(g, ctx, with_eval(nmap::SweepEval::LedgerExact, 1, 3));
    for (const std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
        const auto parallel = nmap::map_with_single_path(
            g, ctx, with_eval(nmap::SweepEval::LedgerExact, threads, 3));
        EXPECT_EQ(serial.mapping, parallel.mapping) << "threads=" << threads;
        EXPECT_DOUBLE_EQ(serial.comm_cost, parallel.comm_cost);
    }
}

/// Fast mode is a different heuristic, so only soundness is asserted: a
/// complete, valid mapping whose reported score comes from the final full
/// re-route, and parallel == serial determinism.
TEST(IncrementalRouter, LedgerFastSweepIsSoundAndDeterministic) {
    for (const char* app : {"vopd", "pip"}) {
        const auto g = apps::make_application(app);
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
        const auto serial =
            nmap::map_with_single_path(g, ctx, with_eval(nmap::SweepEval::LedgerFast));
        EXPECT_TRUE(serial.mapping.is_complete());
        EXPECT_NO_THROW(serial.mapping.validate());
        const auto rescored = nmap::evaluate_mapping(g, ctx, serial.mapping);
        EXPECT_EQ(serial.feasible, rescored.feasible) << app;
        EXPECT_DOUBLE_EQ(serial.comm_cost, rescored.cost) << app;
        const auto parallel =
            nmap::map_with_single_path(g, ctx, with_eval(nmap::SweepEval::LedgerFast, 4));
        EXPECT_EQ(serial.mapping, parallel.mapping) << app;
    }
}

TEST(IncrementalRouter, BandwidthAwareAnnealMatchesPlainWhenCapacityIsAmple) {
    // With ample capacity no move is ever rejected for feasibility, so the
    // bandwidth-aware walk consumes the identical random stream and must
    // return the identical mapping.
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    AnnealOptions options;
    options.seed = 17;
    const AnnealOutcome plain = anneal(g, ctx, initial, options);
    options.bandwidth_aware = true;
    const AnnealOutcome aware = anneal(g, ctx, initial, options);
    EXPECT_EQ(plain.best, aware.best);
    EXPECT_DOUBLE_EQ(plain.best_cost, aware.best_cost);
    EXPECT_TRUE(aware.best_feasible);
}

TEST(IncrementalRouter, BandwidthAwareAnnealStaysFeasibleUnderTightCapacity) {
    const auto g = apps::make_application("pip");
    auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto initial = nmap::initial_mapping(g, topo);
    topo.set_uniform_capacity(
        noc::max_load(nmap::evaluate_mapping(g, ctx, initial).loads) * 1.1);
    AnnealOptions options;
    options.seed = 5;
    options.bandwidth_aware = true;
    const AnnealOutcome a = anneal(g, ctx, initial, options);
    const AnnealOutcome b = anneal(g, ctx, initial, options);
    EXPECT_EQ(a.best, b.best) << "bandwidth-aware walk must stay deterministic";
    // The initial mapping routes feasibly here and the walk refuses to
    // leave the feasible region (by the router's own accounting — fast
    // mode's feasible verdicts may be optimistic vs a full re-route, so
    // nothing stronger is guaranteed), so the best mapping is feasible.
    EXPECT_TRUE(a.best_feasible);
}

TEST(IncrementalRouter, SplitRoutingPrefilterMatchesPlainOnAmpleCapacity) {
    // With ample capacity phase 1 certifies feasibility immediately on both
    // paths (the router trivially, MCF1 with zero slack), so the prefilter
    // must not change any sweep decision.
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 2, 1e9));
    nmap::SplitOptions options;
    options.approx_iterations = 8;
    const auto plain = nmap::map_with_splitting(g, ctx, options);
    options.routing_prefilter = true;
    const auto filtered = nmap::map_with_splitting(g, ctx, options);
    EXPECT_EQ(plain.mapping, filtered.mapping);
    EXPECT_DOUBLE_EQ(plain.comm_cost, filtered.comm_cost);
    EXPECT_EQ(plain.feasible, filtered.feasible);
}

} // namespace
} // namespace nocmap::engine
