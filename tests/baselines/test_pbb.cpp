#include "baselines/pbb.hpp"

#include <gtest/gtest.h>

#include "baselines/gmap.hpp"

#include <algorithm>
#include <numeric>

#include "apps/registry.hpp"
#include "graph/random_graph.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"

namespace nocmap::baselines {
namespace {

/// Exhaustive optimum over all |U|! complete assignments (tiny cases only).
double brute_force_cost(const graph::CoreGraph& g, const noc::Topology& topo) {
    std::vector<noc::TileId> tiles(topo.tile_count());
    std::iota(tiles.begin(), tiles.end(), 0);
    std::vector<noc::TileId> perm(tiles.begin(), tiles.begin() +
                                                     static_cast<std::ptrdiff_t>(g.node_count()));
    double best = std::numeric_limits<double>::infinity();
    std::vector<noc::TileId> chosen;
    // Enumerate ordered selections of g.node_count() tiles via permutations
    // of the full tile list (first k entries used).
    std::sort(tiles.begin(), tiles.end());
    do {
        double cost = 0.0;
        for (const graph::CoreEdge& e : g.edges())
            cost += e.bandwidth *
                    static_cast<double>(topo.distance(tiles[static_cast<std::size_t>(e.src)],
                                                      tiles[static_cast<std::size_t>(e.dst)]));
        best = std::min(best, cost);
    } while (std::next_permutation(tiles.begin(), tiles.end()));
    (void)perm;
    (void)chosen;
    return best;
}

TEST(Pbb, ExactOnTinyInstance) {
    // 4 cores on a 2x2 mesh: uncapped PBB must equal the brute-force optimum.
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_node("c");
    g.add_node("d");
    g.add_edge("a", "b", 100);
    g.add_edge("b", "c", 50);
    g.add_edge("c", "d", 80);
    g.add_edge("d", "a", 20);
    const auto topo = noc::Topology::mesh(2, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    PbbOptions opt;
    opt.queue_capacity = 0;
    opt.max_expansions = 0;
    PbbStats stats;
    const auto result = pbb_map(g, ctx, opt, &stats);
    EXPECT_TRUE(stats.exhausted);
    EXPECT_NEAR(result.comm_cost, brute_force_cost(g, topo), 1e-9);
}

TEST(Pbb, ExactOnDspSixCores) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    PbbOptions opt;
    opt.queue_capacity = 0;
    opt.max_expansions = 0;
    PbbStats stats;
    const auto result = pbb_map(g, ctx, opt, &stats);
    EXPECT_TRUE(stats.exhausted);
    EXPECT_NEAR(result.comm_cost, brute_force_cost(g, topo), 1e-9);
}

TEST(Pbb, CappedQueueNeverBeatsExact) {
    const auto g = apps::make_application("dsp");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 2, 1e9));
    PbbOptions exact;
    exact.queue_capacity = 0;
    const auto opt = pbb_map(g, ctx, exact);
    PbbOptions capped;
    capped.queue_capacity = 8;
    const auto partial = pbb_map(g, ctx, capped);
    EXPECT_GE(partial.comm_cost, opt.comm_cost - 1e-9);
    EXPECT_TRUE(partial.mapping.is_complete());
}

TEST(Pbb, NeverWorseThanItsGreedyIncumbent) {
    const auto g = apps::make_application("vopd");
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    PbbOptions opt;
    opt.queue_capacity = 2000;
    opt.max_expansions = 20000;
    const auto pbb = pbb_map(g, ctx, opt);
    const auto greedy_cost = noc::communication_cost(
        topo, noc::build_commodities(g, gmap_placement(g, ctx)));
    EXPECT_LE(pbb.comm_cost, greedy_cost + 1e-9);
}

TEST(Pbb, StatsArePopulated) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 2, 1e9));
    PbbStats stats;
    PbbOptions opt;
    opt.queue_capacity = 64;
    opt.max_expansions = 3000;
    pbb_map(g, ctx, opt, &stats);
    EXPECT_GT(stats.expansions, 0u);
    EXPECT_GT(stats.generated, stats.expansions);
}

TEST(Pbb, RespectsExpansionBudget) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = 25;
    cfg.seed = 4;
    const auto g = generate_random_core_graph(cfg);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(25, 1e9));
    PbbStats stats;
    PbbOptions opt;
    opt.queue_capacity = 512;
    opt.max_expansions = 500;
    const auto result = pbb_map(g, ctx, opt, &stats);
    EXPECT_LE(stats.expansions, 500u);
    EXPECT_TRUE(result.mapping.is_complete()); // incumbent always complete
}

TEST(Pbb, Deterministic) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 2, 1e9));
    PbbOptions opt;
    opt.queue_capacity = 128;
    opt.max_expansions = 2000;
    const auto a = pbb_map(g, ctx, opt);
    const auto b = pbb_map(g, ctx, opt);
    EXPECT_EQ(a.mapping, b.mapping);
}

TEST(Pbb, CancelStopsBeforeTheNextExpansion) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    PbbOptions opt;
    std::size_t polls = 0;
    opt.cancel = [&] { return ++polls > 5; };
    PbbStats stats;
    const auto result = pbb_map(g, ctx, opt, &stats);
    EXPECT_EQ(stats.expansions, 5u);
    EXPECT_EQ(polls, 6u);
    EXPECT_FALSE(stats.exhausted);
    EXPECT_TRUE(result.mapping.is_complete()); // the greedy incumbent at worst
}

TEST(Pbb, CancelThatNeverFiresChangesNothing) {
    const auto g = apps::make_application("mpeg4");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    PbbOptions plain;
    plain.queue_capacity = 256;
    PbbOptions polled = plain;
    std::size_t polls = 0;
    polled.cancel = [&] {
        ++polls;
        return false;
    };
    PbbStats plain_stats, polled_stats;
    const auto a = pbb_map(g, ctx, plain, &plain_stats);
    const auto b = pbb_map(g, ctx, polled, &polled_stats);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_EQ(a.comm_cost, b.comm_cost);
    EXPECT_EQ(plain_stats.expansions, polled_stats.expansions);
    EXPECT_EQ(plain_stats.generated, polled_stats.generated);
    EXPECT_EQ(plain_stats.dropped_by_capacity, polled_stats.dropped_by_capacity);
    EXPECT_EQ(polls, polled_stats.expansions); // one poll per expansion
}

} // namespace
} // namespace nocmap::baselines
