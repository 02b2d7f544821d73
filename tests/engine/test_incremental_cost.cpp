#include "engine/incremental_cost.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "graph/random_graph.hpp"
#include "nmap/initialize.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"
#include "util/rng.hpp"

namespace nocmap::engine {
namespace {

/// Property test: on random graphs, ~200 random committed swaps, the
/// incremental delta must match a full commodity rebuild + Eq.7 re-sum, and
/// the maintained commodity set must stay identical to build_commodities.
TEST(IncrementalEvaluator, DeltasMatchFullRecomputationOnRandomGraphs) {
    for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
        graph::RandomGraphConfig cfg;
        cfg.core_count = 24;
        cfg.seed = seed;
        const auto g = generate_random_core_graph(cfg);
        const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
        const auto ctx = noc::EvalContext::borrow(topo);
        IncrementalEvaluator eval(g, ctx, nmap::initial_mapping(g, topo));

        util::Rng rng(seed * 1000 + 5);
        for (int step = 0; step < 200; ++step) {
            const auto a = static_cast<noc::TileId>(rng.next_below(topo.tile_count()));
            const auto b = static_cast<noc::TileId>(rng.next_below(topo.tile_count()));
            if (a == b) continue;

            const double before = noc::communication_cost(
                topo, noc::build_commodities(g, eval.mapping()));
            const double delta = eval.swap_delta(a, b);

            noc::Mapping swapped = eval.mapping();
            swapped.swap_tiles(a, b);
            const double after =
                noc::communication_cost(topo, noc::build_commodities(g, swapped));
            EXPECT_NEAR(delta, after - before, 1e-9 * (1.0 + std::abs(before)))
                << "seed " << seed << " step " << step;

            eval.commit_swap(a, b);
            EXPECT_EQ(eval.mapping(), swapped);
            // Running cost and maintained commodities track the truth.
            EXPECT_NEAR(eval.cost(), after, 1e-6 * (1.0 + std::abs(after)));
            const auto rebuilt = noc::build_commodities(g, eval.mapping());
            ASSERT_EQ(eval.commodities().size(), rebuilt.size());
            for (std::size_t k = 0; k < rebuilt.size(); ++k) {
                EXPECT_EQ(eval.commodities()[k].src_tile, rebuilt[k].src_tile);
                EXPECT_EQ(eval.commodities()[k].dst_tile, rebuilt[k].dst_tile);
                EXPECT_DOUBLE_EQ(eval.commodities()[k].value, rebuilt[k].value);
            }
        }
    }
}

TEST(IncrementalEvaluator, HandlesSwapsWithEmptyTiles) {
    // 6 cores on a 3x3 mesh: three tiles are empty; swapping a core onto an
    // empty tile (and two empty tiles, a no-op) must stay consistent.
    graph::RandomGraphConfig cfg;
    cfg.core_count = 6;
    cfg.seed = 3;
    const auto g = generate_random_core_graph(cfg);
    const auto topo = noc::Topology::mesh(3, 3, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    IncrementalEvaluator eval(g, ctx, nmap::initial_mapping(g, topo));

    util::Rng rng(99);
    for (int step = 0; step < 100; ++step) {
        const auto a = static_cast<noc::TileId>(rng.next_below(topo.tile_count()));
        const auto b = static_cast<noc::TileId>(rng.next_below(topo.tile_count()));
        if (a == b) continue;
        noc::Mapping swapped = eval.mapping();
        swapped.swap_tiles(a, b);
        const double expected =
            noc::communication_cost(topo, noc::build_commodities(g, swapped)) -
            noc::communication_cost(topo, noc::build_commodities(g, eval.mapping()));
        EXPECT_NEAR(eval.swap_delta(a, b), expected, 1e-9);
        eval.commit_swap(a, b);
    }
    EXPECT_NEAR(eval.cost(),
                noc::communication_cost(topo, noc::build_commodities(g, eval.mapping())),
                1e-6);
}

TEST(IncrementalEvaluator, SwapDeltaOfTwoEmptyTilesIsZero) {
    graph::CoreGraph g;
    g.add_node("a");
    g.add_node("b");
    g.add_edge("a", "b", 64.0);
    const auto topo = noc::Topology::mesh(2, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    IncrementalEvaluator eval(g, ctx, nmap::initial_mapping(g, topo));
    // Find the two unoccupied tiles.
    std::vector<noc::TileId> empty;
    for (std::size_t t = 0; t < topo.tile_count(); ++t)
        if (!eval.mapping().is_occupied(static_cast<noc::TileId>(t)))
            empty.push_back(static_cast<noc::TileId>(t));
    ASSERT_EQ(empty.size(), 2u);
    EXPECT_DOUBLE_EQ(eval.swap_delta(empty[0], empty[1]), 0.0);
}

TEST(IncrementalEvaluator, RebaseResyncsToNewMapping) {
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    IncrementalEvaluator eval(g, ctx, nmap::initial_mapping(g, topo));
    noc::Mapping other = nmap::initial_mapping(g, topo);
    other.swap_tiles(0, 5);
    eval.rebase(other);
    EXPECT_EQ(eval.mapping(), other);
    EXPECT_DOUBLE_EQ(eval.cost(),
                     noc::communication_cost(topo, noc::build_commodities(g, other)));
}

TEST(IncrementalEvaluator, RejectsIncompleteMapping) {
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::mesh(4, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    noc::Mapping incomplete(g.node_count(), topo.tile_count());
    EXPECT_THROW(IncrementalEvaluator(g, ctx, incomplete), std::invalid_argument);
}

} // namespace
} // namespace nocmap::engine
