#pragma once
// The congestion-aware quadrant Dijkstra shared by the shortestpath()
// router (nmap/shortest_path_router) and the engine's IncrementalRouter.
//
// Both callers must pick *identical* routes for identical link weights —
// the incremental router's exactness guarantee rests on it — so the search
// lives here once, templated over the weight source: the full router feeds
// a plain load vector, the incremental router feeds on-demand prefix sums
// from its link-load ledger. Tie-breaking is deterministic (the heap orders
// equal-weight entries by tile id).

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "noc/eval_context.hpp"
#include "noc/routing.hpp"

namespace nocmap::noc {

/// Reusable buffers for least_congested_min_path: hot-path callers run one
/// Dijkstra per commodity and per candidate swap, where per-call vector
/// allocation would dominate.
struct MinPathScratch {
    std::vector<double> dist;
    std::vector<LinkId> prev_link;
};

/// Dijkstra restricted to the quadrant of (src, dst), edge weight =
/// weight(link). Returns the link sequence of the least-congested minimal
/// path (empty when src == dst). `weight` is called at most once per
/// directed link per search. Distance and quadrant queries read the
/// context's flat table.
template <typename WeightFn>
Route least_congested_min_path(const EvalContext& ctx, TileId src, TileId dst,
                               WeightFn&& weight, MinPathScratch& scratch) {
    const Topology& topo = ctx.topology();
    const std::size_t n = topo.tile_count();
    scratch.dist.assign(n, std::numeric_limits<double>::infinity());
    scratch.prev_link.assign(n, kInvalidLink);
    using Entry = std::pair<double, TileId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    scratch.dist[static_cast<std::size_t>(src)] = 0.0;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > scratch.dist[static_cast<std::size_t>(u)]) continue;
        if (u == dst) break;
        for (const LinkId l : topo.out_links(u)) {
            const Link& link = topo.link(l);
            // Stay inside the quadrant: both endpoints on a minimal path.
            if (!ctx.in_quadrant(link.dst, src, dst)) continue;
            // Only move *toward* the destination (monotone progress keeps
            // the path minimal even inside the quadrant).
            if (ctx.distance(link.dst, dst) >= ctx.distance(u, dst)) continue;
            const double nd = d + weight(l);
            if (nd < scratch.dist[static_cast<std::size_t>(link.dst)]) {
                scratch.dist[static_cast<std::size_t>(link.dst)] = nd;
                scratch.prev_link[static_cast<std::size_t>(link.dst)] = l;
                heap.emplace(nd, link.dst);
            }
        }
    }
    Route route;
    for (TileId v = dst; v != src;) {
        const LinkId l = scratch.prev_link[static_cast<std::size_t>(v)];
        if (l == kInvalidLink) return {}; // unreachable (cannot happen in a quadrant)
        route.push_back(l);
        v = topo.link(l).src;
    }
    std::reverse(route.begin(), route.end());
    return route;
}

} // namespace nocmap::noc
