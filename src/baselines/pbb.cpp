#include "baselines/pbb.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <stdexcept>

#include "baselines/gmap.hpp"
#include "nmap/shortest_path_router.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::baselines {

namespace {

struct SearchNode {
    std::vector<noc::TileId> assigned; ///< tile of order[0..k)
    double partial_cost = 0.0;
    double bound = 0.0;
};

/// Multi-source BFS distance from every tile to its nearest *free* tile.
/// Occupied sources get distance >= 1; free tiles get 0.
std::vector<std::int32_t> nearest_free_distance(const noc::Topology& fabric,
                                                const std::vector<char>& occupied) {
    std::vector<std::int32_t> dist(fabric.tile_count(), -1);
    std::queue<noc::TileId> frontier;
    for (std::size_t t = 0; t < fabric.tile_count(); ++t)
        if (!occupied[t]) {
            dist[t] = 0;
            frontier.push(static_cast<noc::TileId>(t));
        }
    while (!frontier.empty()) {
        const noc::TileId u = frontier.front();
        frontier.pop();
        for (const noc::LinkId l : fabric.out_links(u)) {
            const noc::TileId v = fabric.link(l).dst;
            if (dist[static_cast<std::size_t>(v)] == -1) {
                dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
                frontier.push(v);
            }
        }
    }
    return dist;
}

} // namespace

nmap::MappingResult pbb_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                            const PbbOptions& options, PbbStats* stats_out) {
    const noc::Topology& fabric = ctx.topology();
    const std::size_t cores = graph.node_count();
    if (cores == 0) throw std::invalid_argument("pbb: empty core graph");
    if (cores > fabric.tile_count())
        throw std::invalid_argument("pbb: more cores than tiles");

    PbbStats stats;

    // Examination order: decreasing communication demand.
    std::vector<graph::NodeId> order(cores);
    for (std::size_t v = 0; v < cores; ++v) order[v] = static_cast<graph::NodeId>(v);
    std::stable_sort(order.begin(), order.end(), [&](graph::NodeId a, graph::NodeId b) {
        return graph.node_traffic(a) > graph.node_traffic(b);
    });
    std::vector<std::size_t> position(cores);
    for (std::size_t i = 0; i < cores; ++i)
        position[static_cast<std::size_t>(order[i])] = i;

    // Per-level edge classification (the placed set is always a prefix of
    // `order`):
    //   earlier_edges[k]  — edges between order[k] and cores placed before it
    //   cross_value[k]    — per cross edge at level k: (partner position, vl)
    //   future_value[k]   — Σ vl over edges with both endpoints at >= k
    struct Earlier {
        std::size_t partner_position;
        double value;
    };
    std::vector<std::vector<Earlier>> earlier_edges(cores);
    std::vector<double> future_value(cores + 1, 0.0);
    std::vector<std::vector<Earlier>> cross_edges(cores + 1);
    for (const graph::CoreEdge& e : graph.edges()) {
        const std::size_t a = std::min(position[static_cast<std::size_t>(e.src)],
                                       position[static_cast<std::size_t>(e.dst)]);
        const std::size_t b = std::max(position[static_cast<std::size_t>(e.src)],
                                       position[static_cast<std::size_t>(e.dst)]);
        earlier_edges[b].push_back(Earlier{a, e.bandwidth});
        for (std::size_t k = a + 1; k <= b; ++k)
            cross_edges[k].push_back(Earlier{a, e.bandwidth});
        for (std::size_t k = 0; k <= a; ++k) future_value[k] += e.bandwidth;
    }

    // Incumbent: greedy placement cost (upper bound to prune against).
    noc::Mapping best_mapping = gmap_placement(graph, ctx);
    double incumbent =
        noc::communication_cost(ctx, noc::build_commodities(graph, best_mapping));

    // Open list ordered by lower bound; worst entries dropped at capacity.
    std::multimap<double, SearchNode> open;

    // Root expansion: first core, symmetry-broken tile set.
    {
        const std::int32_t half_w = (fabric.width() - 1) / 2;
        const std::int32_t half_h = (fabric.height() - 1) / 2;
        for (std::size_t t = 0; t < fabric.tile_count(); ++t) {
            const auto tile = static_cast<noc::TileId>(t);
            if (fabric.kind() == noc::TopologyKind::Mesh) {
                const auto c = fabric.coord(tile);
                if (c.x > half_w || c.y > half_h) continue;
                if (fabric.width() == fabric.height() && c.y > c.x) continue;
            } else if (fabric.kind() == noc::TopologyKind::Torus && tile != 0) {
                continue; // torus is vertex-transitive: fix the first tile
            } // custom fabrics: no symmetry assumption, try every tile
            SearchNode node;
            node.assigned = {tile};
            node.partial_cost = 0.0;
            node.bound = future_value[1]; // every unplaced edge costs >= 1 hop
            open.emplace(node.bound, std::move(node));
            ++stats.generated;
        }
    }

    std::vector<char> occupied(fabric.tile_count(), 0);
    while (!open.empty()) {
        if (options.max_expansions && stats.expansions >= options.max_expansions) break;
        SearchNode node = std::move(open.begin()->second);
        open.erase(open.begin());
        if (node.bound >= incumbent) {
            ++stats.pruned_by_bound;
            continue;
        }
        const std::size_t level = node.assigned.size();
        if (level == cores) {
            // Complete mapping better than the incumbent.
            incumbent = node.partial_cost;
            noc::Mapping mapping(cores, fabric.tile_count());
            for (std::size_t i = 0; i < cores; ++i) mapping.place(order[i], node.assigned[i]);
            best_mapping = std::move(mapping);
            continue;
        }
        ++stats.expansions;

        std::fill(occupied.begin(), occupied.end(), 0);
        for (const noc::TileId t : node.assigned) occupied[static_cast<std::size_t>(t)] = 1;
        const auto free_dist = nearest_free_distance(fabric, occupied);

        for (std::size_t t = 0; t < fabric.tile_count(); ++t) {
            const auto tile = static_cast<noc::TileId>(t);
            if (occupied[t]) continue;

            double partial = node.partial_cost;
            for (const Earlier& e : earlier_edges[level])
                partial += e.value * static_cast<double>(
                                         ctx.distance(tile, node.assigned[e.partner_position]));

            // Admissible bound: cross edges need at least the distance from
            // their placed endpoint to the nearest free tile (computed on
            // the parent's occupancy — removing `tile` can only increase
            // those distances, so this stays a lower bound); future edges
            // need at least one hop each.
            double bound = partial + future_value[level + 1];
            for (const Earlier& e : cross_edges[level + 1]) {
                const noc::TileId partner_tile =
                    e.partner_position == level ? tile : node.assigned[e.partner_position];
                bound += e.value *
                         static_cast<double>(std::max<std::int32_t>(
                             1, free_dist[static_cast<std::size_t>(partner_tile)]));
            }
            if (bound >= incumbent) {
                ++stats.pruned_by_bound;
                continue;
            }

            SearchNode child;
            child.assigned = node.assigned;
            child.assigned.push_back(tile);
            child.partial_cost = partial;
            child.bound = bound;
            open.emplace(bound, std::move(child));
            ++stats.generated;
        }

        if (options.queue_capacity && open.size() > options.queue_capacity) {
            while (open.size() > options.queue_capacity) {
                open.erase(std::prev(open.end()));
                ++stats.dropped_by_capacity;
            }
        }
    }
    stats.exhausted = open.empty();

    if (stats_out) *stats_out = stats;
    return nmap::scored_result(graph, ctx, std::move(best_mapping), stats.expansions + 1);
}

} // namespace nocmap::baselines
