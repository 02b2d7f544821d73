#include "baselines/pbb.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "baselines/gmap.hpp"
#include "nmap/shortest_path_router.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::baselines {

namespace {

/// One open partial mapping. Its placements (the tiles of order[0..level))
/// live in the PlacementSlab row `slot`, not in a per-node vector.
struct SearchNode {
    std::uint32_t slot = 0;
    std::uint32_t level = 0;
    double partial_cost = 0.0;
};

/// Fixed-stride rows of tile ids, recycled through a free list: one row
/// per stored search node, so storing a child allocates nothing once the
/// open list has reached its working size.
class PlacementSlab {
public:
    explicit PlacementSlab(std::size_t stride) : stride_(stride) {}

    std::uint32_t acquire() {
        if (!free_.empty()) {
            const std::uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        tiles_.resize(tiles_.size() + stride_);
        return static_cast<std::uint32_t>(tiles_.size() / stride_ - 1);
    }
    void release(std::uint32_t slot) { free_.push_back(slot); }
    noc::TileId* row(std::uint32_t slot) { return tiles_.data() + slot * stride_; }

private:
    std::size_t stride_;
    std::vector<noc::TileId> tiles_;
    std::vector<std::uint32_t> free_;
};

/// Multi-source BFS distance from every tile to its nearest *free* tile
/// into `dist`. Occupied sources get distance >= 1; free tiles get 0.
/// `frontier` is scratch space (a vector used as a FIFO).
void nearest_free_distance(const noc::Topology& fabric, const std::vector<char>& occupied,
                           std::vector<std::int32_t>& dist,
                           std::vector<noc::TileId>& frontier) {
    dist.assign(fabric.tile_count(), -1);
    frontier.clear();
    for (std::size_t t = 0; t < fabric.tile_count(); ++t)
        if (!occupied[t]) {
            dist[t] = 0;
            frontier.push_back(static_cast<noc::TileId>(t));
        }
    for (std::size_t head = 0; head < frontier.size(); ++head) {
        const noc::TileId u = frontier[head];
        for (const noc::LinkId l : fabric.out_links(u)) {
            const noc::TileId v = fabric.link(l).dst;
            if (dist[static_cast<std::size_t>(v)] == -1) {
                dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
                frontier.push_back(v);
            }
        }
    }
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

    // Open list ordered by lower bound (ties in insertion order); worst
    // entries dropped at capacity. Node handles of popped and trimmed
    // entries are kept in `spare` and reused, so a stored child costs no
    // allocation either.
    using OpenList = std::multimap<double, SearchNode>;
    OpenList open;
    std::vector<OpenList::node_type> spare;
    PlacementSlab slab(cores);
    const auto store = [&](double bound, const SearchNode& node) {
        if (spare.empty()) {
            open.emplace(bound, node);
            return;
        }
        OpenList::node_type handle = std::move(spare.back());
        spare.pop_back();
        handle.key() = bound;
        handle.mapped() = node;
        open.insert(std::move(handle)); // after equal keys, like emplace
    };
    const auto take = [&](OpenList::iterator it) {
        OpenList::node_type handle = open.extract(it);
        const SearchNode node = handle.mapped();
        spare.push_back(std::move(handle));
        return node;
    };

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
            node.slot = slab.acquire();
            node.level = 1;
            slab.row(node.slot)[0] = tile;
            store(future_value[1], node); // every unplaced edge costs >= 1 hop
            ++stats.generated;
        }
    }

    std::vector<char> occupied(fabric.tile_count(), 0);
    std::vector<std::int32_t> free_dist;
    std::vector<noc::TileId> bfs_frontier;
    std::vector<noc::TileId> assigned; // the popped node's placements
    while (!open.empty()) {
        if (options.max_expansions && stats.expansions >= options.max_expansions) break;
        const double node_bound = open.begin()->first;
        const SearchNode node = take(open.begin());
        const std::size_t level = node.level;
        const noc::TileId* row = slab.row(node.slot);
        assigned.assign(row, row + level);
        slab.release(node.slot);
        if (node_bound >= incumbent) {
            ++stats.pruned_by_bound;
            continue;
        }
        if (level == cores) {
            // Complete mapping better than the incumbent.
            incumbent = node.partial_cost;
            noc::Mapping mapping(cores, fabric.tile_count());
            for (std::size_t i = 0; i < cores; ++i) mapping.place(order[i], assigned[i]);
            best_mapping = std::move(mapping);
            continue;
        }
        if (options.cancel && options.cancel()) break;
        ++stats.expansions;

        std::fill(occupied.begin(), occupied.end(), 0);
        for (const noc::TileId t : assigned) occupied[static_cast<std::size_t>(t)] = 1;
        nearest_free_distance(fabric, occupied, free_dist, bfs_frontier);

        for (std::size_t t = 0; t < fabric.tile_count(); ++t) {
            const auto tile = static_cast<noc::TileId>(t);
            if (occupied[t]) continue;

            double partial = node.partial_cost;
            for (const Earlier& e : earlier_edges[level])
                partial += e.value *
                           static_cast<double>(ctx.distance(tile, assigned[e.partner_position]));

            // Admissible bound: cross edges need at least the distance from
            // their placed endpoint to the nearest free tile (computed on
            // the parent's occupancy — removing `tile` can only increase
            // those distances, so this stays a lower bound); future edges
            // need at least one hop each.
            double bound = partial + future_value[level + 1];
            for (const Earlier& e : cross_edges[level + 1]) {
                const noc::TileId partner_tile =
                    e.partner_position == level ? tile : assigned[e.partner_position];
                bound += e.value *
                         static_cast<double>(std::max<std::int32_t>(
                             1, free_dist[static_cast<std::size_t>(partner_tile)]));
            }
            if (bound >= incumbent) {
                ++stats.pruned_by_bound;
                continue;
            }
            ++stats.generated;

            // Drop at birth: a full open list keeps the queue_capacity
            // smallest (bound, age) entries after the trim below. A child
            // whose bound is >= the current largest sorts after every
            // entry already stored (ties go to the newest), and children
            // stored later only add entries ahead of it, so the trim would
            // erase exactly this child. Counting it dropped without storing
            // it leaves the search and its statistics unchanged.
            if (options.queue_capacity && open.size() >= options.queue_capacity &&
                bound >= std::prev(open.end())->first) {
                ++stats.dropped_by_capacity;
                continue;
            }
            SearchNode child;
            child.slot = slab.acquire();
            child.level = static_cast<std::uint32_t>(level + 1);
            child.partial_cost = partial;
            noc::TileId* child_row = slab.row(child.slot);
            std::copy(assigned.begin(), assigned.end(), child_row);
            child_row[level] = tile;
            store(bound, child);
        }

        if (options.queue_capacity) {
            while (open.size() > options.queue_capacity) {
                slab.release(take(std::prev(open.end())).slot);
                ++stats.dropped_by_capacity;
            }
        }
    }
    stats.exhausted = open.empty();

    if (stats_out) *stats_out = stats;
    return nmap::scored_result(graph, ctx, std::move(best_mapping), stats.expansions + 1);
}

} // namespace nocmap::baselines
