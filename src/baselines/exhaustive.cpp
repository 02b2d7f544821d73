#include "baselines/exhaustive.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "nmap/shortest_path_router.hpp"

namespace nocmap::baselines {

std::uint64_t placement_count(std::size_t cores, std::size_t tiles) {
    if (cores > tiles) return 0;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t count = 1;
    for (std::size_t i = 0; i < cores; ++i) {
        const auto factor = static_cast<std::uint64_t>(tiles - i);
        if (count > kMax / factor) return kMax;
        count *= factor;
    }
    return count;
}

namespace {

struct SearchState {
    const graph::CoreGraph& graph;
    const noc::EvalContext& ctx;
    std::vector<noc::TileId> assignment; ///< tile of core i (prefix valid)
    std::vector<char> occupied;
    double partial_cost = 0.0;
    double best_cost = std::numeric_limits<double>::infinity();
    std::vector<noc::TileId> best_assignment;
};

void search(SearchState& s, std::size_t core) {
    if (s.partial_cost >= s.best_cost) return; // distances only grow
    if (core == s.graph.node_count()) {
        s.best_cost = s.partial_cost;
        s.best_assignment = s.assignment;
        return;
    }
    const auto node = static_cast<graph::NodeId>(core);
    const noc::Topology& fabric = s.ctx.topology();
    for (std::size_t t = 0; t < fabric.tile_count(); ++t) {
        if (s.occupied[t]) continue;
        const auto tile = static_cast<noc::TileId>(t);
        // Mesh symmetry: pin core 0 into one octant.
        if (core == 0 && fabric.kind() == noc::TopologyKind::Mesh) {
            const auto c = fabric.coord(tile);
            if (c.x > (fabric.width() - 1) / 2 || c.y > (fabric.height() - 1) / 2) continue;
            if (fabric.width() == fabric.height() && c.y > c.x) continue;
        }
        double added = 0.0;
        for (const std::int32_t e : s.graph.out_edges(node)) {
            const graph::CoreEdge& edge = s.graph.edges()[static_cast<std::size_t>(e)];
            if (static_cast<std::size_t>(edge.dst) < core)
                added += edge.bandwidth *
                         static_cast<double>(s.ctx.distance(
                             tile, s.assignment[static_cast<std::size_t>(edge.dst)]));
        }
        for (const std::int32_t e : s.graph.in_edges(node)) {
            const graph::CoreEdge& edge = s.graph.edges()[static_cast<std::size_t>(e)];
            if (static_cast<std::size_t>(edge.src) < core)
                added += edge.bandwidth *
                         static_cast<double>(s.ctx.distance(
                             tile, s.assignment[static_cast<std::size_t>(edge.src)]));
        }
        s.assignment[core] = tile;
        s.occupied[t] = 1;
        s.partial_cost += added;
        search(s, core + 1);
        s.partial_cost -= added;
        s.occupied[t] = 0;
    }
}

} // namespace

nmap::MappingResult exhaustive_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                   const ExhaustiveOptions& options) {
    if (graph.node_count() == 0)
        throw std::invalid_argument("exhaustive_map: empty core graph");
    if (graph.node_count() > ctx.tile_count())
        throw std::invalid_argument("exhaustive_map: more cores than tiles");
    const std::uint64_t placements = placement_count(graph.node_count(), ctx.tile_count());
    if (placements > options.max_placements)
        throw std::invalid_argument("exhaustive_map: search space too large (" +
                                    std::to_string(placements) + " placements)");

    SearchState state{graph,
                      ctx,
                      std::vector<noc::TileId>(graph.node_count(), noc::kInvalidTile),
                      std::vector<char>(ctx.tile_count(), 0),
                      0.0,
                      std::numeric_limits<double>::infinity(),
                      {}};
    search(state, 0);

    noc::Mapping mapping(graph.node_count(), ctx.tile_count());
    for (std::size_t core = 0; core < graph.node_count(); ++core)
        mapping.place(static_cast<graph::NodeId>(core), state.best_assignment[core]);
    return nmap::scored_result(graph, ctx, std::move(mapping));
}

} // namespace nocmap::baselines
