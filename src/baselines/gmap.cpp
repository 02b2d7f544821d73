#include "baselines/gmap.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "nmap/shortest_path_router.hpp"

namespace nocmap::baselines {

noc::Mapping gmap_placement(const graph::CoreGraph& graph, const noc::EvalContext& ctx) {
    const noc::Topology& fabric = ctx.topology();
    const std::size_t cores = graph.node_count();
    if (cores == 0) throw std::invalid_argument("gmap: empty core graph");
    if (cores > fabric.tile_count())
        throw std::invalid_argument("gmap: more cores than tiles");

    // Static order: decreasing total communication demand.
    std::vector<graph::NodeId> order(cores);
    for (std::size_t v = 0; v < cores; ++v) order[v] = static_cast<graph::NodeId>(v);
    std::stable_sort(order.begin(), order.end(), [&](graph::NodeId a, graph::NodeId b) {
        return graph.node_traffic(a) > graph.node_traffic(b);
    });

    noc::Mapping mapping(cores, fabric.tile_count());
    for (const graph::NodeId core : order) {
        noc::TileId best_tile = noc::kInvalidTile;
        double best_cost = std::numeric_limits<double>::infinity();
        std::size_t best_degree = 0;
        for (std::size_t t = 0; t < fabric.tile_count(); ++t) {
            const auto tile = static_cast<noc::TileId>(t);
            if (mapping.is_occupied(tile)) continue;
            double cost = 0.0;
            for (std::size_t w = 0; w < cores; ++w) {
                const auto other = static_cast<graph::NodeId>(w);
                if (!mapping.is_placed(other)) continue;
                const double comm = graph.undirected_comm(core, other);
                if (comm <= 0.0) continue;
                cost += comm * static_cast<double>(ctx.distance(tile, mapping.tile_of(other)));
            }
            const std::size_t degree = fabric.degree(tile);
            // First core (cost always 0): maximum-degree tile; afterwards the
            // degree only breaks exact cost ties.
            if (cost < best_cost || (cost == best_cost && degree > best_degree)) {
                best_cost = cost;
                best_degree = degree;
                best_tile = tile;
            }
        }
        mapping.place(core, best_tile);
    }
    mapping.validate();
    return mapping;
}

nmap::MappingResult gmap_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx) {
    return nmap::scored_result(graph, ctx, gmap_placement(graph, ctx));
}

} // namespace nocmap::baselines
