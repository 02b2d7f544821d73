#include "baselines/pmap.hpp"

#include <limits>
#include <stdexcept>

#include "nmap/shortest_path_router.hpp"

namespace nocmap::baselines {

noc::Mapping pmap_placement(const graph::CoreGraph& graph, const noc::EvalContext& ctx) {
    const std::size_t cores = graph.node_count();
    if (cores == 0) throw std::invalid_argument("pmap: empty core graph");
    if (cores > ctx.tile_count())
        throw std::invalid_argument("pmap: more cores than tiles");

    noc::Mapping mapping(cores, ctx.tile_count());

    // Seed: heaviest cluster on processor 0. PMAP targets generic
    // multiprocessor enumerations and has no notion of mesh centrality —
    // one of the reasons it trails the NoC-aware algorithms in Figure 3.
    graph::NodeId seed = 0;
    double best_traffic = -1.0;
    for (std::size_t v = 0; v < cores; ++v) {
        const double traffic = graph.node_traffic(static_cast<graph::NodeId>(v));
        if (traffic > best_traffic) {
            best_traffic = traffic;
            seed = static_cast<graph::NodeId>(v);
        }
    }
    const noc::TileId seed_tile = 0;
    mapping.place(seed, seed_tile);

    while (!mapping.is_complete()) {
        // Heaviest single edge between an unmapped and a mapped cluster.
        graph::NodeId next = graph::kInvalidNode;
        graph::NodeId partner = graph::kInvalidNode;
        double best_edge = -1.0;
        for (std::size_t v = 0; v < cores; ++v) {
            const auto candidate = static_cast<graph::NodeId>(v);
            if (mapping.is_placed(candidate)) continue;
            for (std::size_t w = 0; w < cores; ++w) {
                const auto placed = static_cast<graph::NodeId>(w);
                if (!mapping.is_placed(placed)) continue;
                const double comm = graph.undirected_comm(candidate, placed);
                if (comm > best_edge) {
                    best_edge = comm;
                    next = candidate;
                    partner = placed;
                }
            }
        }
        if (best_edge <= 0.0) {
            // Disconnected remainder: fall back to the heaviest unmapped
            // cluster, anchored to the seed processor.
            double fallback = -1.0;
            for (std::size_t v = 0; v < cores; ++v) {
                const auto candidate = static_cast<graph::NodeId>(v);
                if (mapping.is_placed(candidate)) continue;
                const double traffic = graph.node_traffic(candidate);
                if (traffic > fallback) {
                    fallback = traffic;
                    next = candidate;
                }
            }
            partner = seed;
        }

        // Nearest free processor to the partner's tile (smallest hop count;
        // ties toward the smaller tile id).
        const noc::TileId anchor = mapping.tile_of(partner);
        noc::TileId best_tile = noc::kInvalidTile;
        std::int32_t best_distance = std::numeric_limits<std::int32_t>::max();
        for (std::size_t t = 0; t < ctx.tile_count(); ++t) {
            const auto tile = static_cast<noc::TileId>(t);
            if (mapping.is_occupied(tile)) continue;
            const std::int32_t d = ctx.distance(anchor, tile);
            if (d < best_distance) {
                best_distance = d;
                best_tile = tile;
            }
        }
        mapping.place(next, best_tile);
    }
    mapping.validate();
    return mapping;
}

nmap::MappingResult pmap_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx) {
    return nmap::scored_result(graph, ctx, pmap_placement(graph, ctx));
}

} // namespace nocmap::baselines
