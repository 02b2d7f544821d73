#include "engine/incremental_cost.hpp"

#include <stdexcept>

#include "noc/evaluation.hpp"

namespace nocmap::engine {

namespace {

void require_complete(const graph::CoreGraph& graph, const noc::Mapping& mapping) {
    if (!mapping.is_complete() || mapping.core_count() != graph.node_count())
        throw std::invalid_argument("IncrementalEvaluator: mapping must be complete");
}

} // namespace

IncrementalEvaluator::IncrementalEvaluator(const graph::CoreGraph& graph,
                                           const noc::EvalContext& ctx, noc::Mapping mapping)
    : graph_(graph), ctx_(ctx), mapping_(std::move(mapping)) {
    first_.reserve(graph_.node_count() + 1);
    first_.push_back(0);
    for (std::size_t v = 0; v < graph_.node_count(); ++v) {
        const auto core = static_cast<graph::NodeId>(v);
        for (const std::int32_t e : graph_.out_edges(core)) {
            const graph::CoreEdge& edge = graph_.edges()[static_cast<std::size_t>(e)];
            neighbours_.push_back({edge.dst, edge.bandwidth});
        }
        for (const std::int32_t e : graph_.in_edges(core)) {
            const graph::CoreEdge& edge = graph_.edges()[static_cast<std::size_t>(e)];
            neighbours_.push_back({edge.src, edge.bandwidth});
        }
        first_.push_back(neighbours_.size());
    }
    bind_tiles();
}

void IncrementalEvaluator::rebase(const noc::Mapping& mapping) {
    require_complete(graph_, mapping);
    mapping_ = mapping;
    bind_tiles();
}

void IncrementalEvaluator::bind_tiles() {
    require_complete(graph_, mapping_);
    tile_of_.resize(graph_.node_count());
    for (std::size_t v = 0; v < tile_of_.size(); ++v)
        tile_of_[v] = mapping_.tile_of(static_cast<graph::NodeId>(v));
    commodities_ = noc::build_commodities(graph_, mapping_);
    cost_ = noc::communication_cost(ctx_, commodities_);
}

/// Σ over edges incident to `core` (placed on `tile`) of vl · dist, skipping
/// the partner core of the swap: the i<->j edge keeps its distance under a
/// swap, so excluding it from both sums cancels it exactly.
double IncrementalEvaluator::placed_edge_cost(graph::NodeId core, noc::TileId tile,
                                              graph::NodeId skip) const {
    double cost = 0.0;
    if (core == graph::kInvalidNode) return cost;
    const auto v = static_cast<std::size_t>(core);
    for (std::size_t k = first_[v]; k < first_[v + 1]; ++k) {
        const Neighbour& n = neighbours_[k];
        if (n.core == skip) continue;
        const noc::TileId partner_tile = tile_of_[static_cast<std::size_t>(n.core)];
        cost += n.bandwidth * static_cast<double>(ctx_.distance(tile, partner_tile));
    }
    return cost;
}

double IncrementalEvaluator::swap_delta(noc::TileId a, noc::TileId b) const {
    const graph::NodeId core_a = mapping_.core_at(a);
    const graph::NodeId core_b = mapping_.core_at(b);
    const double before = placed_edge_cost(core_a, a, core_b) + placed_edge_cost(core_b, b, core_a);
    const double after = placed_edge_cost(core_a, b, core_b) + placed_edge_cost(core_b, a, core_a);
    return after - before;
}

void IncrementalEvaluator::refresh_core_commodities(graph::NodeId core) {
    if (core == graph::kInvalidNode) return;
    const noc::TileId tile = mapping_.tile_of(core);
    tile_of_[static_cast<std::size_t>(core)] = tile;
    // Commodity k is core-graph edge k, so the incident commodity ids are
    // exactly the incident edge ids.
    for (const std::int32_t e : graph_.out_edges(core))
        commodities_[static_cast<std::size_t>(e)].src_tile = tile;
    for (const std::int32_t e : graph_.in_edges(core))
        commodities_[static_cast<std::size_t>(e)].dst_tile = tile;
}

void IncrementalEvaluator::commit_swap(noc::TileId a, noc::TileId b) {
    const double delta = swap_delta(a, b);
    mapping_.swap_tiles(a, b);
    refresh_core_commodities(mapping_.core_at(a));
    refresh_core_commodities(mapping_.core_at(b));
    cost_ += delta;
}

} // namespace nocmap::engine
