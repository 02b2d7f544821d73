#pragma once
// engine::IncrementalEvaluator — incremental Equation-7 cost evaluation for
// swap-based mapping search.
//
// The naive evaluation of one candidate swap rebuilds every commodity and
// re-sums Σ vl(d_k) · dist(source, dest) over the whole graph — O(|E|) plus
// a full shortestpath() re-route. But a pairwise tile swap only moves the
// (at most two) cores sitting on those tiles, so only the edges incident to
// them change distance. This evaluator maintains the commodity set and the
// running cost for its current mapping and answers
//
//   * swap_delta(a, b)   — the exact Eq.7 cost change of swapping tiles a,b,
//                          in O(deg(i) + deg(j)) distance lookups;
//   * commit_swap(a, b)  — applies the swap, updating the mapping, the
//                          affected commodities' endpoint tiles and the
//                          running cost in the same O(deg) time.
//
// Feasibility (Inequality 3) still needs a full re-route; callers check it
// only for candidates whose delta makes them acceptable (see the single-path
// sweep policy), which is where the order-of-magnitude speedup comes from.

#include <vector>

#include "graph/core_graph.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"
#include "noc/mapping.hpp"

namespace nocmap::engine {

class IncrementalEvaluator {
public:
    /// Binds the evaluator to a complete mapping; builds the commodity set
    /// and the initial cost (identical to noc::communication_cost over
    /// noc::build_commodities). Distances come from the context's flat
    /// table; the context must outlive the evaluator (the portfolio's
    /// TopologyCache guarantees this; stack contexts must outlive the sweep).
    IncrementalEvaluator(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                         noc::Mapping mapping);

    const noc::Mapping& mapping() const noexcept { return mapping_; }
    const std::vector<noc::Commodity>& commodities() const noexcept { return commodities_; }

    /// Running Equation-7 cost of the current mapping.
    double cost() const noexcept { return cost_; }

    /// Exact Eq.7 cost change of swapping the contents of tiles a and b
    /// (either may be empty). O(deg(i)+deg(j)); thread-safe (const).
    double swap_delta(noc::TileId a, noc::TileId b) const;

    /// Applies the swap: mapping, incident commodities and running cost are
    /// all updated in O(deg(i)+deg(j)).
    void commit_swap(noc::TileId a, noc::TileId b);

    /// Re-binds the evaluator to a different complete mapping (O(|E|)). Used
    /// by sweep policies when the search re-bases onto a new best mapping.
    void rebase(const noc::Mapping& mapping);

private:
    /// One incident edge of a core, seen from that core.
    struct Neighbour {
        graph::NodeId core;
        double bandwidth;
    };

    double placed_edge_cost(graph::NodeId core, noc::TileId tile, graph::NodeId skip) const;
    void refresh_core_commodities(graph::NodeId core);
    void bind_tiles();

    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
    noc::Mapping mapping_;
    std::vector<noc::Commodity> commodities_;
    double cost_ = 0.0;
    /// Flat adjacency: core v's neighbours are neighbours_[first_[v] ..
    /// first_[v+1]), its out-edges then its in-edges in CoreGraph order, so
    /// swap_delta() sums in the same order as a walk over the edge lists.
    std::vector<std::size_t> first_;
    std::vector<Neighbour> neighbours_;
    /// tile_of_[v] == mapping_.tile_of(v), without its per-call checks; the
    /// mapping is complete (checked on bind), so every entry is a tile.
    std::vector<noc::TileId> tile_of_;
};

} // namespace nocmap::engine
