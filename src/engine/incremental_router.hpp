#pragma once
// engine::IncrementalRouter — persistent routing state for O(deg)
// feasibility re-checks in swap-based mapping search.
//
// PR 1 made the Equation-7 cost delta of a candidate swap incremental, but
// the Inequality-3 feasibility re-check still paid a full shortestpath()
// re-route of *all* commodities per surviving candidate. A pairwise tile
// swap only moves the (at most two) cores on those tiles, so only the
// commodities incident to them change endpoints; everything else keeps its
// endpoints and — unless congestion around the swap shifted its quadrant —
// its route. The router exploits that by owning, bound to one mapping:
//
//   * per-commodity routes (slot order, exactly as SinglePathRouting),
//   * a persistent link-load ledger: per link, the commodities crossing it
//     in routing order (noc::routing_order), from which every link load is
//     an in-order prefix sum — bit-identical to the sequential router's
//     accumulation,
//   * lazily tracked peak load and violation count (increases update the
//     peak in O(1); only a decrease of a peak link forces an O(|F|) rescan).
//
// reroute_swap(a, b) answers the routed score of the current mapping with
// tiles a and b swapped, as pending state; commit() applies it in
// O(changed links), rollback() discards it. Two modes:
//
//   * Exact — replays the sequential congestion-aware routing pass with
//     dirty propagation: commodities are visited in the original
//     decreasing-value order starting at the first incident one; a
//     commodity is re-routed (quadrant Dijkstra, O(deg) of them plus the
//     congestion ripple) only when it is incident or a ledger-modified link
//     intersects its quadrant, with Dijkstra weights taken as in-order
//     ledger prefix sums. Identical weights pick identical routes, so the
//     result — routes, loads, max_load, feasibility, cost — is
//     bit-identical to evaluate_mapping() on the swapped mapping, and
//     stays so across any chain of commits.
//   * Fast — pure rip-up-and-reroute: only the incident commodities are
//     ripped up and re-routed (in value order) against the current
//     absolute loads. A different, valid point in the heuristic's design
//     space (the paper's routing is sequential, so re-routing a subset
//     last is not the same pass); cheaper, not bit-identical. When the
//     quick result looks infeasible the router confirms with one full
//     re-route, so it never reports infeasible when the sequential router
//     would not.
//
// Every resync_cadence commits the router re-routes everything from
// scratch: in Exact mode that is a pure safety net (with `audit` set it
// asserts the ledger state matches evaluate_mapping bit-for-bit, then
// throws std::logic_error on divergence); in Fast mode it snaps the
// heuristic state back onto the sequential baseline.
//
// The router is copyable — the parallel sweep hands each scoring thread
// its own clone (see nmap/single_path.cpp) because pending state makes
// reroute_swap non-const.

#include <cstdint>
#include <vector>

#include "graph/core_graph.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"
#include "noc/evaluation.hpp"
#include "noc/min_path.hpp"
#include "noc/mapping.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace nocmap::engine {

enum class RerouteMode {
    Exact, ///< dirty-propagated sequential replay; bit-identical to a full re-route
    Fast,  ///< rip-up-and-reroute of incident commodities only; heuristic
};

struct RerouteOptions {
    RerouteMode mode = RerouteMode::Exact;
    /// Full re-route resync every this many commits (0 = never). A safety
    /// net in Exact mode, a quality knob in Fast mode.
    std::size_t resync_cadence = 64;
    /// Exact mode: at every resync, assert the incremental state matches
    /// the from-scratch re-route bit-for-bit (throws std::logic_error).
    bool audit = false;
    /// Fast mode: confirm an infeasible quick verdict with one full
    /// sequential re-route, so Fast never reports infeasible where the
    /// sequential router would not (the one-sided guarantee the sweep
    /// relies on). Callers that only act on the feasible->infeasible
    /// boundary — the bandwidth-aware anneal — turn it off: deep in the
    /// infeasible region nearly every quick verdict is infeasible, and a
    /// confirm per move would cost exactly the full re-route the router
    /// exists to avoid.
    bool confirm_infeasible = true;
};

/// Routed score of one (possibly pending) mapping; field semantics match
/// SinglePathRouting (cost is kMaxValue when infeasible).
struct RerouteEval {
    double cost = 0.0;
    double max_load = 0.0;
    bool feasible = false;
};

class IncrementalRouter {
public:
    /// Binds to a complete mapping: Dijkstra distance/quadrant queries and
    /// the Eq.7 sum read the context's flat tables. The context must
    /// outlive the router (and every copy of it).
    IncrementalRouter(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                      noc::Mapping mapping, RerouteOptions options = {});

    const RerouteOptions& options() const noexcept { return options_; }
    const noc::Mapping& mapping() const noexcept { return mapping_; }
    const std::vector<noc::Commodity>& commodities() const noexcept { return commodities_; }
    /// routes()[k] belongs to commodities()[k] (slot order).
    const std::vector<noc::Route>& routes() const noexcept { return routes_; }
    const noc::LinkLoads& loads() const noexcept { return loads_; }

    double cost() const noexcept { return eval_.cost; }
    double max_load() const noexcept { return eval_.max_load; }
    bool feasible() const noexcept { return eval_.feasible; }
    /// Routed score of the committed mapping.
    const RerouteEval& committed_eval() const noexcept { return eval_; }

    /// Scores the current mapping with tiles a, b swapped by re-routing the
    /// affected commodities; the result is held as pending state until
    /// commit() or rollback(). Throws std::logic_error when a pending
    /// evaluation is already open.
    RerouteEval reroute_swap(noc::TileId a, noc::TileId b);
    /// Applies the pending swap to the persistent state, O(changed links).
    void commit();
    /// Discards the pending swap, O(changed links).
    void rollback();

    /// Re-binds to a different complete mapping. A mapping that differs
    /// from the current one by exactly one tile swap is applied through
    /// reroute_swap()/commit() (O(deg)); anything else re-routes from
    /// scratch.
    void rebase(const noc::Mapping& mapping);

    /// Forces the full re-route resync (and, in Exact mode with `audit`
    /// set, the bit-identical state check) immediately.
    void resync();

    /// Quadrant Dijkstra runs since construction (the O(deg) figure).
    std::size_t dijkstra_count() const noexcept { return dijkstras_; }
    /// From-scratch re-routes (binds, rebases, resyncs, Fast-mode confirms).
    std::size_t full_reroute_count() const noexcept { return full_reroutes_; }
    std::size_t commit_count() const noexcept { return commits_; }

private:
    using Pos = std::int32_t; ///< position in the routing order

    struct PendingLink {
        std::vector<Pos> crossings; ///< candidate crossing list, ascending
        double new_load = 0.0;      ///< in-order sum of `crossings` (score_pending)
    };

    const noc::Topology& fabric() const noexcept { return ctx_.topology(); }
    std::int32_t distance(noc::TileId a, noc::TileId b) const {
        return ctx_.distance(a, b);
    }
    double link_capacity(std::size_t l) const {
        return fabric().link(static_cast<noc::LinkId>(l)).capacity;
    }

    void bind(noc::Mapping mapping);
    void full_route();            ///< routes commodities_ from scratch into state
    void refresh_committed_eval();///< cost/max/violations from current state
    double ledger_sum(const std::vector<Pos>& crossings) const;
    PendingLink& pending_link(noc::LinkId l);
    void collect_incident(noc::TileId a, noc::TileId b);
    void ensure_prefix(std::size_t l); ///< lazy per-link replay prefix init
    void exact_eval();
    void fast_eval();
    void score_pending();         ///< cost/max/feasible of the pending state
    double pending_cost() const;  ///< Eq.7 over pending endpoints, slot order

    const graph::CoreGraph* graph_;
    const noc::EvalContext& ctx_;
    RerouteOptions options_;

    // ---- committed state --------------------------------------------------
    noc::Mapping mapping_;
    std::vector<noc::Commodity> commodities_; ///< slot order, current endpoints
    std::vector<std::size_t> order_;          ///< routing order: position -> slot
    std::vector<Pos> pos_of_;                 ///< slot -> position
    std::vector<double> value_at_;            ///< position -> commodity value
    std::vector<noc::Route> routes_;          ///< slot order
    std::vector<std::vector<Pos>> ledger_;    ///< per link: crossing positions, ascending
    noc::LinkLoads loads_;                    ///< per link: in-order ledger prefix sum
    RerouteEval eval_;
    std::size_t violations_ = 0; ///< links with load > capacity + eps

    // ---- pending state ----------------------------------------------------
    // Modified links live in a pooled slot array (link_slot_ indexes into
    // pending_pool_): O(1) lookup on the Dijkstra hot path and no
    // steady-state allocation — the pool entries keep their capacity across
    // reroute_swap calls.
    bool pending_ = false;
    bool pending_full_ = false; ///< Fast-mode confirm replaced the whole state
    noc::TileId pending_a_ = noc::kInvalidTile;
    noc::TileId pending_b_ = noc::kInvalidTile;
    std::vector<std::size_t> incident_slots_;          ///< ascending position
    std::vector<std::pair<std::size_t, noc::Route>> pending_routes_;
    std::vector<std::int32_t> link_slot_; ///< per link: pool index or -1
    std::vector<PendingLink> pending_pool_;
    std::vector<noc::LinkId> modified_links_; ///< links with a pool slot, insertion order
    RerouteEval pending_eval_;
    std::size_t pending_violations_ = 0;
    // Fast-mode confirm results (pending_full_):
    std::vector<noc::Route> pending_all_routes_;
    std::vector<std::vector<Pos>> pending_all_ledger_;
    noc::LinkLoads pending_all_loads_;

    // ---- scratch ----------------------------------------------------------
    noc::MinPathScratch scratch_;
    std::vector<char> incident_flag_;   ///< per slot
    noc::LinkLoads fast_loads_;         ///< Fast mode: absolute loads during rip-up
    // Exact-mode replay: prefix loads of the committed pass and of the
    // candidate pass, plus the set of links where they currently differ.
    // The prefix pair is epoch-stamped: exact_eval() bumps prefix_epoch_
    // instead of walking every link's ledger eagerly, and ensure_prefix()
    // computes the committed prefix below prefix_first_ on first touch —
    // replays that visit few links never pay the O(links) sweep.
    std::vector<double> base_prefix_;
    std::vector<double> cand_prefix_;
    std::vector<std::uint64_t> prefix_stamp_; ///< per link: epoch initialized for
    std::uint64_t prefix_epoch_ = 0;
    Pos prefix_first_ = 0; ///< replay start of the open exact_eval
    std::vector<char> diff_flag_;       ///< per link: prefixes differ right now
    std::vector<char> in_diff_list_;    ///< per link: already in diff_links_
    std::vector<noc::LinkId> diff_links_;
    std::size_t diff_count_ = 0;

    // ---- statistics -------------------------------------------------------
    std::size_t dijkstras_ = 0;
    std::size_t full_reroutes_ = 0;
    std::size_t commits_ = 0;
    std::size_t commits_since_resync_ = 0;
};

} // namespace nocmap::engine
