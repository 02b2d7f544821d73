#pragma once
// mappingwithsinglepath() (Section 5): NMAP with single minimum-path
// routing. Three phases: initialize(), shortestpath() evaluation, and
// iterative improvement by pairwise swapping of mesh positions — the swap
// loop runs on engine::SwapSweepDriver.

#include <functional>

#include "engine/incremental_router.hpp"
#include "engine/sweep.hpp"
#include "graph/core_graph.hpp"
#include "nmap/result.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::nmap {

/// How the swap sweep scores candidates.
enum class SweepEval {
    /// Full shortestpath() re-route of every candidate (the paper's literal
    /// pseudocode; kept for benchmarking and as the reference oracle).
    Naive,
    /// engine::IncrementalEvaluator Eq.7 deltas; candidates are re-routed
    /// from scratch (feasibility re-check + exact cost) only when the delta
    /// says they could beat the incumbent. Identical results; kept as the
    /// pre-ledger baseline for benchmarking.
    Incremental,
    /// Eq.7 delta pruning plus engine::IncrementalRouter in Exact mode:
    /// surviving candidates are scored by the persistent link-load ledger
    /// in O(deg) Dijkstras instead of a full re-route. Bit-identical
    /// mappings, costs and loads to the two modes above. The default.
    LedgerExact,
    /// Delta pruning plus the router's Fast rip-up-and-reroute mode: the
    /// cheapest feasibility re-check, but a different (valid) heuristic —
    /// results may differ from the sequential-routing modes.
    LedgerFast,
};

struct SinglePathOptions {
    /// Number of full O(|U|^2) pairwise-swap sweeps. The paper's pseudocode
    /// performs one; additional sweeps keep improving until a fixpoint (we
    /// stop early when a sweep finds nothing).
    std::size_t max_sweeps = 1;
    SweepEval eval = SweepEval::LedgerExact;
    /// Worker threads scoring the candidates of one sweep row (1 = serial,
    /// 0 = all hardware threads). The reduction is lowest-index-first, so
    /// any thread count returns the same mapping as the serial sweep. The
    /// ledger modes give every scoring thread its own router clone.
    std::size_t threads = 1;
    /// Resync cadence / audit flag of the ledger modes (ignored otherwise).
    engine::RerouteOptions reroute{};
    /// Cooperative cancellation, polled at sweep-row boundaries (see
    /// engine::SweepOptions::cancel); the best mapping so far is returned.
    std::function<bool()> cancel;
};

/// Runs NMAP with single minimum-path routing. The returned mapping is the
/// best one encountered; `feasible`/`comm_cost` reflect its shortestpath()
/// evaluation under the topology's link capacities. The incremental
/// evaluator and the router read the context's precomputed tables.
MappingResult map_with_single_path(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                   const SinglePathOptions& options = {});

} // namespace nocmap::nmap
