#pragma once
// PBB — partial branch-and-bound mapping (Hu & Marculescu, ASP-DAC 2003),
// the strongest baseline in the paper's comparison.
//
// Reconstruction (reference code unavailable). Cores are examined in
// decreasing order of communication demand; a best-first search assigns the
// next core to every free tile, bounding each partial mapping from below
// by:
//     partial Eq.7 cost
//   + Σ (edges with one placed endpoint) vl · nearest-free-tile distance
//   + Σ (edges with no placed endpoint) vl · 1
// The bound is admissible, so with an unbounded queue the search is exact.
// Following the paper's experimental note ("We monitored the queue length
// ... so that the PBB algorithm ran for few minutes"), the open queue is
// capped — when it overflows, the worst nodes are discarded, making the
// search *partial*: fast, near-optimal for small designs, and increasingly
// suboptimal as the core count scales (the effect Table 2 quantifies).
//
// Mesh symmetry of the first core's tile is broken explicitly (one octant),
// which shrinks the search space ~8x without affecting optimality.

#include <cstddef>
#include <functional>

#include "graph/core_graph.hpp"
#include "nmap/result.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::baselines {

struct PbbOptions {
    /// Maximum number of simultaneously open partial mappings; 0 = unbounded
    /// (exact branch-and-bound).
    std::size_t queue_capacity = 8192;
    /// Safety valve on node expansions (0 = unbounded).
    std::size_t max_expansions = 200000;
    /// Cooperative cancellation (deadline) hook, polled before every node
    /// expansion; when it returns true the search stops and returns the
    /// best complete mapping found so far (the greedy incumbent at worst).
    std::function<bool()> cancel;
};

struct PbbStats {
    std::size_t expansions = 0;
    std::size_t generated = 0;
    std::size_t pruned_by_bound = 0;
    std::size_t dropped_by_capacity = 0;
    bool exhausted = false; ///< search space fully explored (result optimal)
};

/// Runs PBB and scores the final mapping with the single-minimum-path
/// router. `stats_out`, when non-null, receives search statistics. The
/// bound/partial-cost distances, the incumbent's Eq.7 cost and the final
/// scoring re-route all read the context's flat tables.
nmap::MappingResult pbb_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                            const PbbOptions& options = {}, PbbStats* stats_out = nullptr);

} // namespace nocmap::baselines
