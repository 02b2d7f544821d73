#pragma once
// Frank–Wolfe approximation of the MCF programs.
//
// Exact simplex on every pairwise swap would dominate NMAP's runtime (the
// paper itself notes the ILP variant of path search takes minutes while the
// heuristic takes seconds and lands within 10% — we follow the same
// philosophy for the split-traffic inner loop). The approximation routes
// each commodity all-or-nothing on a derivative-priced shortest path and
// averages iterates with the classic 2/(t+2) step, which converges to the
// optimum of the smoothed convex surrogate of each objective:
//
//   MinSlack   — potential Σ_l max(0, load_l - cap_l)^2
//   MinFlow    — potential Σ_l load_l + μ Σ_l max(0, load_l - cap_l)^2/cap_l
//   MinMaxLoad — potential Σ_l (load_l / scale)^p, p = 8 (soft max)
//
// Flow conservation holds *exactly* at every iterate (each all-or-nothing
// assignment is a valid path flow, and convex combinations preserve Eq. 5).
//
// The kernel does the dense iteration's arithmetic with less work, bit for
// bit. Dijkstra is a pure function of (graph, link costs, endpoints), so a
// commodity's latest path is reused whenever the costs equal (bitwise)
// those it was computed under — under MinFlow with no overloaded link that
// is every iteration, and across the solves of a carried workspace it
// spares every commodity a swap did not move. The blend and the load
// rebuild touch only each commodity's flow support, the links its flow has
// used; the flow is 0 everywhere else.

#include "lp/mcf.hpp"

namespace nocmap::lp {

/// Approximate engine behind solve_mcf(use_exact_lp = false).
McfResult solve_mcf_approx(const noc::Topology& topo,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options);

/// Context-threaded variant: quadrant membership comes from the context's
/// distance table (bit-identical results, as for solve_mcf). `workspace`
/// (may be nullptr) is scratch carried across solves on the context's
/// topology; it saves allocations and routing-graph builds and never
/// changes a result. There is no warm start: every solve runs the full
/// iteration schedule from min-hop paths, whatever McfOptions::warm_start
/// says.
McfResult solve_mcf_approx(const noc::EvalContext& ctx,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options, ApproxWorkspace* workspace = nullptr);

} // namespace nocmap::lp
