#pragma once
// Exact MCF engine: column generation over an arc-path restricted master.
//
// The arc form of MCF1/MCF2/MinMaxLoad has (commodities x links) flow
// columns; its dense tableau is what made the exact polish the wall of the
// split mappers. The path form has the same optimum with far fewer rows —
// one demand row per commodity (sum of its path flows = value) and one
// capacity row per link (with the MinSlack slack or the MinMaxLoad z) —
// and its columns, the paths, are generated on demand:
//
//   * master: lp::SimplexSolver on the current path pool; every round only
//     appends columns, so the solver restarts warm (phase-2 primal);
//   * pricing: one Dijkstra per commodity over exactly allowed_links() of
//     that commodity (in quadrant mode that includes the quadrant's
//     backward links) under link weights flow_cost - y_l >= 0; a path whose
//     weight is below the commodity's demand dual enters the pool;
//   * two phases: MinFlow's seed paths (one min-hop path per commodity) may
//     violate capacities, so phase 1 first minimizes per-commodity
//     artificial columns; a positive phase-1 optimum is the infeasibility
//     verdict. MinSlack and MinMaxLoad are feasible on their seeds.
//
// Every answer carries its dual certificate (McfResult::certificate); see
// verify_mcf_certificate for what it proves.

#include "lp/mcf.hpp"

namespace nocmap::lp {

/// Tiny per-unit-flow cost added to slack/min-max objectives so the LP does
/// not return flow cycles or needlessly long paths among cost-equal optima.
inline constexpr double kFlowRegularizer = 1e-6;

/// Per-hop cost of a unit of flow under `objective`.
inline double flow_cost_of(McfObjective objective) {
    return objective == McfObjective::MinFlow ? 1.0 : kFlowRegularizer;
}

/// Exact engine behind solve_mcf(use_exact_lp = true). `(*allowed)[k]` is
/// allowed_links() of commodity k; null means every link (all-paths mode,
/// without building K link lists). options.cancel is polled once per
/// pricing round (a cancelled solve returns LpStatus::Cancelled, unsolved).
/// With a `pool`, commodities whose endpoint pair is in it start from its
/// paths instead of a min-hop seed, and an optimal solve stores the paths
/// that carry flow back into it.
McfResult solve_mcf_colgen(const noc::Topology& topo,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options,
                           const std::vector<std::vector<noc::LinkId>>* allowed,
                           ColumnPool* pool = nullptr);

} // namespace nocmap::lp
