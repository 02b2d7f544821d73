#pragma once
// The paper's shortestpath() routine (Section 5): congestion-aware
// sequential single-minimum-path routing.
//
//   * commodities are sorted by decreasing value;
//   * for each commodity a quadrant graph between source and destination is
//     formed (every minimal path lies inside it);
//   * Dijkstra with the current link loads as edge weights picks the least
//     congested minimal path; the chosen links' weights are increased by
//     vl(d_k);
//   * afterwards, if Inequality 3 holds the Equation-7 cost is returned,
//     otherwise `maxvalue`.
//
// The paper notes this heuristic finishes in seconds and lands within ~10%
// of the ILP optimum; an exact min-max single-path ILP would be exponential.

#include <vector>

#include "nmap/result.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"
#include "noc/evaluation.hpp"
#include "noc/routing.hpp"

namespace nocmap::nmap {

struct SinglePathRouting {
    /// routes[k] corresponds to commodities[k] (caller's order).
    std::vector<noc::Route> routes;
    noc::LinkLoads loads;
    bool feasible = false;
    /// Equation 7 cost, or kMaxValue (infinity) when infeasible.
    double cost = 0.0;
    /// Peak link load (min uniform bandwidth for this routing).
    double max_load = 0.0;
};

/// Routes all commodities; `commodities` keeps the caller's order, routing
/// happens internally in decreasing-value order (noc::routing_order).
/// Distance and quadrant queries of the Dijkstra inner loop hit the
/// context's flat table.
SinglePathRouting route_single_min_paths(const noc::EvalContext& ctx,
                                         const std::vector<noc::Commodity>& commodities);

/// Full shortestpath() evaluation of a complete mapping: builds the
/// commodity set and routes it. The scoring path shared by every
/// single-path mapper (and the sweep policies' feasibility re-check).
SinglePathRouting evaluate_mapping(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                   const noc::Mapping& mapping);

/// Standard MappingResult for a finished single-path mapper: scores
/// `mapping` with evaluate_mapping() and fills cost/feasibility/loads.
MappingResult scored_result(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                            noc::Mapping mapping, std::size_t evaluations = 1);

} // namespace nocmap::nmap
