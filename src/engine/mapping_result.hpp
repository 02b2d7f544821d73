#pragma once
// Result type shared by all mapping algorithms (NMAP, the baselines, and
// anything registered with engine::registry()). Lives in the engine layer so
// the orchestration code (Mapper, SwapSweepDriver) and the algorithms above
// it speak one type.

#include <limits>
#include <string>
#include <vector>

#include "graph/core_graph.hpp"
#include "noc/eval_context.hpp"
#include "noc/evaluation.hpp"
#include "noc/mapping.hpp"

namespace nocmap::engine {

/// The paper's `maxvalue` sentinel: the cost assigned to mappings that
/// violate the bandwidth constraints.
constexpr double kMaxValue = std::numeric_limits<double>::infinity();

struct MappingResult {
    noc::Mapping mapping;
    /// Equation 7 cost for single-path algorithms; the MCF2 objective for
    /// split-traffic NMAP. kMaxValue when no feasible mapping was found.
    double comm_cost = kMaxValue;
    bool feasible = false;
    /// Aggregate link loads of the final routing (single-path loads, or the
    /// MCF flow solution for split modes).
    noc::LinkLoads loads;
    /// Split modes only: per-commodity per-link flow (empty otherwise).
    std::vector<std::vector<double>> flows;
    /// Number of mapping evaluations (shortestpath()/MCF solves, or swap
    /// deltas under incremental evaluation) performed — the cost model the
    /// paper's complexity analysis counts.
    std::size_t evaluations = 0;

    /// Peak link load — the "minimum uniform link bandwidth" this mapping
    /// would need (Figure 4's metric).
    double min_bandwidth() const { return noc::max_load(loads); }
};

/// Human-readable report (placement + cost + peak load).
std::string describe(const MappingResult& result, const graph::CoreGraph& graph,
                     const noc::EvalContext& ctx);

} // namespace nocmap::engine
