#pragma once
// Exhaustive (optimal) mapper for tiny instances.
//
// Enumerates every placement of |V| cores onto |U| tiles and returns the
// Equation-7 optimum. Feasible only for |U| <= ~8 (|U|! permutations with
// mesh-symmetry pruning); used as a ground-truth oracle in tests and to
// quantify how close NMAP/PBB get on small designs like the DSP filter.

#include "graph/core_graph.hpp"
#include "nmap/result.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::baselines {

struct ExhaustiveOptions {
    /// Refuse instances whose search space exceeds this many placements
    /// (guards against accidentally exponential calls).
    std::uint64_t max_placements = 50'000'000;
};

/// Returns the optimal mapping by exhaustive search; throws
/// std::invalid_argument when the instance exceeds `max_placements`.
nmap::MappingResult exhaustive_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                   const ExhaustiveOptions& options = {});

/// Number of distinct placements |U|!/(|U|-|V|)! (saturating).
std::uint64_t placement_count(std::size_t cores, std::size_t tiles);

} // namespace nocmap::baselines
