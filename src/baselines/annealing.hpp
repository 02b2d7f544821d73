#pragma once
// Simulated-annealing mapper — an extension baseline.
//
// Not part of the paper's comparison, but the standard stochastic
// alternative to NMAP's deterministic pairwise-swap improvement; the
// ablation bench uses it to show how far 2-opt local search sits from a
// randomized global search on the same Eq.7 objective, and at what runtime
// cost.

#include <cstdint>
#include <functional>

#include "graph/core_graph.hpp"
#include "nmap/result.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::baselines {

struct AnnealingOptions {
    std::uint64_t seed = 1;
    /// Moves attempted per temperature step.
    std::size_t moves_per_temperature = 0; ///< 0 = 8 * tiles^2
    /// Geometric cooling factor per step.
    double cooling = 0.95;
    /// Initial acceptance probability for an average uphill move (sets T0).
    double initial_acceptance = 0.5;
    /// Stop when temperature falls below this fraction of T0.
    double stop_fraction = 1e-3;
    /// Route every accepted move through engine::IncrementalRouter (Fast
    /// mode) and refuse to leave the feasible region; `best` then tracks
    /// the best *feasible* mapping. Default off: the classic walk ignores
    /// capacities until the final scoring.
    bool bandwidth_aware = false;
    /// Cooperative cancellation, polled per temperature step; the walk
    /// stops early and the best mapping so far is scored and returned.
    std::function<bool()> cancel;
};

/// Minimizes the Equation-7 cost by annealed tile swaps starting from
/// NMAP's initialize() placement; scores the final mapping with the
/// single-minimum-path router (same reporting as the other algorithms).
/// The walk's evaluator, router and final scoring read the context's flat
/// tables.
nmap::MappingResult annealing_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                  const AnnealingOptions& options = {});

} // namespace nocmap::baselines
