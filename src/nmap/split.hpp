#pragma once
// mappingwithsplitting() (Section 6): NMAP with traffic splitting.
//
// Phase 1 searches pairwise swaps with MCF1 (slack minimization) until a
// mapping satisfying the bandwidth constraints is found; phase 2 continues
// the swap search with MCF2 (total-flow minimization) to improve the cost.
//
// SplitMode::MinPaths restricts every commodity's flow to its quadrant
// (Eq. 10) — traffic split across minimum paths only, equal hop delay, low
// jitter (the paper's NMAPTM series). SplitMode::AllPaths is NMAPTA.

#include <functional>

#include "graph/core_graph.hpp"
#include "lp/mcf.hpp"
#include "nmap/result.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::nmap {

enum class SplitMode {
    AllPaths, ///< NMAPTA
    MinPaths, ///< NMAPTM (quadrant-restricted, Eq. 10)
};

/// Inner MCF engine selection for the per-swap evaluations.
enum class McfEngine {
    Exact,  ///< exact LP (column generation) on every solved swap candidate
    Approx, ///< Frank–Wolfe approximation on every solved swap candidate
};

struct SplitOptions {
    SplitMode mode = SplitMode::AllPaths;
    /// Engine for the per-swap MCF evaluations (candidates the Eq.7 bound
    /// prunes are solved by neither). Exact reproduces the paper's loop
    /// literally; the default uses the Frank–Wolfe approximation inside
    /// the loop. Exact is not the slow choice: on a 4-core host nmap-split
    /// took 0.09 s exact vs 1.1 s approx on synth:nodes=40,edges=72,seed=2
    /// at 500 MB/s, 0.05 s vs 0.03 s on synth:nodes=128,edges=230,seed=1 at
    /// ample bandwidth, and 9 ms vs 24 ms on vopd at 400 MB/s.
    McfEngine mcf_engine = McfEngine::Approx;
    /// Warm-start the exact inner engine across consecutive swap
    /// candidates: column generation is seeded with the paths of the
    /// previous optima (see lp::McfSolver). Objectives and feasibility
    /// verdicts match the cold engine; tie-breaking among cost-equal optimal
    /// *flows*, and so among cost-equal candidate mappings, may differ,
    /// hence default off for bit-stable output. The Frank–Wolfe inner
    /// engine has no warm start and ignores this knob.
    bool warm_start = false;
    /// Iterations for the approximate inner engine.
    std::size_t approx_iterations = 32;
    /// Re-score the final mapping with the exact simplex LP (recommended;
    /// this is what the reported cost/flows come from).
    bool exact_final_polish = true;
    /// Number of pairwise-swap sweeps (1 = the paper's pseudocode).
    std::size_t max_sweeps = 1;
    /// Figure-4 variant: instead of MCF1/MCF2 under fixed capacities, the
    /// swap search minimizes the *min-max link load* — i.e. it looks for the
    /// mapping that needs the least uniform link bandwidth under the chosen
    /// split mode. The result's loads/flows come from the exact MinMaxLoad
    /// program, so MappingResult::min_bandwidth() is the Figure-4 number;
    /// comm_cost still reports the MCF2 flow of the final mapping.
    bool optimize_bandwidth = false;
    /// Phase-1 shortcut: keep an engine::IncrementalRouter (Exact mode) on
    /// the sweep's base mapping and skip a candidate's MCF1 slack solve
    /// when the O(deg) single-path re-route already proves the bandwidth
    /// constraints hold (a single-path routing is an MCF-feasible flow for
    /// both split modes, so the shortcut is sound). Default off: the
    /// approximate MCF1 engine may fail to certify a feasible candidate
    /// that the router certifies, so the sweep's phase-1 decisions — and
    /// with them the final mapping — can legitimately differ.
    bool routing_prefilter = false;
    /// Cooperative cancellation, polled at sweep-row boundaries (see
    /// engine::SweepOptions::cancel), before every per-candidate MCF solve
    /// and once per pricing round of the exact final polish. A cancelled
    /// polish returns unsolved, so a cancelled run's result is the best
    /// mapping so far with an infeasible verdict and cost kMaxValue —
    /// callers that cancel (deadlines) discard it for a typed error.
    std::function<bool()> cancel;
};

/// Runs NMAP with split-traffic routing. `comm_cost` is the MCF2 objective
/// (total flow = bandwidth-weighted hops); `flows` carries the per-commodity
/// split so routing tables can be generated. Quadrant construction and the
/// MCF engines read the context's tables.
MappingResult map_with_splitting(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                 const SplitOptions& options = {});

} // namespace nocmap::nmap
