#pragma once
// engine::SwapSweepDriver — the shared improvement loop behind every
// swap-based mapper in this repository.
//
// The paper's mappingwithsinglepath(), mappingwithsplitting() and the
// simulated-annealing baseline are all "place cores, then improve by
// pairwise tile swaps under a routing-aware cost"; only the candidate
// evaluation and the acceptance rule differ. The driver owns the loop
// structure:
//
//   * sweep()  — the deterministic O(|U|^2) pairwise sweep of the paper's
//     pseudocode: for every outer tile i, candidates (i, j>i) are generated
//     from the current `placed` mapping, scored by the policy, and the best
//     mapping is re-based after each outer index ("assign Bestmapping to
//     Placed"). Acceptance is greedy (the pseudocode's rule) or
//     first-improvement. With SweepOptions::threads > 1 and a policy that
//     reports parallel_safe(), the candidates of one outer row are scored
//     concurrently and reduced in ascending-j order, which makes the
//     parallel sweep bit-identical to the serial one.
//
//   * anneal() (a sibling free function) — the stochastic Metropolis walk
//     over random tile swaps used by the SA baseline, with incremental
//     Eq.7 deltas.
//
// Policies plug in the evaluation: full shortestpath() routing, incremental
// Eq.7 deltas with routing only for acceptable candidates, or MCF solves
// (see nmap/single_path.cpp and nmap/split.cpp).

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>

#include "engine/incremental_router.hpp"
#include "engine/mapping_result.hpp"
#include "noc/eval_context.hpp"
#include "noc/mapping.hpp"

namespace nocmap::engine {

/// Comparable evaluation of one mapping. `primary` is the objective (Eq.7
/// cost, MCF objective, ...), kMaxValue when the mapping violates the
/// bandwidth constraints; `secondary` orders infeasible mappings (peak load
/// or slack) so the search can still descend toward feasibility.
struct Score {
    double primary = kMaxValue;
    double secondary = std::numeric_limits<double>::infinity();
    bool feasible = false;

    /// The paper's acceptance order: lower cost wins; among infeasible
    /// mappings the lower secondary (least violating) wins.
    bool better_than(const Score& other) const {
        if (primary < other.primary) return true;
        return primary == kMaxValue && other.primary == kMaxValue &&
               secondary < other.secondary;
    }

    /// A score that never beats anything — what policies return for
    /// candidates pruned without full evaluation.
    static Score rejected() { return Score{}; }
};

/// Candidate evaluation + acceptance state for one algorithm.
class SweepPolicy {
public:
    virtual ~SweepPolicy() = default;

    /// Full evaluation of a mapping. Called once for the initial mapping;
    /// policies typically (re)bind their incremental state here.
    virtual Score evaluate(const noc::Mapping& mapping) = 0;

    /// Score of `base` with the contents of tiles (a, b) swapped.
    /// `base_score` is base's score and `incumbent` the best score so far; a
    /// policy may use them to prune candidates that cannot be accepted
    /// (returning Score::rejected()) instead of evaluating fully.
    virtual Score evaluate_swap(const noc::Mapping& base, const Score& base_score,
                                const Score& incumbent, noc::TileId a, noc::TileId b) = 0;

    /// Notification that the driver committed a new best mapping.
    virtual void on_commit(const noc::Mapping& best, const Score& score);

    /// Notification that the sweep re-based candidate generation onto
    /// `placed` (end of an outer row). Incremental policies resync here.
    virtual void on_rebase(const noc::Mapping& placed, const Score& score);

    /// True when evaluate_swap may be called concurrently (const state or
    /// internal synchronization). Stateful policies — e.g. the two-phase
    /// split search, whose scoring mode flips mid-row — must return false;
    /// the driver then scores serially regardless of SweepOptions::threads.
    virtual bool parallel_safe() const { return false; }

    /// Candidate evaluations performed (swap deltas, routings or LP solves).
    std::size_t evaluations() const { return evaluations_.load(std::memory_order_relaxed); }

protected:
    void count_evaluation(std::size_t n = 1) {
        evaluations_.fetch_add(n, std::memory_order_relaxed);
    }

private:
    std::atomic<std::size_t> evaluations_{0};
};

/// Acceptance rule for the deterministic sweep.
enum class Acceptance {
    /// Scan the whole inner row, keep the best candidate seen so far (the
    /// paper's pseudocode; candidates compare against the running best).
    Greedy,
    /// Re-base `placed` immediately after every accepted candidate, so later
    /// candidates in the same row build on the improvement.
    FirstImprovement,
};

struct SweepOptions {
    /// Number of full O(|U|^2) pairwise-swap sweeps; the driver stops early
    /// when a sweep accepts nothing.
    std::size_t max_sweeps = 1;
    /// Worker threads for candidate scoring (1 = serial, 0 = all hardware
    /// threads). Only used when the policy is parallel_safe() and acceptance
    /// is Greedy (first-improvement re-bases mid-row and stays serial); the
    /// reduction is lowest-index-first, so results are identical to the
    /// serial sweep.
    std::size_t threads = 1;
    Acceptance acceptance = Acceptance::Greedy;
    /// Cooperative cancellation, polled at each outer-row boundary: when it
    /// reads true the sweep stops and returns the best mapping so far (a
    /// valid, just possibly unconverged, result). Empty = never cancelled.
    std::function<bool()> cancel;
};

struct SweepOutcome {
    noc::Mapping best;
    Score best_score;
    /// Sweeps fully executed (a sweep that accepts nothing still counts).
    std::size_t sweeps = 0;
    std::size_t accepted = 0;
};

/// Options of the stochastic Metropolis walk (the SA baseline's loop).
struct AnnealOptions {
    std::uint64_t seed = 1;
    /// Moves attempted per temperature step; 0 = 8 * tiles^2.
    std::size_t moves_per_temperature = 0;
    /// Geometric cooling factor per step.
    double cooling = 0.95;
    /// Initial acceptance probability for an average uphill move (sets T0).
    double initial_acceptance = 0.5;
    /// Stop when temperature falls below this fraction of T0.
    double stop_fraction = 1e-3;
    /// When set, the walk keeps an IncrementalRouter (Fast mode by default)
    /// alongside the Eq.7 evaluator: moves that would break Inequality-3
    /// feasibility of a currently feasible routing are rejected, and `best`
    /// only tracks feasible states. Off by default — the plain walk ignores
    /// capacities until the final scoring, exactly as before.
    bool bandwidth_aware = false;
    /// Router configuration for the bandwidth-aware walk. `mode` and
    /// cadence are honoured; `confirm_infeasible` is always forced off —
    /// the walk only acts on the feasible->infeasible boundary, and a full
    /// re-route confirm per quick infeasible verdict would cost exactly
    /// what the router exists to avoid. Verdicts are therefore the
    /// router's own (possibly conservative at the boundary).
    RerouteOptions reroute{RerouteMode::Fast};
    /// Cooperative cancellation, polled once per temperature step: the walk
    /// stops early and returns the best mapping tracked so far.
    std::function<bool()> cancel;
};

struct AnnealOutcome {
    noc::Mapping best;
    /// Eq.7 cost of `best` (tracked incrementally during the walk).
    double best_cost = 0.0;
    /// Bandwidth-aware walks: whether `best` was routing-feasible (always
    /// true for the plain walk, which does not track feasibility).
    bool best_feasible = true;
    std::size_t evaluations = 0;
};

class SwapSweepDriver {
public:
    explicit SwapSweepDriver(SweepOptions options = {}) : options_(options) {}

    const SweepOptions& options() const noexcept { return options_; }

    /// Runs the pairwise-swap improvement loop from `initial` under
    /// `policy`. The initial mapping must be complete enough for the policy
    /// to evaluate (all algorithms here start from a complete placement).
    SweepOutcome sweep(const noc::Mapping& initial, SweepPolicy& policy) const;

private:
    std::size_t worker_count(const SweepPolicy& policy) const;

    SweepOptions options_;
};

/// Runs the Metropolis walk minimizing the Eq.7 cost with incremental
/// deltas (the SA baseline's loop). Deterministic for a fixed options.seed.
/// A free function: it shares the engine's IncrementalEvaluator (and, when
/// bandwidth-aware, the IncrementalRouter) but none of the sweep driver's
/// options.
AnnealOutcome anneal(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                     const noc::Mapping& initial, const AnnealOptions& options);

} // namespace nocmap::engine
