#include "nmap/single_path.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "engine/incremental_cost.hpp"
#include "engine/incremental_router.hpp"
#include "engine/sweep.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"
#include "util/log.hpp"

namespace nocmap::nmap {

namespace {

/// Sweep policy for the single-minimum-path objective.
///
/// Naive mode routes every candidate (the paper's literal loop). All other
/// modes first prune with Eq.7 deltas from the evaluator (synced to the
/// sweep's `placed` mapping via on_rebase): a candidate whose delta cannot
/// beat the incumbent is rejected without routing. Survivors get their
/// feasibility re-check from
///
///   * Incremental — a full shortestpath() re-route (the pre-ledger path),
///   * LedgerExact — engine::IncrementalRouter's exact replay, bit-identical
///     to the full re-route at O(deg) Dijkstras,
///   * LedgerFast  — the router's rip-up-and-reroute heuristic.
///
/// The routers hold mutable pending state, so with threads != 1 every
/// scoring thread (the sweep's workers and the main thread) lazily clones
/// the master router, which is only mutated at the serial points
/// (evaluate/on_rebase); clones re-copy when their version falls behind.
class SinglePathPolicy final : public engine::SweepPolicy {
public:
    SinglePathPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                     const SinglePathOptions& options)
        : graph_(graph), ctx_(ctx), eval_(options.eval),
          clone_per_thread_(options.threads != 1), reroute_(options.reroute) {
        reroute_.mode = eval_ == SweepEval::LedgerFast ? engine::RerouteMode::Fast
                                                       : engine::RerouteMode::Exact;
    }

    engine::Score evaluate(const noc::Mapping& mapping) override {
        count_evaluation();
        if (!ledger_mode()) return route(mapping);
        sync_master(mapping);
        const engine::RerouteEval& eval = master_->committed_eval();
        return engine::Score{eval.cost, eval.max_load, eval.feasible};
    }

    engine::Score evaluate_swap(const noc::Mapping& base, const engine::Score& base_score,
                                const engine::Score& incumbent, noc::TileId a,
                                noc::TileId b) override {
        count_evaluation();
        if (eval_ != SweepEval::Naive && base_score.feasible && incumbent.feasible) {
            // Eq.7 cost depends only on the mapping (every minimal route
            // realizes it), so base cost + delta predicts the candidate's
            // routed cost exactly up to rounding. Candidates that cannot
            // beat the incumbent are pruned without routing; the guard
            // absorbs summation-order rounding so no seed-accepted
            // candidate is ever pruned.
            const double delta = evaluator_->swap_delta(a, b);
            const double guard = 1e-9 * (1.0 + std::abs(base_score.primary));
            if (base_score.primary + delta >= incumbent.primary + guard)
                return engine::Score::rejected();
        }
        if (ledger_mode()) {
            engine::IncrementalRouter& router = thread_router();
            const engine::RerouteEval eval = router.reroute_swap(a, b);
            router.rollback();
            return engine::Score{eval.cost, eval.max_load, eval.feasible};
        }
        noc::Mapping candidate = base;
        candidate.swap_tiles(a, b);
        return route(candidate);
    }

    void on_rebase(const noc::Mapping& placed, const engine::Score&) override {
        if (eval_ == SweepEval::Naive) return;
        if (!evaluator_) {
            evaluator_.emplace(graph_, ctx_, placed);
        } else {
            evaluator_->rebase(placed);
        }
        if (ledger_mode()) sync_master(placed);
    }

    bool parallel_safe() const override { return true; }

    std::size_t router_dijkstras() const {
        return master_ ? master_->dijkstra_count() : 0;
    }

private:
    bool ledger_mode() const {
        return eval_ == SweepEval::LedgerExact || eval_ == SweepEval::LedgerFast;
    }

    void sync_master(const noc::Mapping& mapping) {
        if (!master_) {
            master_ = std::make_unique<engine::IncrementalRouter>(graph_, ctx_, mapping, reroute_);
        } else {
            master_->rebase(mapping);
        }
        ++version_;
    }

    engine::IncrementalRouter& thread_router() {
        // Serial sweeps score on the master directly; parallel sweeps keep
        // the master pristine during a row (it is the clone source) and
        // give every scoring thread its own replica.
        if (!clone_per_thread_) return *master_;
        const std::lock_guard<std::mutex> lock(clones_mutex_);
        Clone& clone = clones_[std::this_thread::get_id()];
        if (clone.version != version_ || !clone.router) {
            if (clone.router && eval_ == SweepEval::LedgerExact) {
                // Exact state is path-independent (always the full
                // re-route of the bound mapping), so a stale clone can
                // catch up through rebase — the one-swap O(deg) shortcut
                // in the common one-row-behind case — instead of a deep
                // copy. Fast state is path-dependent; replicas must copy
                // the master to score exactly what the serial sweep would.
                clone.router->rebase(master_->mapping());
            } else {
                clone.router = std::make_unique<engine::IncrementalRouter>(*master_);
            }
            clone.version = version_;
        }
        return *clone.router;
    }

    engine::Score route(const noc::Mapping& mapping) const {
        const SinglePathRouting routed = evaluate_mapping(graph_, ctx_, mapping);
        return engine::Score{routed.cost, routed.max_load, routed.feasible};
    }

    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
    const SweepEval eval_;
    const bool clone_per_thread_;
    engine::RerouteOptions reroute_;
    std::optional<engine::IncrementalEvaluator> evaluator_;
    std::unique_ptr<engine::IncrementalRouter> master_;
    std::uint64_t version_ = 0;

    struct Clone {
        std::uint64_t version = 0;
        std::unique_ptr<engine::IncrementalRouter> router;
    };
    std::mutex clones_mutex_;
    std::unordered_map<std::thread::id, Clone> clones_;
};

} // namespace

MappingResult map_with_single_path(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                   const SinglePathOptions& options) {
    SinglePathPolicy policy(graph, ctx, options);
    engine::SweepOptions sweep;
    sweep.max_sweeps = options.max_sweeps;
    sweep.threads = options.threads;
    sweep.cancel = options.cancel;
    engine::SwapSweepDriver driver(sweep);

    const engine::SweepOutcome outcome =
        driver.sweep(initial_mapping(graph, ctx.topology()), policy);
    util::log_debug("nmap") << "sweeps " << outcome.sweeps << " best cost "
                            << outcome.best_score.primary << " router dijkstras "
                            << policy.router_dijkstras();
    // One final re-route of the winner (its loads are not carried through
    // the generic Score); deterministic, so identical to the sweep's own
    // evaluation of that mapping in the sequential-routing modes.
    return scored_result(graph, ctx, outcome.best, policy.evaluations());
}

} // namespace nocmap::nmap
