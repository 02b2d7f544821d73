#include "engine/sweep.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "engine/incremental_cost.hpp"
#include "util/rng.hpp"

namespace nocmap::engine {

namespace {

/// Worker pool scoring one candidate row at a time for sweep(). One pool
/// per driver call (not per row): a row's scoring is often microseconds
/// under incremental pruning, where per-row thread spawn and join would
/// dominate. Workers only touch the row state between
/// the two barriers of a row; the owner only mutates it outside that
/// window, so the barriers are the only synchronization needed.
class RowScoringPool {
public:
    RowScoringPool(SweepPolicy& policy, std::size_t workers)
        : policy_(policy), row_start_(static_cast<std::ptrdiff_t>(workers)),
          row_finish_(static_cast<std::ptrdiff_t>(workers)) {
        pool_.reserve(workers - 1);
        for (std::size_t w = 0; w + 1 < workers; ++w)
            pool_.emplace_back([this] {
                while (true) {
                    row_start_.arrive_and_wait();
                    if (done_) return;
                    score_claimed();
                    row_finish_.arrive_and_wait();
                }
            });
    }

    ~RowScoringPool() { shutdown(); }

    /// Scores candidates (i, js[k]) of `placed` into scores[k], every
    /// candidate against the same fixed `incumbent`. `scores` must be
    /// pre-sized to js.size(). A policy throw during scoring must reach
    /// the caller, not std::terminate: workers capture the first exception
    /// and keep the barrier protocol intact; this rethrows after the row.
    void score_row(const noc::Mapping& placed, const Score& placed_score,
                   const Score& incumbent, noc::TileId i, const std::vector<noc::TileId>& js,
                   std::vector<Score>& scores) {
        placed_ = &placed;
        placed_score_ = &placed_score;
        incumbent_ = &incumbent;
        row_i_ = i;
        js_ = &js;
        scores_ = &scores;
        next_.store(0, std::memory_order_relaxed);
        row_start_.arrive_and_wait();
        score_claimed(); // the owning thread pulls its weight too
        row_finish_.arrive_and_wait();
        if (scoring_error_) std::rethrow_exception(scoring_error_);
    }

    /// Orderly teardown, usable from both the success path and the unwind
    /// path (the destructor): release workers into their exit branch, then
    /// join, so an owner-thread throw never destroys joinable threads.
    void shutdown() {
        if (!pool_.empty() && !done_) {
            done_ = true;
            row_start_.arrive_and_wait();
        }
        for (auto& worker : pool_) worker.join();
        pool_.clear();
    }

private:
    void score_claimed() noexcept {
        try {
            for (std::size_t k = next_.fetch_add(1); k < js_->size(); k = next_.fetch_add(1))
                (*scores_)[k] = policy_.evaluate_swap(*placed_, *placed_score_, *incumbent_,
                                                      row_i_, (*js_)[k]);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex_);
            if (!scoring_error_) scoring_error_ = std::current_exception();
        }
    }

    SweepPolicy& policy_;
    const noc::Mapping* placed_ = nullptr;
    const Score* placed_score_ = nullptr;
    const Score* incumbent_ = nullptr;
    noc::TileId row_i_ = 0;
    const std::vector<noc::TileId>* js_ = nullptr;
    std::vector<Score>* scores_ = nullptr;
    std::atomic<std::size_t> next_{0};
    bool done_ = false;
    std::mutex error_mutex_;
    std::exception_ptr scoring_error_;
    std::barrier<> row_start_;
    std::barrier<> row_finish_;
    std::vector<std::thread> pool_;
};

} // namespace

void SweepPolicy::on_commit(const noc::Mapping&, const Score&) {}
void SweepPolicy::on_rebase(const noc::Mapping&, const Score&) {}

std::size_t SwapSweepDriver::worker_count(const SweepPolicy& policy) const {
    // First-improvement re-bases `placed` mid-row, so scores computed
    // against the row-start mapping would be committed onto a different
    // base; that acceptance mode is inherently serial.
    if (options_.acceptance == Acceptance::FirstImprovement) return 1;
    if (!policy.parallel_safe() || options_.threads == 1) return 1;
    std::size_t workers = options_.threads;
    if (workers == 0) workers = std::max<unsigned>(1, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1, workers);
}

SweepOutcome SwapSweepDriver::sweep(const noc::Mapping& initial, SweepPolicy& policy) const {
    SweepOutcome outcome;
    noc::Mapping placed = initial;
    Score placed_score = policy.evaluate(placed);
    outcome.best = placed;
    outcome.best_score = placed_score;
    policy.on_rebase(placed, placed_score);

    const auto tiles = static_cast<noc::TileId>(placed.tile_count());
    const std::size_t sweeps = std::max<std::size_t>(1, options_.max_sweeps);

    const auto commit = [&](noc::TileId a, noc::TileId b, const Score& score) {
        outcome.best = placed;
        outcome.best.swap_tiles(a, b);
        outcome.best_score = score;
        ++outcome.accepted;
        policy.on_commit(outcome.best, score);
        if (options_.acceptance == Acceptance::FirstImprovement) {
            placed = outcome.best;
            placed_score = outcome.best_score;
            policy.on_rebase(placed, placed_score);
        }
    };

    const std::size_t workers = std::max<std::size_t>(
        1, std::min(worker_count(policy), placed.tile_count()));
    std::vector<noc::TileId> row; // inner-row candidate partners j
    std::vector<Score> scores;
    std::optional<RowScoringPool> pool;
    if (workers > 1) pool.emplace(policy, workers);

    bool cancelled = false;
    for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
        bool improved = false;
        for (noc::TileId i = 0; i < tiles; ++i) {
            // Cooperative cancellation between rows: the best mapping so
            // far is always a complete, scored state, so stopping here
            // returns a valid (unconverged) outcome.
            if (options_.cancel && options_.cancel()) {
                cancelled = true;
                break;
            }
            if (pool) {
                // Greedy only (first-improvement forces workers == 1), so
                // `placed` — and with it tile occupancy — is fixed for the
                // whole row and the candidate list can be precomputed.
                row.clear();
                for (noc::TileId j = i + 1; j < tiles; ++j) {
                    // Swapping two empty tiles is a no-op; skip it.
                    if (!placed.is_occupied(i) && !placed.is_occupied(j)) continue;
                    row.push_back(j);
                }
                // Score every candidate of the row against the incumbent at
                // row start, then reduce in ascending-j order: identical to
                // the serial loop because a policy prune against a stale
                // (weaker) incumbent only over-approximates the candidate
                // set, and acceptance below re-compares exactly.
                scores.assign(row.size(), Score{});
                pool->score_row(placed, placed_score, outcome.best_score, i, row, scores);
                for (std::size_t k = 0; k < row.size(); ++k) {
                    if (scores[k].better_than(outcome.best_score)) {
                        commit(i, row[k], scores[k]);
                        improved = true;
                    }
                }
            } else {
                for (noc::TileId j = i + 1; j < tiles; ++j) {
                    // Occupancy is checked live: a first-improvement commit
                    // can move a core onto tile i mid-row, turning later
                    // (i, empty j) pairs into genuine relocation moves.
                    if (!placed.is_occupied(i) && !placed.is_occupied(j)) continue;
                    const Score score =
                        policy.evaluate_swap(placed, placed_score, outcome.best_score, i, j);
                    if (score.better_than(outcome.best_score)) {
                        commit(i, j, score);
                        improved = true;
                    }
                }
            }
            // Paper: "assign Bestmapping to Placed" after each outer index.
            if (!(placed == outcome.best)) {
                placed = outcome.best;
                placed_score = outcome.best_score;
                policy.on_rebase(placed, placed_score);
            }
        }
        if (cancelled) break; // partial sweeps don't count
        ++outcome.sweeps;
        if (!improved) break;
    }
    return outcome;
}

AnnealOutcome anneal(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                     const noc::Mapping& initial, const AnnealOptions& options) {
    AnnealOutcome outcome;
    IncrementalEvaluator current(graph, ctx, initial);
    // Bandwidth-aware walks route alongside the Eq.7 bookkeeping: the
    // router's O(deg) rip-up-and-reroute keeps per-move feasibility checks
    // affordable where a full shortestpath() re-route per move would not be.
    std::optional<IncrementalRouter> router;
    if (options.bandwidth_aware) {
        RerouteOptions reroute = options.reroute;
        // The walk only acts on the feasible->infeasible boundary, so a
        // full-re-route confirm per quick infeasible verdict would make
        // every move in the infeasible region cost a full re-route.
        reroute.confirm_infeasible = false;
        router.emplace(graph, ctx, initial, reroute);
    }
    outcome.best = current.mapping();
    outcome.best_cost = current.cost();
    outcome.best_feasible = !router || router->feasible();

    util::Rng rng(options.seed);
    const auto tiles = ctx.tile_count();
    const std::size_t moves = options.moves_per_temperature
                                  ? options.moves_per_temperature
                                  : 8 * tiles * tiles;

    // Calibrate T0 from the average uphill delta of a random-move sample.
    double uphill_sum = 0.0;
    std::size_t uphill_count = 0;
    for (std::size_t i = 0; i < 64; ++i) {
        const auto a = static_cast<noc::TileId>(rng.next_below(tiles));
        const auto b = static_cast<noc::TileId>(rng.next_below(tiles));
        if (a == b) continue;
        const double delta = current.swap_delta(a, b);
        if (delta > 0) {
            uphill_sum += delta;
            ++uphill_count;
        }
    }
    const double mean_uphill = uphill_count ? uphill_sum / static_cast<double>(uphill_count)
                                            : graph.total_bandwidth();
    double temperature = -mean_uphill / std::log(std::min(0.999, options.initial_acceptance));
    if (!(temperature > 0)) temperature = std::max(1.0, graph.total_bandwidth());
    const double floor_temperature = temperature * options.stop_fraction;

    while (temperature > floor_temperature) {
        if (options.cancel && options.cancel()) break;
        for (std::size_t move = 0; move < moves; ++move) {
            const auto a = static_cast<noc::TileId>(rng.next_below(tiles));
            const auto b = static_cast<noc::TileId>(rng.next_below(tiles));
            if (a == b) continue;
            if (!current.mapping().is_occupied(a) && !current.mapping().is_occupied(b))
                continue;
            const double delta = current.swap_delta(a, b);
            ++outcome.evaluations;
            // Metropolis acceptance: downhill always, uphill with
            // probability exp(-delta / T).
            const bool accept =
                delta <= 0.0 || rng.next_double() < std::exp(-delta / temperature);
            if (!accept) continue;
            if (router) {
                const bool was_feasible = router->feasible();
                const RerouteEval eval = router->reroute_swap(a, b);
                if (was_feasible && !eval.feasible) {
                    // Never walk out of the feasible region (moves are still
                    // free while infeasible, so the walk can reach it).
                    router->rollback();
                    continue;
                }
                router->commit();
            }
            current.commit_swap(a, b);
            const bool feasible_now = !router || router->feasible();
            const bool better = outcome.best_feasible
                                    ? feasible_now && current.cost() < outcome.best_cost
                                    : feasible_now || current.cost() < outcome.best_cost;
            if (better) {
                outcome.best_cost = current.cost();
                outcome.best = current.mapping();
                outcome.best_feasible = feasible_now;
            }
        }
        temperature *= options.cooling;
    }
    return outcome;
}

} // namespace nocmap::engine
