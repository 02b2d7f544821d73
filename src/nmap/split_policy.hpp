#pragma once
// nmap::SplitPolicy — the swap-sweep policy behind mappingwithsplitting()
// (nmap/split.hpp). map_with_splitting() drives it with the engine's
// SwapSweepDriver; tests drive it the same way to audit its decisions.

#include <functional>
#include <optional>
#include <vector>

#include "engine/incremental_cost.hpp"
#include "engine/incremental_router.hpp"
#include "engine/sweep.hpp"
#include "graph/core_graph.hpp"
#include "lp/mcf.hpp"
#include "nmap/split.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::nmap {

/// Two-phase MCF sweep policy (the body of mappingwithsplitting()):
/// phase 1 minimizes the MCF1 slack until some candidate satisfies the
/// bandwidth constraints, phase 2 minimizes the MCF2 total flow. Encoded in
/// engine::Score as primary = MCF2 cost (kMaxValue before feasibility),
/// secondary = slack, so the driver's standard acceptance rule reproduces
/// the seed algorithm's decisions exactly. Stateful (the scoring mode flips
/// mid-row), hence not parallel_safe.
///
/// Phase 2 bounds before it solves. A candidate's Eq.7 cost (Σ bandwidth ×
/// min-hop distance, from an IncrementalEvaluator kept on the sweep's
/// `placed` mapping) is a lower bound on its MCF2 objective in both split
/// modes and on every fabric: each commodity's flow travels at least its
/// min-hop distance. Once the incumbent is feasible, a candidate whose
/// bound reaches it cannot be accepted and is rejected without an MCF
/// solve. Skipping a solve changes no later answer (the inner engines'
/// chain solves equal one-shot solves), so the sweep finds the mapping the
/// unpruned sweep finds. `evaluations` counts every phase-2 candidate
/// once, pruned or solved, as the single-path policy does.
///
/// `options.cancel` is polled before every per-candidate MCF1/MCF2 solve
/// (never on the pruned path); once it reads true the candidate is
/// rejected unsolved, so a deadline stops the sweep within one solve
/// instead of one row. `optimize_bandwidth` and `max_sweeps` are the
/// caller's business and are ignored here.
class SplitPolicy final : public engine::SweepPolicy {
public:
    /// The context and graph must outlive the policy.
    SplitPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                const SplitOptions& options);

    engine::Score evaluate(const noc::Mapping& mapping) override;
    engine::Score evaluate_swap(const noc::Mapping& base, const engine::Score& base_score,
                                const engine::Score& incumbent, noc::TileId a,
                                noc::TileId b) override;
    void on_rebase(const noc::Mapping& placed, const engine::Score& score) override;

    bool bw_satisfied() const noexcept { return bw_satisfied_; }
    /// MCF1 and MCF2 solves run so far.
    std::size_t mcf_solves() const noexcept {
        return slack_.stats().solves + flow_.stats().solves;
    }

private:
    bool routed_feasible(const noc::Mapping& base, noc::TileId a, noc::TileId b);
    bool cancelled() const { return cancel_ && cancel_(); }

    const graph::CoreGraph& graph_;
    const noc::EvalContext& ctx_;
    lp::McfSolver slack_;
    lp::McfSolver flow_;
    const bool routing_prefilter_;
    const std::function<bool()> cancel_;
    std::vector<noc::Commodity> commodities_;
    std::optional<engine::IncrementalEvaluator> evaluator_;
    std::optional<engine::IncrementalRouter> router_;
    bool bw_satisfied_ = false;
};

} // namespace nocmap::nmap
