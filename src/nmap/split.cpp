#include "nmap/split.hpp"

#include <cmath>
#include <limits>

#include "nmap/initialize.hpp"
#include "nmap/split_policy.hpp"
#include "noc/commodity.hpp"
#include "util/log.hpp"

namespace nocmap::nmap {

namespace {

bool use_exact_inner(const SplitOptions& options) {
    return options.mcf_engine == McfEngine::Exact;
}

lp::McfOptions make_mcf_options(const SplitOptions& options, lp::McfObjective objective,
                                bool exact) {
    lp::McfOptions mcf;
    mcf.objective = objective;
    mcf.quadrant_restricted = options.mode == SplitMode::MinPaths;
    mcf.use_exact_lp = exact;
    mcf.approx_iterations = options.approx_iterations;
    mcf.warm_start = options.warm_start;
    return mcf;
}

/// Graph-side commodity skeleton (id, cores, value), built once per run;
/// each candidate only rewrites the tile endpoints via remap_commodities.
/// Remapped, this equals build_commodities(graph, mapping) exactly.
std::vector<noc::Commodity> graph_commodities(const graph::CoreGraph& graph) {
    std::vector<noc::Commodity> commodities;
    commodities.reserve(graph.edge_count());
    std::int32_t id = 0;
    for (const graph::CoreEdge& e : graph.edges()) {
        noc::Commodity c;
        c.id = id++;
        c.src_core = e.src;
        c.dst_core = e.dst;
        c.value = e.bandwidth;
        commodities.push_back(c);
    }
    return commodities;
}

engine::Score feasible_score(const lp::McfResult& cost) {
    // Bandwidth holds even when the flow LP failed to converge: the
    // mapping is accepted (secondary -inf outranks every slack) but its
    // cost stays at maxvalue, exactly as the seed implementation did.
    if (!cost.feasible)
        return engine::Score{engine::kMaxValue, -std::numeric_limits<double>::infinity(),
                             true};
    return engine::Score{cost.objective, 0.0, true};
}

/// Figure-4 variant policy: minimize the min-max link load (the uniform
/// bandwidth the design would need) under the split mode.
class BandwidthPolicy final : public engine::SweepPolicy {
public:
    BandwidthPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                    const lp::McfOptions& minmax_mcf)
        : ctx_(ctx), minmax_(ctx, minmax_mcf), commodities_(graph_commodities(graph)) {}

    engine::Score evaluate(const noc::Mapping& mapping) override {
        count_evaluation();
        noc::remap_commodities(commodities_, mapping);
        return engine::Score{minmax_.solve(commodities_).objective, 0.0, true};
    }

    engine::Score evaluate_swap(const noc::Mapping& base, const engine::Score&,
                                const engine::Score&, noc::TileId a,
                                noc::TileId b) override {
        noc::Mapping candidate = base;
        candidate.swap_tiles(a, b);
        return evaluate(candidate);
    }

private:
    const noc::EvalContext& ctx_;
    lp::McfSolver minmax_;
    std::vector<noc::Commodity> commodities_;
};

engine::SwapSweepDriver make_driver(const SplitOptions& options) {
    engine::SweepOptions sweep;
    sweep.max_sweeps = options.max_sweeps;
    sweep.cancel = options.cancel;
    return engine::SwapSweepDriver(sweep);
}

/// Final exact scoring of the chosen mapping (one-shot, never warm). The
/// exact engine polls options.cancel once per pricing round; a cancelled
/// polish comes back unsolved.
lp::McfResult polish_mcf(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                         const noc::Mapping& mapping, const SplitOptions& options,
                         lp::McfObjective objective, bool exact) {
    lp::McfOptions mcf = make_mcf_options(options, objective, exact);
    mcf.cancel = options.cancel;
    return lp::solve_mcf(ctx, noc::build_commodities(graph, mapping), mcf);
}

MappingResult map_minimizing_bandwidth(const graph::CoreGraph& graph,
                                       const noc::EvalContext& ctx,
                                       const SplitOptions& options) {
    BandwidthPolicy policy(
        graph, ctx,
        make_mcf_options(options, lp::McfObjective::MinMaxLoad, use_exact_inner(options)));
    const engine::SweepOutcome outcome =
        make_driver(options).sweep(initial_mapping(graph, ctx.topology()), policy);

    MappingResult result;
    result.mapping = outcome.best;
    result.evaluations = policy.evaluations();

    // Final (exact) scoring of the chosen mapping.
    const bool exact = options.exact_final_polish || use_exact_inner(options);
    const lp::McfResult final_bw =
        polish_mcf(graph, ctx, outcome.best, options, lp::McfObjective::MinMaxLoad, exact);
    ++result.evaluations;
    result.feasible = final_bw.solved;
    result.loads = final_bw.loads;
    result.flows = final_bw.flows;
    const lp::McfResult final_cost =
        polish_mcf(graph, ctx, outcome.best, options, lp::McfObjective::MinFlow, exact);
    ++result.evaluations;
    result.comm_cost = final_cost.feasible ? final_cost.objective : kMaxValue;
    return result;
}

} // namespace

SplitPolicy::SplitPolicy(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                         const SplitOptions& options)
    : graph_(graph), ctx_(ctx),
      slack_(ctx, make_mcf_options(options, lp::McfObjective::MinSlack,
                                   use_exact_inner(options))),
      flow_(ctx,
            make_mcf_options(options, lp::McfObjective::MinFlow, use_exact_inner(options))),
      routing_prefilter_(options.routing_prefilter), cancel_(options.cancel),
      commodities_(graph_commodities(graph)) {}

engine::Score SplitPolicy::evaluate(const noc::Mapping& mapping) {
    count_evaluation();
    if (!bw_satisfied_ && routed_feasible(mapping, noc::kInvalidTile, noc::kInvalidTile))
        bw_satisfied_ = true;
    if (!bw_satisfied_) {
        noc::remap_commodities(commodities_, mapping);
        const lp::McfResult slack = slack_.solve(commodities_);
        if (!slack.feasible) return engine::Score{engine::kMaxValue, slack.objective, false};
        bw_satisfied_ = true;
    }
    count_evaluation();
    noc::remap_commodities(commodities_, mapping);
    return feasible_score(flow_.solve(commodities_));
}

engine::Score SplitPolicy::evaluate_swap(const noc::Mapping& base, const engine::Score&,
                                         const engine::Score& incumbent, noc::TileId a,
                                         noc::TileId b) {
    noc::Mapping candidate = base;
    candidate.swap_tiles(a, b);
    if (!bw_satisfied_) {
        if (routed_feasible(base, a, b)) {
            // The O(deg) single-path re-route already satisfies the
            // bandwidth constraints — a fortiori so does the best
            // split-traffic flow; skip the MCF1 solve.
            bw_satisfied_ = true;
        } else {
            count_evaluation();
            if (cancelled()) return engine::Score::rejected();
            noc::remap_commodities(commodities_, candidate);
            const lp::McfResult slack = slack_.solve(commodities_);
            if (!slack.feasible)
                return engine::Score{engine::kMaxValue, slack.objective, false};
            // First bandwidth-satisfying candidate: switch to the cost
            // phase. It beats any infeasible incumbent by construction.
            bw_satisfied_ = true;
        }
    }
    count_evaluation();
    if (incumbent.feasible) {
        // The evaluator is bound to `base` (on_rebase follows every move
        // of `placed`). The guard absorbs summation-order rounding between
        // the Eq.7 sum and the MCF objective, so no candidate the solve
        // would accept is pruned.
        const double bound = evaluator_->cost() + evaluator_->swap_delta(a, b);
        const double guard = 1e-9 * (1.0 + std::abs(incumbent.primary));
        if (bound >= incumbent.primary + guard) return engine::Score::rejected();
    }
    if (cancelled()) return engine::Score::rejected();
    noc::remap_commodities(commodities_, candidate);
    return feasible_score(flow_.solve(commodities_));
}

void SplitPolicy::on_rebase(const noc::Mapping& placed, const engine::Score&) {
    if (!evaluator_)
        evaluator_.emplace(graph_, ctx_, placed);
    else
        evaluator_->rebase(placed);
    if (!routing_prefilter_ || bw_satisfied_) return;
    if (!router_)
        router_.emplace(graph_, ctx_, placed);
    else
        router_->rebase(placed);
}

/// Prefilter check: true when single-path routing of `base` (or of `base`
/// with a, b swapped) satisfies the bandwidth constraints.
bool SplitPolicy::routed_feasible(const noc::Mapping& base, noc::TileId a, noc::TileId b) {
    if (!routing_prefilter_) return false;
    if (!router_) router_.emplace(graph_, ctx_, base);
    if (a == noc::kInvalidTile) return router_->feasible();
    const bool feasible = router_->reroute_swap(a, b).feasible;
    router_->rollback();
    return feasible;
}

MappingResult map_with_splitting(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                 const SplitOptions& options) {
    if (options.optimize_bandwidth) return map_minimizing_bandwidth(graph, ctx, options);

    SplitPolicy policy(graph, ctx, options);
    const engine::SweepOutcome outcome =
        make_driver(options).sweep(initial_mapping(graph, ctx.topology()), policy);
    util::log_debug("nmap.split") << "sweeps " << outcome.sweeps
                                  << (policy.bw_satisfied() ? " cost " : " slack ")
                                  << (policy.bw_satisfied() ? outcome.best_score.primary
                                                            : outcome.best_score.secondary);

    MappingResult result;
    result.mapping = outcome.best;
    result.evaluations = policy.evaluations();

    // Final (exact) scoring of the chosen mapping.
    const bool exact = options.exact_final_polish || use_exact_inner(options);
    const lp::McfResult final_slack =
        polish_mcf(graph, ctx, outcome.best, options, lp::McfObjective::MinSlack, exact);
    ++result.evaluations;
    result.feasible = final_slack.feasible;
    if (result.feasible) {
        const lp::McfResult final_cost =
            polish_mcf(graph, ctx, outcome.best, options, lp::McfObjective::MinFlow, exact);
        ++result.evaluations;
        if (final_cost.feasible) {
            result.comm_cost = final_cost.objective;
            result.loads = final_cost.loads;
            result.flows = final_cost.flows;
            return result;
        }
        // Exact scoring disagreed with the inner engine; report the slack
        // solution's loads and keep cost at maxvalue.
        result.feasible = false;
    }
    result.comm_cost = kMaxValue;
    result.loads = final_slack.loads;
    result.flows = final_slack.flows;
    return result;
}

} // namespace nocmap::nmap
