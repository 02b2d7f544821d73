#include "baselines/annealing.hpp"

#include "engine/sweep.hpp"
#include "nmap/initialize.hpp"
#include "nmap/shortest_path_router.hpp"

namespace nocmap::baselines {

namespace {

engine::AnnealOptions engine_options(const AnnealingOptions& options) {
    engine::AnnealOptions anneal;
    anneal.seed = options.seed;
    anneal.moves_per_temperature = options.moves_per_temperature;
    anneal.cooling = options.cooling;
    anneal.initial_acceptance = options.initial_acceptance;
    anneal.stop_fraction = options.stop_fraction;
    anneal.bandwidth_aware = options.bandwidth_aware;
    anneal.cancel = options.cancel;
    return anneal;
}

} // namespace

nmap::MappingResult annealing_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                  const AnnealingOptions& options) {
    const engine::AnnealOutcome outcome = engine::anneal(
        graph, ctx, nmap::initial_mapping(graph, ctx.topology()), engine_options(options));
    return nmap::scored_result(graph, ctx, outcome.best, outcome.evaluations);
}

} // namespace nocmap::baselines
