// Registration of the built-in mapping algorithms.
//
// This is deliberately the single translation unit where the engine layer
// names the concrete algorithms living above it (nmap/, baselines/): the
// registry mechanism itself (mapper.cpp) stays free of those dependencies,
// and adding an algorithm means adding one entry here (or calling
// Registry::add from anywhere else at startup).
//
// Every entry is a BuiltinMapper: a ParamSpec list published through
// param_specs() plus a runner that decodes the validated engine::Params
// into the algorithm's own Options struct. run() does the shared
// request checks (validation, cancellation, instance guards), so a runner
// only ever sees parameters its spec admits — and an empty Params set
// decodes to a default-constructed Options struct, keeping defaults-only
// requests bit-identical to the algorithm layers' own defaults.

#include <utility>

#include "baselines/annealing.hpp"
#include "baselines/exhaustive.hpp"
#include "baselines/gmap.hpp"
#include "baselines/pbb.hpp"
#include "baselines/pmap.hpp"
#include "engine/mapper.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"

namespace nocmap::engine {

namespace {

class BuiltinMapper final : public Mapper {
public:
    using Runner = MapOutcome (*)(const MapRequest&);

    BuiltinMapper(MapperInfo info, std::vector<ParamSpec> specs, Runner runner)
        : info_(std::move(info)), specs_(std::move(specs)), runner_(runner) {}

    const MapperInfo& info() const override { return info_; }
    const std::vector<ParamSpec>& param_specs() const override { return specs_; }

    MapOutcome run(const MapRequest& request) const override {
        if (!request.graph)
            return MapOutcome::failure(MapErrorCode::Internal, "request has no graph");
        if (!request.context)
            return MapOutcome::failure(MapErrorCode::Internal, "request has no context");
        if (auto error = validate_params(request.params, specs_))
            return MapOutcome::failure(std::move(*error));
        if (request.cancelled && request.cancelled())
            return MapOutcome::failure(MapErrorCode::Cancelled,
                                       "request cancelled before mapping started");
        if (request.graph->node_count() == 0)
            return MapOutcome::failure(MapErrorCode::UnsupportedInstance,
                                       "empty core graph");
        if (request.graph->node_count() > request.context->tile_count())
            return MapOutcome::failure(
                MapErrorCode::UnsupportedInstance,
                "more cores than tiles (|V| = " +
                    std::to_string(request.graph->node_count()) + " > |U| = " +
                    std::to_string(request.context->tile_count()) + ")");
        try {
            return runner_(request);
        } catch (const std::invalid_argument& e) {
            // The algorithm layers still throw for instance shapes only
            // they can detect; surface those as typed outcomes too.
            return MapOutcome::failure(MapErrorCode::UnsupportedInstance, e.what());
        }
    }

private:
    MapperInfo info_;
    std::vector<ParamSpec> specs_;
    Runner runner_;
};

void add(Registry& registry, const char* name, const char* description,
         std::vector<ParamSpec> specs, BuiltinMapper::Runner runner) {
    registry.add(MapperInfo{name, description},
                 [info = MapperInfo{name, description}, specs = std::move(specs), runner] {
                     return std::make_unique<BuiltinMapper>(info, specs, runner);
                 });
}

// ---------------------------------------------------------------- helpers

ParamSpec int_spec(const char* name, std::int64_t default_value, double min_value,
                   double max_value, const char* doc) {
    ParamSpec spec;
    spec.name = name;
    spec.type = ParamType::Int;
    spec.default_value = ParamValue::of_int(default_value).print();
    spec.min_value = min_value;
    spec.max_value = max_value;
    spec.doc = doc;
    return spec;
}

ParamSpec double_spec(const char* name, double default_value, double min_value,
                      double max_value, const char* doc) {
    ParamSpec spec;
    spec.name = name;
    spec.type = ParamType::Double;
    spec.default_value = ParamValue::of_double(default_value).print();
    spec.min_value = min_value;
    spec.max_value = max_value;
    spec.doc = doc;
    return spec;
}

ParamSpec bool_spec(const char* name, bool default_value, const char* doc) {
    ParamSpec spec;
    spec.name = name;
    spec.type = ParamType::Bool;
    spec.default_value = default_value ? "true" : "false";
    spec.doc = doc;
    return spec;
}

ParamSpec enum_spec(const char* name, const char* default_value,
                    std::vector<std::string> values, const char* doc) {
    ParamSpec spec;
    spec.name = name;
    spec.type = ParamType::Enum;
    spec.default_value = default_value;
    spec.enum_values = std::move(values);
    spec.doc = doc;
    return spec;
}

/// Shared sweep knobs (nmap and the split mappers run the same driver).
ParamSpec sweeps_spec() {
    return int_spec("sweeps", 1, 1, 1e6,
                    "full O(|U|^2) pairwise-swap sweeps (stops early at a fixpoint)");
}

// ------------------------------------------------------------------- nmap

const char* const kEvalNames[] = {"naive", "incremental", "ledger-exact", "ledger-fast"};

nmap::SweepEval parse_eval(const std::string& name) {
    if (name == "naive") return nmap::SweepEval::Naive;
    if (name == "incremental") return nmap::SweepEval::Incremental;
    if (name == "ledger-fast") return nmap::SweepEval::LedgerFast;
    return nmap::SweepEval::LedgerExact;
}

std::vector<ParamSpec> nmap_specs() {
    return {
        enum_spec("eval", "ledger-exact",
                  {kEvalNames[0], kEvalNames[1], kEvalNames[2], kEvalNames[3]},
                  "candidate scoring: full re-route, Eq.7 delta pruning, or the "
                  "link-load ledger (exact replay / fast rip-up-and-reroute)"),
        sweeps_spec(),
        int_spec("threads", 1, 0, 4096,
                 "worker threads per sweep row (0 = all hardware; any count is "
                 "bit-identical to serial)"),
    };
}

MapOutcome run_nmap(const MapRequest& request) {
    nmap::SinglePathOptions options;
    options.max_sweeps = static_cast<std::size_t>(request.params.int_or("sweeps", 1));
    options.threads = static_cast<std::size_t>(request.params.int_or("threads", 1));
    options.eval = parse_eval(request.params.string_or("eval", "ledger-exact"));
    options.cancel = request.cancelled;
    return MapOutcome::success(
        nmap::map_with_single_path(*request.graph, *request.context, options));
}

// ------------------------------------------------------------ split modes

std::vector<ParamSpec> split_specs() {
    return {
        int_spec("approx_iterations", 32, 1, 1e6,
                 "Frank-Wolfe iterations of the approximate inner MCF engine"),
        bool_spec("exact_final_polish", true,
                  "re-score the final mapping with the exact simplex LP"),
        enum_spec("mcf_engine", "approx", {"exact", "approx"},
                  "inner MCF engine for the per-swap evaluations: exact column "
                  "generation (the paper's literal loop) or Frank-Wolfe "
                  "approximation; exact is not the slow one (4-core host, nmap-split "
                  "synth:nodes=40,edges=72,seed=2 --bw 500: 0.09 s exact, 1.1 s "
                  "approx)"),
        bool_spec("optimize_bandwidth", false,
                  "Figure-4 variant: minimize the min-max link load instead of "
                  "MCF1/MCF2 under fixed capacities"),
        bool_spec("routing_prefilter", false,
                  "skip a candidate's MCF1 slack solve when the O(deg) single-path "
                  "re-route already proves the bandwidth constraints hold"),
        sweeps_spec(),
        bool_spec("warm_start", false,
                  "warm-start the exact inner MCF engine across consecutive swap "
                  "candidates (seed column generation with the previous optima's "
                  "paths); the approx engine ignores it"),
    };
}

MapOutcome run_split(const MapRequest& request, nmap::SplitMode mode) {
    nmap::SplitOptions options;
    options.mode = mode;
    options.max_sweeps = static_cast<std::size_t>(request.params.int_or("sweeps", 1));
    options.approx_iterations =
        static_cast<std::size_t>(request.params.int_or("approx_iterations", 32));
    options.mcf_engine = request.params.string_or("mcf_engine", "approx") == "exact"
                             ? nmap::McfEngine::Exact
                             : nmap::McfEngine::Approx;
    options.exact_final_polish = request.params.bool_or("exact_final_polish", true);
    options.optimize_bandwidth = request.params.bool_or("optimize_bandwidth", false);
    options.routing_prefilter = request.params.bool_or("routing_prefilter", false);
    options.warm_start = request.params.bool_or("warm_start", false);
    options.cancel = request.cancelled;
    return MapOutcome::success(
        nmap::map_with_splitting(*request.graph, *request.context, options));
}

// -------------------------------------------------------------------- pbb

std::vector<ParamSpec> pbb_specs() {
    return {
        int_spec("max_expansions", 200000, 0, 1e15,
                 "safety valve on node expansions (0 = unbounded)"),
        int_spec("queue_capacity", 8192, 0, 1e12,
                 "simultaneously open partial mappings (0 = unbounded = exact "
                 "branch-and-bound)"),
    };
}

MapOutcome run_pbb(const MapRequest& request) {
    baselines::PbbOptions options;
    options.queue_capacity =
        static_cast<std::size_t>(request.params.int_or("queue_capacity", 8192));
    options.max_expansions =
        static_cast<std::size_t>(request.params.int_or("max_expansions", 200000));
    options.cancel = request.cancelled;
    return MapOutcome::success(baselines::pbb_map(*request.graph, *request.context, options));
}

// --------------------------------------------------------------------- sa

std::vector<ParamSpec> sa_specs() {
    return {
        bool_spec("bandwidth_aware", false,
                  "route every accepted move and refuse to leave the feasible "
                  "region (best then tracks the best feasible mapping)"),
        double_spec("cooling", 0.95, 0.01, 0.999999,
                    "geometric cooling factor per temperature step"),
        double_spec("initial_acceptance", 0.5, 1e-6, 0.999999,
                    "initial acceptance probability for an average uphill move "
                    "(sets T0)"),
        int_spec("moves_per_temperature", 0, 0, 1e12,
                 "moves attempted per temperature step (0 = 8 * tiles^2)"),
        int_spec("seed", 1, 0, 9.007199254740992e15,
                 "RNG seed (MapRequest::seed when set; this param outranks it)"),
        double_spec("stop_fraction", 1e-3, 1e-12, 1.0,
                    "stop when the temperature falls below this fraction of T0"),
    };
}

MapOutcome run_sa(const MapRequest& request) {
    baselines::AnnealingOptions options;
    // Seed resolution order: explicit "seed" param, then the request's seed
    // field, then the algorithm default (1).
    if (request.params.contains("seed"))
        options.seed = static_cast<std::uint64_t>(request.params.int_or("seed", 1));
    else if (request.seed != 0)
        options.seed = request.seed;
    options.moves_per_temperature =
        static_cast<std::size_t>(request.params.int_or("moves_per_temperature", 0));
    options.cooling = request.params.double_or("cooling", 0.95);
    options.initial_acceptance = request.params.double_or("initial_acceptance", 0.5);
    options.stop_fraction = request.params.double_or("stop_fraction", 1e-3);
    options.bandwidth_aware = request.params.bool_or("bandwidth_aware", false);
    options.cancel = request.cancelled;
    return MapOutcome::success(
        baselines::annealing_map(*request.graph, *request.context, options));
}

// ------------------------------------------------------------- exhaustive

std::vector<ParamSpec> exhaustive_specs() {
    return {
        int_spec("max_placements", 50'000'000, 1, 9.007199254740992e15,
                 "refuse instances whose search space exceeds this many placements"),
    };
}

MapOutcome run_exhaustive(const MapRequest& request) {
    baselines::ExhaustiveOptions options;
    options.max_placements =
        static_cast<std::uint64_t>(request.params.int_or("max_placements", 50'000'000));
    // The search-space guard reports a typed error (the message matches the
    // throw exhaustive_map keeps for direct callers).
    const std::uint64_t placements = baselines::placement_count(
        request.graph->node_count(), request.context->tile_count());
    if (placements > options.max_placements)
        return MapOutcome::failure(MapErrorCode::SearchSpaceExceeded,
                                   "exhaustive_map: search space too large (" +
                                       std::to_string(placements) + " placements)",
                                   "max_placements");
    return MapOutcome::success(
        baselines::exhaustive_map(*request.graph, *request.context, options));
}

// ------------------------------------------------------- parameterless

MapOutcome run_pmap(const MapRequest& request) {
    return MapOutcome::success(baselines::pmap_map(*request.graph, *request.context));
}

MapOutcome run_gmap(const MapRequest& request) {
    return MapOutcome::success(baselines::gmap_map(*request.graph, *request.context));
}

} // namespace

namespace detail {

void register_builtin_mappers(Registry& registry) {
    add(registry, "nmap", "NMAP, single minimum-path routing (Section 5)", nmap_specs(),
        run_nmap);
    add(registry, "nmap-split", "NMAP with traffic splitting over all paths (NMAPTA)",
        split_specs(),
        [](const MapRequest& request) { return run_split(request, nmap::SplitMode::AllPaths); });
    add(registry, "nmap-tm", "NMAP with minimum-path traffic splitting (NMAPTM, Eq. 10)",
        split_specs(),
        [](const MapRequest& request) { return run_split(request, nmap::SplitMode::MinPaths); });
    add(registry, "pmap", "PMAP multiprocessor placement baseline", {}, run_pmap);
    add(registry, "gmap", "Greedy constructive placement baseline", {}, run_gmap);
    add(registry, "pbb", "Partial branch-and-bound (Hu & Marculescu)", pbb_specs(), run_pbb);
    add(registry, "sa", "Simulated annealing on the Eq.7 objective", sa_specs(), run_sa);
    add(registry, "exhaustive", "Exhaustive optimum (tiny instances only)",
        exhaustive_specs(), run_exhaustive);
}

} // namespace detail

} // namespace nocmap::engine
