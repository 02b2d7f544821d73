#pragma once
// eval::Backend — pluggable evaluation backends for finished mappings.
//
// The mappers optimize the paper's analytic Eq.7 cost under the
// Inequality-3 bandwidth check. This subsystem makes "what a mapping is
// worth" pluggable: the `analytic` backend reports exactly what the mapper
// computed (the historical behaviour, byte-identical defaults), while the
// `simulated` backend replays the mapped traffic through the cycle-accurate
// wormhole simulator (src/sim/) and reports measured packet latency
// percentiles, jitter, and throughput — the metrics the paper's SystemC
// model measures but the analytic proxy can only approximate.
//
// Backends are selected through the PR 5 typed-param API: an evaluation
// spec is an engine::Params set validated against eval::param_specs()
// (`eval=analytic|simulated`, sim knobs, `refine=sim`). It is deliberately
// a *separate* parameter set from the mapper's own params — the nmap mapper
// already publishes an unrelated `eval` knob for its sweep evaluator.
//
// On top of the simulated backend sits budgeted sim-guided refinement
// (`refine=sim`): a short random swap-sweep over the analytic seed mapping
// that accepts swaps which lower the simulated p99 packet latency while
// keeping bandwidth feasibility. Everything here is deterministic for a
// fixed spec: repeated evaluations of the same mapping produce identical
// metrics on any host and at any portfolio thread count.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/map_api.hpp"
#include "engine/mapping_result.hpp"
#include "engine/params.hpp"
#include "graph/core_graph.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::eval {

/// Measured metrics of one simulated evaluation. Latencies are in cycles
/// over the measurement window (packets created inside the window and
/// delivered before the drain deadline).
struct SimMetrics {
    /// True when a simulated evaluation was requested for this result; the
    /// analytic backend leaves it false and reports nothing else here.
    bool present = false;
    double avg_latency_cycles = 0.0;
    double p50_latency_cycles = 0.0;
    double p95_latency_cycles = 0.0;
    double p99_latency_cycles = 0.0;
    /// Packet-weighted mean of per-flow delivery jitter (stddev of the
    /// inter-arrival gap — the paper's jitter metric).
    double jitter_cycles = 0.0;
    std::uint64_t packets = 0; ///< measured packets the percentiles cover
    std::uint64_t cycles = 0;  ///< simulated cycles executed
    bool stalled = false;      ///< the wormhole-deadlock watchdog fired
    std::uint32_t refine_trials = 0;   ///< sim-guided swap trials executed
    std::uint32_t refine_accepted = 0; ///< trials that lowered p99
    /// Non-empty when the simulation was skipped (infeasible/incomplete
    /// mapping, unsimulatable rates, ...) — the reason, verbatim.
    std::string note;

    /// True when the latency figures are trustworthy: the sim ran to
    /// completion and measured at least one packet.
    bool measured() const { return present && note.empty() && !stalled && packets > 0; }

    friend bool operator==(const SimMetrics&, const SimMetrics&) = default;
};

/// Parsed, validated view of an evaluation spec (see param_specs()).
struct EvalSpec {
    std::string backend = "analytic"; ///< `eval=` — analytic | simulated
    bool refine_sim = false;          ///< `refine=sim`
    std::int64_t refine_trials = 8;   ///< swap candidates per refinement
    std::int64_t sim_cycles = 20'000; ///< measurement window, cycles
    std::int64_t sim_warmup = 2'000;  ///< warmup before the window
    std::uint64_t sim_seed = 42;      ///< traffic-generator seed
    std::string injection = "bursty"; ///< bursty | uniform
    double burstiness = 4.0;          ///< peak/average rate (bursty only)

    bool simulated() const { return backend == "simulated"; }
};

/// The published spec list the evaluation params validate against:
/// eval, refine, refine_trials, sim_cycles, sim_warmup, sim_seed,
/// injection, burstiness — all defaulted so `{}` means "analytic".
const std::vector<engine::ParamSpec>& param_specs();

/// Validates `params` against param_specs() (unknown key / bad type /
/// out-of-range -> the usual typed MapError). std::nullopt when valid.
std::optional<engine::MapError> validate_spec(const engine::Params& params);

/// Parses a *validated* params set into an EvalSpec. Precondition:
/// validate_spec(params) returned std::nullopt.
EvalSpec parse_spec(const engine::Params& params);

/// What a backend reports for one finished mapping.
struct Evaluation {
    double comm_cost = 0.0;
    bool feasible = false;
    SimMetrics sim;
};

/// One evaluation backend. Implementations are stateless singletons; the
/// registry hands out const pointers that stay valid for the process
/// lifetime. evaluate() never throws — unsimulatable inputs degrade to
/// SimMetrics::note. `cancelled` (may be empty) is the request's deadline
/// hook; the simulated backend polls it inside the cycle loop and reports
/// a cancelled run through SimMetrics::note.
class Backend {
public:
    virtual ~Backend() = default;
    virtual std::string_view name() const noexcept = 0;
    virtual Evaluation evaluate(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                const engine::MappingResult& result, const EvalSpec& spec,
                                const std::function<bool()>& cancelled) const = 0;
};

/// Backend by name; nullptr when unknown (validate_spec rejects unknown
/// names first, so callers on the validated path can assert non-null).
const Backend* find_backend(std::string_view name) noexcept;

/// Registered backend names, in registration order (analytic, simulated).
std::vector<std::string_view> backend_names();

struct RefineOutcome {
    std::uint32_t trials = 0;   ///< candidate swaps actually simulated
    std::uint32_t accepted = 0; ///< swaps that strictly lowered p99
};

/// Budgeted sim-guided refinement: up to spec.refine_trials random tile
/// swaps of the (feasible, complete, single-path) `result`; each candidate
/// is re-routed analytically and, when still bandwidth-feasible, scored by
/// a simulated run — strictly lower p99 latency wins and replaces `result`
/// (mapping, cost, loads). Deterministic in spec.sim_seed. `cancelled` is
/// polled between trials (PR 8 deadline machinery); an early stop keeps the
/// best mapping found so far, and the caller's deadline check decides
/// whether that still counts as a typed deadline error.
RefineOutcome refine_with_sim(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                              engine::MappingResult& result, const EvalSpec& spec,
                              const std::function<bool()>& cancelled = {});

/// One-stop entry the portfolio runner and shard coordinator share:
/// refines `result` when spec.refine_sim, then evaluates it through the
/// selected backend. The returned SimMetrics carry the refine counters.
/// `cancelled` is polled between refinement trials and inside every
/// simulated run; a run it stops carries a note, and the caller's
/// deadline check turns that into the typed deadline error.
Evaluation apply(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                 engine::MappingResult& result, const EvalSpec& spec,
                 const std::function<bool()>& cancelled = {});

} // namespace nocmap::eval
