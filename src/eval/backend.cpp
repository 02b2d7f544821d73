#include "eval/backend.hpp"

#include <exception>
#include <limits>
#include <utility>

#include "nmap/shortest_path_router.hpp"
#include "noc/commodity.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace nocmap::eval {

namespace {

std::vector<engine::ParamSpec> make_specs() {
    using engine::ParamSpec;
    using engine::ParamType;
    std::vector<ParamSpec> specs;
    specs.push_back({"eval", ParamType::Enum, "analytic", 0, 0, {"analytic", "simulated"},
                     "evaluation backend: the analytic Eq.7 score or a cycle-accurate "
                     "simulated run of the mapped traffic"});
    specs.push_back({"refine", ParamType::Enum, "none", 0, 0, {"none", "sim"},
                     "sim-guided refinement of the analytic seed mapping (accepts swaps "
                     "that lower simulated p99 latency)"});
    specs.push_back({"refine_trials", ParamType::Int, "8", 1, 4096, {},
                     "swap candidates per sim-guided refinement"});
    specs.push_back({"sim_cycles", ParamType::Int, "20000", 1000, 10'000'000, {},
                     "simulated measurement window, cycles"});
    specs.push_back({"sim_warmup", ParamType::Int, "2000", 0, 10'000'000, {},
                     "simulated warmup before the measurement window, cycles"});
    specs.push_back({"sim_seed", ParamType::Int, "42", 0, 9.007199254740992e15, {},
                     "traffic-generator seed of the simulated backend"});
    specs.push_back({"injection", ParamType::Enum, "bursty", 0, 0, {"bursty", "uniform"},
                     "packet injection process: ON/OFF bursts or uniform spacing"});
    specs.push_back({"burstiness", ParamType::Double, "4", 1.0, 64.0, {},
                     "peak/average injection rate inside a burst (bursty only)"});
    return specs;
}

sim::SimConfig sim_config(const EvalSpec& spec) {
    sim::SimConfig cfg;
    cfg.warmup_cycles = static_cast<std::uint64_t>(spec.sim_warmup);
    cfg.measure_cycles = static_cast<std::uint64_t>(spec.sim_cycles);
    // Budget-proportional drain: measured packets get one more window to
    // leave the network before the run is cut off.
    cfg.drain_cycles = static_cast<std::uint64_t>(spec.sim_cycles);
    cfg.seed = spec.sim_seed;
    cfg.traffic.burstiness = spec.injection == "uniform" ? 1.0 : spec.burstiness;
    return cfg;
}

/// Runs one simulation of `result` and fills the measured metrics. Never
/// throws: unsimulatable inputs come back with `note` set.
SimMetrics simulate(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                    const engine::MappingResult& result, const EvalSpec& spec,
                    const std::function<bool()>& cancelled) {
    SimMetrics m;
    m.present = true;
    if (!result.feasible) {
        m.note = "mapping infeasible; simulation skipped";
        return m;
    }
    if (result.mapping.core_count() != graph.node_count() || !result.mapping.is_complete()) {
        m.note = "mapping incomplete; simulation skipped";
        return m;
    }
    try {
        const auto commodities = noc::build_commodities(graph, result.mapping);
        if (commodities.empty()) {
            m.note = "graph has no traffic; simulation skipped";
            return m;
        }
        std::vector<sim::FlowSpec> flows;
        if (!result.flows.empty()) {
            flows = sim::make_split_flows(ctx.topology(), commodities, result.flows);
        } else {
            const auto routing = nmap::route_single_min_paths(ctx, commodities);
            flows = sim::make_single_path_flows(ctx.topology(), commodities, routing.routes);
        }
        const sim::SimConfig cfg = sim_config(spec);
        sim::Simulator simulator(ctx.topology(), std::move(flows), cfg);
        const sim::SimStats stats = simulator.run(cancelled);
        m.cycles = stats.cycles_run;
        m.stalled = stats.stalled;
        if (stats.cancelled) {
            m.note = "simulation cancelled after " + std::to_string(stats.cycles_run) + " cycles";
            return m;
        }

        // Percentiles over packets created inside the measurement window
        // and delivered before the run ended — the same filter the
        // simulator's own aggregate latency uses.
        const std::uint64_t begin = cfg.warmup_cycles;
        const std::uint64_t end = cfg.warmup_cycles + cfg.measure_cycles;
        std::vector<double> latencies;
        for (const sim::PacketRecord& p : simulator.packet_records()) {
            if (!p.completed || p.created_cycle < begin || p.created_cycle >= end) continue;
            latencies.push_back(static_cast<double>(p.ejected_cycle - p.created_cycle));
        }
        m.packets = latencies.size();
        if (!latencies.empty()) {
            double sum = 0.0;
            for (const double v : latencies) sum += v;
            m.avg_latency_cycles = sum / static_cast<double>(latencies.size());
            m.p50_latency_cycles = util::percentile(latencies, 50.0);
            m.p95_latency_cycles = util::percentile(latencies, 95.0);
            m.p99_latency_cycles = util::percentile(latencies, 99.0);
        } else if (!m.stalled) {
            m.note = "no packets completed inside the measurement window";
        }
        std::uint64_t delivered = 0;
        double jitter_sum = 0.0;
        for (const sim::FlowStats& f : stats.flows) {
            if (f.packets_ejected == 0) continue;
            delivered += f.packets_ejected;
            jitter_sum += f.jitter() * static_cast<double>(f.packets_ejected);
        }
        if (delivered > 0) m.jitter_cycles = jitter_sum / static_cast<double>(delivered);
    } catch (const std::exception& e) {
        m = SimMetrics{};
        m.present = true;
        m.note = e.what();
    }
    return m;
}

class AnalyticBackend final : public Backend {
public:
    std::string_view name() const noexcept override { return "analytic"; }
    Evaluation evaluate(const graph::CoreGraph&, const noc::EvalContext&,
                        const engine::MappingResult& result, const EvalSpec&,
                        const std::function<bool()>&) const override {
        return {result.comm_cost, result.feasible, {}};
    }
};

class SimulatedBackend final : public Backend {
public:
    std::string_view name() const noexcept override { return "simulated"; }
    Evaluation evaluate(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                        const engine::MappingResult& result, const EvalSpec& spec,
                        const std::function<bool()>& cancelled) const override {
        return {result.comm_cost, result.feasible,
                simulate(graph, ctx, result, spec, cancelled)};
    }
};

const AnalyticBackend kAnalytic{};
const SimulatedBackend kSimulated{};
const Backend* const kBackends[] = {&kAnalytic, &kSimulated};

} // namespace

const std::vector<engine::ParamSpec>& param_specs() {
    static const std::vector<engine::ParamSpec> specs = make_specs();
    return specs;
}

std::optional<engine::MapError> validate_spec(const engine::Params& params) {
    return engine::validate_params(params, param_specs());
}

EvalSpec parse_spec(const engine::Params& params) {
    EvalSpec spec;
    spec.backend = params.string_or("eval", spec.backend);
    spec.refine_sim = params.string_or("refine", "none") == "sim";
    spec.refine_trials = params.int_or("refine_trials", spec.refine_trials);
    spec.sim_cycles = params.int_or("sim_cycles", spec.sim_cycles);
    spec.sim_warmup = params.int_or("sim_warmup", spec.sim_warmup);
    spec.sim_seed = static_cast<std::uint64_t>(params.int_or(
        "sim_seed", static_cast<std::int64_t>(spec.sim_seed)));
    spec.injection = params.string_or("injection", spec.injection);
    spec.burstiness = params.double_or("burstiness", spec.burstiness);
    return spec;
}

const Backend* find_backend(std::string_view name) noexcept {
    for (const Backend* backend : kBackends)
        if (backend->name() == name) return backend;
    return nullptr;
}

std::vector<std::string_view> backend_names() {
    std::vector<std::string_view> names;
    for (const Backend* backend : kBackends) names.push_back(backend->name());
    return names;
}

RefineOutcome refine_with_sim(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                              engine::MappingResult& result, const EvalSpec& spec,
                              const std::function<bool()>& cancelled) {
    RefineOutcome outcome;
    // Split results carry an MCF flow matrix tied to the current mapping;
    // re-deriving it per swap would re-run the MCF solver. Refinement is a
    // single-path polish by design.
    if (!result.feasible || !result.flows.empty() || result.mapping.core_count() == 0 ||
        result.mapping.core_count() != graph.node_count() || !result.mapping.is_complete())
        return outcome;

    const auto p99_of = [&](const engine::MappingResult& candidate) {
        const SimMetrics m = simulate(graph, ctx, candidate, spec, cancelled);
        if (!m.measured())
            return std::pair{std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity()};
        return std::pair{m.p99_latency_cycles, m.avg_latency_cycles};
    };

    auto best = p99_of(result);
    util::Rng rng(spec.sim_seed);
    const auto tiles = static_cast<std::uint64_t>(ctx.tile_count());
    for (std::int64_t trial = 0; trial < spec.refine_trials; ++trial) {
        if (cancelled && cancelled()) break;
        const auto a = static_cast<noc::TileId>(rng.next_below(tiles));
        const auto b = static_cast<noc::TileId>(rng.next_below(tiles));
        if (a == b || (!result.mapping.is_occupied(a) && !result.mapping.is_occupied(b)))
            continue; // an identity swap; the draw still advances the stream
        noc::Mapping candidate = result.mapping;
        candidate.swap_tiles(a, b);
        const auto routing = nmap::evaluate_mapping(graph, ctx, candidate);
        ++result.evaluations;
        if (!routing.feasible) continue;
        engine::MappingResult trial_result;
        trial_result.mapping = std::move(candidate);
        trial_result.comm_cost = routing.cost;
        trial_result.feasible = true;
        trial_result.loads = routing.loads;
        trial_result.evaluations = result.evaluations;
        ++outcome.trials;
        const auto score = p99_of(trial_result);
        if (score < best) {
            best = score;
            result = std::move(trial_result);
            ++outcome.accepted;
        }
    }
    return outcome;
}

Evaluation apply(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                 engine::MappingResult& result, const EvalSpec& spec,
                 const std::function<bool()>& cancelled) {
    RefineOutcome refined;
    if (spec.refine_sim) refined = refine_with_sim(graph, ctx, result, spec, cancelled);
    const Backend* backend = find_backend(spec.backend);
    Evaluation evaluation = backend ? backend->evaluate(graph, ctx, result, spec, cancelled)
                                    : Evaluation{result.comm_cost, result.feasible, {}};
    evaluation.sim.refine_trials = refined.trials;
    evaluation.sim.refine_accepted = refined.accepted;
    return evaluation;
}

} // namespace nocmap::eval
