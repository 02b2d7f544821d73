// The two mapping workloads: split-allpaths and mapping-suite.
//
// Both run a fixed list of mappings ("rows") through the library's public
// entry points — engine::Registry::run for the mapping, eval::apply for the
// simulated rows — and repeat the list until the run's time is spent. Each
// row is timed from building its EvalContext (a CLI `map` user pays that
// every time) to the mapper's return; the independent checker then
// verifies every result outside the timed region.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <sstream>

#include "apps/registry.hpp"
#include "engine/incremental_router.hpp"
#include "engine/mapper.hpp"
#include "eval/backend.hpp"
#include "harness.hpp"
#include "lp/mcf.hpp"
#include "lp/mcf_approx.hpp"
#include "nmap/initialize.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Total demand every generated graph is rescaled to, MB/s.
constexpr double kSynthTotalBandwidth = 10'000.0;
/// Link capacity of every fabric: ample, so every row is feasible.
constexpr double kAmpleCapacity = 1e9;
/// The router probe times every this-many-th tile pair.
constexpr std::size_t kRouterPairStride = 16;

struct Row {
    std::string label;
    std::string algo;
    std::shared_ptr<const graph::CoreGraph> graph;
    std::uint64_t request_seed = 0;
    bool simulate = false; ///< eval::apply with eval=simulated after mapping
};

struct RowOutcome {
    double ms = 0.0;
    engine::MapOutcome outcome;
    eval::Evaluation evaluation;
};

std::vector<Row> split_rows(std::uint64_t seed) {
    std::vector<Row> rows;
    for (std::uint64_t i = 0; i < 3; ++i) {
        auto graph = std::make_shared<const graph::CoreGraph>(
            normalized_synthetic(40, 72, derive_seed(seed, i), kSynthTotalBandwidth));
        rows.push_back({"synth40#" + std::to_string(i) + "/nmap-split", "nmap-split", graph, 0,
                        false});
    }
    return rows;
}

std::vector<Row> suite_rows(std::uint64_t seed) {
    static const char* const kApps[] = {"vopd", "mpeg4", "mwa", "mwag", "pip", "dsd", "dsp"};
    static const char* const kAlgos[] = {"nmap", "nmap-tm", "pbb", "sa", "gmap", "pmap"};
    std::vector<Row> rows;
    for (std::size_t a = 0; a < std::size(kApps); ++a) {
        auto graph = std::make_shared<const graph::CoreGraph>(apps::make_application(kApps[a]));
        for (const char* algo : kAlgos)
            rows.push_back({std::string(kApps[a]) + "/" + algo, algo, graph,
                            derive_seed(seed, 100 + a) % 1'000'000 + 1,
                            std::string(algo) == "nmap"});
    }
    const struct {
        std::size_t nodes;
        const char* algo;
    } kSynth[] = {{128, "nmap"}, {256, "nmap"}, {32, "nmap-tm"}};
    for (std::size_t i = 0; i < std::size(kSynth); ++i) {
        const std::size_t nodes = kSynth[i].nodes;
        auto graph = std::make_shared<const graph::CoreGraph>(normalized_synthetic(
            nodes, nodes * 9 / 5, derive_seed(seed, 200 + i), kSynthTotalBandwidth));
        rows.push_back({"synth" + std::to_string(nodes) + "/" + kSynth[i].algo, kSynth[i].algo,
                        graph, 0, false});
    }
    return rows;
}

eval::EvalSpec simulated_spec() {
    engine::Params params;
    params.set_assignment("eval=simulated");
    return eval::parse_spec(params);
}

/// Maps one row; timed from fabric construction to the mapper's (and, for
/// simulated rows, the simulator's) return.
RowOutcome run_row(const Row& row, Tracer& tracer, const engine::Params& params = {},
                   const std::string& span_suffix = "") {
    RowOutcome out;
    const Clock::time_point start = Clock::now();
    Scope row_span(tracer, "harness.row");
    std::unique_ptr<noc::EvalContext> ctx;
    {
        Scope span(tracer, "noc.context");
        ctx = std::make_unique<noc::EvalContext>(
            noc::Topology::smallest_mesh_for(row.graph->node_count(), kAmpleCapacity));
    }
    engine::MapRequest request;
    request.graph = row.graph.get();
    request.context = ctx.get();
    request.params = params;
    request.seed = row.request_seed;
    {
        Scope span(tracer, "engine.map." + row.algo + span_suffix);
        out.outcome = engine::registry().run(row.algo, request);
    }
    if (row.simulate && out.outcome.ok()) {
        Scope span(tracer, "eval.sim");
        out.evaluation = eval::apply(*row.graph, *ctx, out.outcome.result(), simulated_spec());
    }
    out.ms = ms_since(start);
    return out;
}

/// Lazily built checker data of one row (outside every timed region).
struct CheckData {
    check::Instance instance;
    std::vector<std::vector<int>> hops;
};

std::string verify_row(const Row& row, const RowOutcome& out,
                       std::map<std::string, CheckData>& cache) {
    if (!out.outcome.ok()) return row.label + ": " + out.outcome.error().to_string();
    auto it = cache.find(row.label);
    if (it == cache.end()) {
        CheckData data;
        data.instance = to_instance(
            *row.graph, noc::Topology::smallest_mesh_for(row.graph->node_count(), kAmpleCapacity));
        data.hops = check::hop_distances(data.instance.fabric);
        it = cache.emplace(row.label, std::move(data)).first;
    }
    const std::string why = check::verify(it->second.instance, to_answer(out.outcome.result()),
                                          routing_of(row.algo), it->second.hops);
    if (!why.empty()) return row.label + ": " + why;
    if (row.simulate && !out.evaluation.sim.measured())
        return row.label + ": simulated evaluation measured nothing (" + out.evaluation.sim.note +
               ")";
    return "";
}

struct Pass {
    double wall_ms = 0.0;
    std::vector<RowOutcome> rows;
};

Pass run_pass(const std::vector<Row>& rows, Tracer& tracer) {
    Pass pass;
    Scope span(tracer, "harness.pass");
    for (const Row& row : rows) {
        pass.rows.push_back(run_row(row, tracer));
        pass.wall_ms += pass.rows.back().ms;
    }
    return pass;
}

/// Checks every row of `pass`; costs must repeat exactly across passes
/// (every mapper is deterministic for a fixed input and seed).
void check_pass(const std::vector<Row>& rows, const Pass& pass, std::vector<double>& costs,
                std::map<std::string, CheckData>& cache, RunResult& result) {
    const bool first = costs.empty();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::string why = verify_row(rows[i], pass.rows[i], cache);
        if (why.empty()) {
            const double cost = pass.rows[i].outcome.result().comm_cost;
            if (first)
                costs.push_back(cost);
            else if (costs[i] != cost)
                why = rows[i].label + ": cost changed between passes";
        } else if (first) {
            costs.push_back(0.0);
        }
        result.count(why);
    }
}

// ---------------------------------------------------------------- probes

std::uint64_t total_evaluations(const Pass& pass) {
    std::uint64_t total = 0;
    for (const RowOutcome& r : pass.rows)
        if (r.outcome.ok()) total += r.outcome.result().evaluations;
    return total;
}

/// nmap::initial_mapping on every row of the NMAP family.
void probe_initialize(const std::vector<Row>& rows, Tracer& tracer, RunResult& result) {
    for (const Row& row : rows) {
        if (row.algo.rfind("nmap", 0) != 0) continue;
        const noc::Topology topo =
            noc::Topology::smallest_mesh_for(row.graph->node_count(), kAmpleCapacity);
        Scope span(tracer, "nmap.initialize");
        (void)nmap::initial_mapping(*row.graph, topo);
    }
    result.add("nmap.initialize.ms", tracer.total_ms("nmap.initialize"), "ms");
}

/// lp::solve_mcf_approx on `samples` random swap candidates of each `algo`
/// row's returned mapping, with the options the split mappers use inside
/// their sweeps: the mean time per solve, and the share of the rows' map
/// time it would account for at their evaluation count (computed).
void probe_approx(const std::vector<Row>& rows, const Pass& pass, const std::string& algo,
                  std::size_t samples, std::uint64_t seed, Tracer& tracer, RunResult& result) {
    std::size_t solves = 0;
    double total_us = 0.0;
    double evaluations = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i].algo != algo || !pass.rows[i].outcome.ok()) continue;
        evaluations += static_cast<double>(pass.rows[i].outcome.result().evaluations);
        const noc::Topology topo =
            noc::Topology::smallest_mesh_for(rows[i].graph->node_count(), kAmpleCapacity);
        lp::McfOptions options;
        options.objective = lp::McfObjective::MinFlow;
        options.use_exact_lp = false;
        options.approx_iterations = 32;
        options.quadrant_restricted = algo == "nmap-tm";
        std::mt19937_64 rng(derive_seed(seed, 300 + i));
        std::uniform_int_distribution<std::int32_t> pick(
            0, static_cast<std::int32_t>(topo.tile_count()) - 1);
        for (std::size_t s = 0; s < samples; ++s) {
            noc::Mapping mapping = pass.rows[i].outcome.result().mapping;
            const auto a = static_cast<noc::TileId>(pick(rng));
            auto b = static_cast<noc::TileId>(pick(rng));
            if (a == b) b = static_cast<noc::TileId>((b + 1) % topo.tile_count());
            mapping.swap_tiles(a, b);
            const auto commodities = noc::build_commodities(*rows[i].graph, mapping);
            const Clock::time_point start = Clock::now();
            Scope span(tracer, "lp.approx");
            (void)lp::solve_mcf_approx(topo, commodities, options);
            total_us += ms_since(start) * 1000.0;
            ++solves;
        }
    }
    const double us = solves ? total_us / static_cast<double>(solves) : 0.0;
    const double map_ms = tracer.total_ms("engine.map." + algo);
    result.add("lp.approx.us_per_solve", us, "us");
    result.add("lp.approx.est_share", map_ms > 0 ? us / 1000.0 * evaluations / map_ms : 0.0,
               "ratio");
}

/// The exact final polish of nmap-split, replayed through lp::solve_mcf on
/// each returned mapping (MinSlack, then MinFlow), and the wall-time
/// cross-check: the default mapping run again, then with
/// exact_final_polish=false, back to back so that load drifting on the host
/// hits both sides alike.
void probe_polish(const std::vector<Row>& rows, const Pass& pass, Tracer& tracer,
                  RunResult& result) {
    double polish_ms = 0.0;
    double nopolish_ms = 0.0;
    double default_ms = 0.0;
    engine::Params nopolish;
    nopolish.set_assignment("exact_final_polish=false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!pass.rows[i].outcome.ok()) continue;
        const engine::MappingResult& mapped = pass.rows[i].outcome.result();
        const noc::EvalContext ctx(
            noc::Topology::smallest_mesh_for(rows[i].graph->node_count(), kAmpleCapacity));
        const auto commodities = noc::build_commodities(*rows[i].graph, mapped.mapping);
        lp::McfOptions options;
        const Clock::time_point start = Clock::now();
        {
            Scope span(tracer, "lp.polish");
            options.objective = lp::McfObjective::MinSlack;
            (void)lp::solve_mcf(ctx, commodities, options);
            options.objective = lp::McfObjective::MinFlow;
            const lp::McfResult flow = lp::solve_mcf(ctx, commodities, options);
            if (flow.objective != mapped.comm_cost)
                result.notes.push_back(rows[i].label +
                                       ": replayed polish objective differs from comm_cost");
        }
        polish_ms += ms_since(start);
        default_ms += run_row(rows[i], tracer, {}, ".again").ms;
        nopolish_ms += run_row(rows[i], tracer, nopolish, ".nopolish").ms;
    }
    const double map_ms = tracer.total_ms("engine.map.nmap-split");
    result.add("lp.polish.ms", polish_ms, "ms");
    result.add("lp.polish.share", map_ms > 0 ? polish_ms / map_ms : 0.0, "ratio");
    result.add("lp.polish.wall_diff_ms", default_ms - nopolish_ms, "ms");

    // Size of the dense MinFlow program over all paths (computed from the
    // formulation, not measured): one flow column per (commodity, link),
    // one conservation row per (commodity, non-destination tile), one
    // capacity row per link; the tableau adds a slack per capacity row and
    // an artificial per equality row, plus the RHS column.
    const auto& g = *rows.front().graph;
    const noc::Topology topo = noc::Topology::smallest_mesh_for(g.node_count(), kAmpleCapacity);
    const double k = static_cast<double>(g.edge_count());
    const double t = static_cast<double>(topo.tile_count());
    const double l = static_cast<double>(topo.link_count());
    const double lp_rows = k * (t - 1) + l;
    const double lp_cols = k * l + l + k * (t - 1);
    result.add("lp.polish.rows", lp_rows, "count");
    result.add("lp.polish.cols", lp_cols, "count");
    result.add("lp.polish.tableau_mb", lp_rows * (lp_cols + 1) * 8.0 / (1024.0 * 1024.0), "MB");
    std::ostringstream note;
    note << "lp.polish: replayed " << polish_ms << " ms vs default-minus-unpolished wall "
         << default_ms - nopolish_ms << " ms; rows/cols/tableau_mb are computed from the "
         << "formulation, not measured";
    result.notes.push_back(note.str());
}

/// IncrementalRouter::reroute_swap + rollback over the tile pairs of the
/// largest single-path NMAP result: every kRouterPairStride-th pair in
/// lexicographic order, which touches every tile (all 32640 pairs of the
/// 256-core result take about half a minute).
void probe_router(const std::vector<Row>& rows, const Pass& pass, Tracer& tracer,
                  RunResult& result) {
    std::size_t best = rows.size();
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].algo == "nmap" && pass.rows[i].outcome.ok() &&
            (best == rows.size() || rows[i].graph->node_count() > rows[best].graph->node_count()))
            best = i;
    if (best == rows.size()) return;
    const noc::EvalContext ctx(
        noc::Topology::smallest_mesh_for(rows[best].graph->node_count(), kAmpleCapacity));
    engine::IncrementalRouter router(*rows[best].graph, ctx,
                                     pass.rows[best].outcome.result().mapping);
    const auto tiles = static_cast<noc::TileId>(ctx.topology().tile_count());
    std::size_t swaps = 0;
    const Clock::time_point start = Clock::now();
    {
        Scope span(tracer, "engine.router");
        std::size_t pair = 0;
        for (noc::TileId a = 0; a < tiles; ++a)
            for (noc::TileId b = a + 1; b < tiles; ++b) {
                if (pair++ % kRouterPairStride != 0) continue;
                (void)router.reroute_swap(a, b);
                router.rollback();
                ++swaps;
            }
    }
    result.add("engine.router.us_per_swap", ms_since(start) * 1000.0 / static_cast<double>(swaps),
               "us");
}

void add_engine_metrics(const std::vector<Row>& rows, const Pass& pass, Tracer& tracer,
                        RunResult& result) {
    std::vector<std::string> algos;
    for (const Row& row : rows)
        if (std::find(algos.begin(), algos.end(), row.algo) == algos.end())
            algos.push_back(row.algo);
    double map_ms = 0.0;
    for (const std::string& algo : algos) {
        const double ms = tracer.total_ms("engine.map." + algo);
        map_ms += ms;
        result.add("engine.map." + algo + ".ms", ms, "ms");
    }
    const auto evaluations = static_cast<double>(total_evaluations(pass));
    result.add("engine.evaluations", evaluations, "count");
    result.add("engine.evals_per_s", map_ms > 0 ? evaluations / (map_ms / 1000.0) : 0.0, "1/s");
}

void add_sim_metrics(const std::vector<Row>& rows, const Pass& pass, Tracer& tracer,
                     RunResult& result) {
    double cycles = 0.0;
    double packets = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!rows[i].simulate) continue;
        cycles += static_cast<double>(pass.rows[i].evaluation.sim.cycles);
        packets += static_cast<double>(pass.rows[i].evaluation.sim.packets);
    }
    const double ms = tracer.total_ms("eval.sim");
    result.add("eval.sim.ms", ms, "ms");
    result.add("eval.sim.cycles", cycles, "count");
    result.add("eval.sim.packets", packets, "count");
    result.add("eval.sim.kcycles_per_s", ms > 0 ? cycles / ms : 0.0, "kcycles/s");
}

RunResult run_mapping_workload(const RunOptions& opt, const std::vector<Row>& rows) {
    RunResult result;
    Tracer tracer(opt.trace);
    std::map<std::string, CheckData> check_cache;
    std::vector<double> costs;

    if (!opt.trace) {
        // Measured run: whole passes over the row list until the next pass
        // would overrun the budget (always at least one).
        const Clock::time_point start = Clock::now();
        std::vector<double> walls;
        std::vector<double> row_ms;
        do {
            const Pass pass = run_pass(rows, tracer);
            walls.push_back(pass.wall_ms / 1000.0);
            for (const RowOutcome& r : pass.rows) row_ms.push_back(r.ms);
            check_pass(rows, pass, costs, check_cache, result);
        } while (ms_since(start) / 1000.0 + walls.back() <= opt.seconds);
        const double wall_s = median(walls);
        const Summary latency = summarize(row_ms);
        result.add("wall_s", wall_s, "s");
        result.add("peak_rss_mb", peak_rss_mb(), "MB");
        result.add("cost_geomean", geomean(costs), "hop.MB/s");
        result.add("p50_ms", latency.p50, "ms");
        std::ostringstream note;
        note << "passes=" << walls.size() << " rows/pass=" << rows.size() << " pass walls (s):";
        for (const double w : walls) note << ' ' << w;
        result.notes.push_back(note.str());
        result.notes.push_back("per-mapping latency: " + latency.describe("ms"));
        return result;
    }

    // Traced run: one traced pass, then the per-layer probes.
    const Clock::time_point start = Clock::now();
    const Pass pass = run_pass(rows, tracer);
    check_pass(rows, pass, costs, check_cache, result);
    add_engine_metrics(rows, pass, tracer, result);
    add_sim_metrics(rows, pass, tracer, result);
    probe_initialize(rows, tracer, result);
    const bool has_split = std::any_of(rows.begin(), rows.end(),
                                       [](const Row& r) { return r.algo == "nmap-split"; });
    if (has_split) {
        probe_polish(rows, pass, tracer, result);
        probe_approx(rows, pass, "nmap-split", 32, opt.seed, tracer, result);
    } else {
        probe_router(rows, pass, tracer, result);
        probe_approx(rows, pass, "nmap-tm", 8, opt.seed, tracer, result);
    }
    finish_trace(tracer, ms_since(start), opt, result);
    return result;
}

} // namespace

RunResult run_split_allpaths(const RunOptions& opt) {
    const std::vector<Row> rows = split_rows(opt.seed);
    signal_ready();
    if (opt.setup_only) return {};
    return run_mapping_workload(opt, rows);
}

RunResult run_mapping_suite(const RunOptions& opt) {
    const std::vector<Row> rows = suite_rows(opt.seed);
    signal_ready();
    if (opt.setup_only) return {};
    return run_mapping_workload(opt, rows);
}

} // namespace perfbench
