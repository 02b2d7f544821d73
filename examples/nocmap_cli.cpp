// nocmap_cli — file-driven command-line front end to the library.
//
// Usage:
//   nocmap_cli map    <app|graph-file> [--mesh WxH] [--bw MBps]
//                     [--algo <name>] [--opt key=value]...
//                     [--eval-opt key=value]... [--seed N]
//                     (see `nocmap_cli algos` / `--describe-algo <name>`)
//   nocmap_cli bw     <app|graph-file> [--mesh WxH]
//   nocmap_cli netlist <app|graph-file> [--mesh WxH] [--bw MBps]
//   nocmap_cli dot    <app|graph-file>
//   nocmap_cli portfolio <app|graph-file>... [--topologies specs]
//                     [--algo <name>] [--opt key=value]...
//                     [--eval-opt key=value]... [--seed N]
//                     [--bw MBps] [--threads N] [--deadline-ms N]
//                     [--json path] [--json-stable]
//   nocmap_cli serve  [--socket PORT] [--max-connections N] [--max-pending N]
//                     [--idle-timeout-ms N] [--deadline-ms N]
//                     [--cache-topologies N] [--threads N]
//                     [--topologies specs] [--algo <name>] [--bw MBps]
//                     [--opt key=value]... [--seed N]
//                     [--fault-stall-ms N [--fault-every N]]
//   nocmap_cli shard  <app|graph-file>... (--workers host:port,... |
//                     --spawn-workers N)
//                     [--connect-timeout-ms N] [--io-timeout-ms N]
//                     [--deadline-ms N] [--faults spec]
//                     [--topologies specs] [--algo <name>] [--bw MBps]
//                     [--opt key=value]... [--eval-opt key=value]...
//                     [--seed N] [--json path] [--print-metrics]
//   nocmap_cli apps
//   nocmap_cli algos            (also: --list-algos anywhere)
//   nocmap_cli --list-apps [--json]
//   nocmap_cli --describe-algo <name> [--json]
//
// <app> is a built-in application name (see `nocmap_cli apps`), a path to
// a core-graph text file (graph/node/edge records; see graph/graph_io.hpp),
// or a synthetic-generator spec like `synth:nodes=24,edges=40,seed=7`
// (apps/synthetic.hpp; deterministic in the spec). `--list-apps` prints the
// registry — with --json the deterministic apps::registry_json() document,
// which the serve daemon's "list-apps" verb embeds verbatim.
// Algorithms are resolved through engine::registry(), so newly registered
// mappers show up here without CLI changes.
//
// Evaluation backends: `--eval-opt key=value` (repeatable) selects how a
// finished mapping is scored — `eval=analytic` (default, Eq.7 cost) or
// `eval=simulated` (cycle-accurate wormhole simulation; knobs sim_cycles,
// sim_warmup, sim_seed, injection, burstiness), plus `refine=sim` for
// budgeted simulation-guided swap refinement. See src/eval/backend.hpp.
// Applies to `map` and to every scenario of a portfolio/shard run; with
// simulated metrics present the portfolio report adds per-app Pareto
// fronts over (cost, p99 latency, energy).
//
// Algorithm knobs: every registered mapper publishes a ParamSpec table
// (`--describe-algo <name>` renders it; with --json, the deterministic
// document the CI golden fixtures pin). `--opt key=value` (repeatable)
// passes knobs through engine::MapRequest — unknown keys and out-of-range
// values are typed errors, never silent defaults — and `--seed N` seeds
// the RNG-using mappers. Both apply to `map` and to every scenario of a
// portfolio run.
//
// Portfolio mode (`portfolio` command, or `--portfolio` on any command)
// takes several applications and sweeps each across the `--topologies`
// candidates (default mesh,torus,ring,hypercube; specs accept explicit
// sizes like torus:4x4) on a shared portfolio::TopologyCache, printing the
// scalarized fabric ranking and optionally writing JSON with --json.
// Any failed scenario is reported on stderr and flips the exit code to 1
// (the JSON artifact is still written), so CI gates cannot silently pass.
//
// Serve mode runs the long-lived mapping daemon: line-delimited JSON
// requests on stdin (responses on stdout) or, with --socket, over TCP.
// --cache-topologies bounds the persistent fabric cache (LRU eviction);
// --topologies/--algo/--bw set the per-request defaults; --max-connections
// caps concurrent TCP sessions (default 64, 0 = unbounded). Robustness
// knobs: --max-pending caps map requests concurrently in flight (over the
// cap -> typed "overloaded" error, default 256), --idle-timeout-ms evicts
// silent TCP sessions, --deadline-ms sets the default per-scenario
// wall-clock budget (a request's own "deadline_ms" outranks it), and
// SIGTERM/SIGINT trigger a graceful drain (stop accepting, finish
// in-flight work, flush, exit 0). --fault-stall-ms/--fault-every wedge the
// dispatch path on schedule — chaos testing only. See
// src/service/protocol.hpp for the request/response schema.
//
// Shard mode distributes a portfolio run over serve workers — either
// already-running daemons (--workers host:port,...) or a fleet of local
// subprocesses forked for the run (--spawn-workers N, which splits this
// host's --threads budget over the children). Whole scenarios are
// scattered, weighted by the cores each worker advertises, and the merged
// report is byte-identical to a single-node
// `portfolio --json --json-stable` run; see src/shard/coordinator.hpp.
// --connect-timeout-ms/--io-timeout-ms bound each worker link's syscalls
// (a silent worker becomes a transport failure the coordinator retries
// elsewhere instead of a hang); --faults injects scheduled link faults
// (worker:index:action[:ms], see src/shard/fault.hpp) for chaos testing.

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <signal.h>

#include "apps/registry.hpp"
#include "engine/mapper.hpp"
#include "engine/thread_budget.hpp"
#include "eval/backend.hpp"
#include "graph/graph_io.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "noc/energy.hpp"
#include "noc/eval_context.hpp"
#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "service/service.hpp"
#include "shard/coordinator.hpp"
#include "shard/fault.hpp"
#include "sim/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

graph::CoreGraph load_graph(const std::string& spec) {
    return apps::load_graph_or_application(spec);
}

struct CliOptions {
    std::string command;
    std::string target;
    std::vector<std::string> targets; ///< portfolio mode: all positionals
    std::string algo = "nmap";
    engine::Params params;       ///< --opt key=value (repeatable)
    engine::Params eval_params;  ///< --eval-opt key=value (evaluation backend)
    bool list_apps = false;      ///< --list-apps: print the app registry
    std::uint64_t seed = 0;      ///< --seed (0 = algorithm default)
    std::string describe_algo;   ///< --describe-algo: render the ParamSpec table
    bool json_stdout = false;    ///< --json without a path (describe mode)
    std::string fabric = "mesh"; // mesh | torus | ring | hypercube
    std::string topologies = "mesh,torus,ring,hypercube";
    std::string json_path;  ///< portfolio mode: write JSON here
    std::size_t threads = 1; ///< portfolio worker threads (0 = hardware)
    std::size_t cache_topologies = 0; ///< serve: fabric cache bound (0 = unbounded)
    std::size_t socket_port = 0;      ///< serve: TCP port (0 = stdin/stdout)
    std::size_t max_connections = 64; ///< serve: concurrent TCP sessions (0 = unbounded)
    std::string workers;              ///< shard: host:port,... of running daemons
    std::size_t spawn_workers = 0;    ///< shard: fork N local serve workers
    std::size_t max_pending = 256;    ///< serve: in-flight map admission cap
    std::uint64_t idle_timeout_ms = 0; ///< serve: silent-session eviction
    std::uint64_t deadline_ms = 0;     ///< per-scenario wall-clock budget
    std::uint64_t connect_timeout_ms = 10000; ///< shard: link connect budget
    std::uint64_t io_timeout_ms = 0;   ///< shard: per-syscall link budget
    std::uint64_t fault_stall_ms = 0;  ///< serve chaos: dispatch stall
    std::size_t fault_every = 1;       ///< serve chaos: stall every Nth request
    std::string faults;                ///< shard chaos: FaultPlan spec
    bool socket_mode = false;
    bool json_stable = false; ///< portfolio JSON: deterministic document
    bool portfolio = false;
    std::size_t metrics_port = 0; ///< serve: /metrics HTTP port (0 = ephemeral)
    bool metrics_port_set = false;
    bool print_metrics = false; ///< portfolio/shard: dump obs JSON after the run
    std::int32_t width = 0;
    std::int32_t height = 0;
    double bandwidth = 0.0; // 0 = ample
};

bool parse_mesh(const std::string& text, std::int32_t& w, std::int32_t& h) {
    const auto parts = util::split(text, 'x');
    std::size_t pw = 0, ph = 0;
    if (parts.size() != 2 || !util::parse_size(parts[0], pw) || !util::parse_size(parts[1], ph))
        return false;
    w = static_cast<std::int32_t>(pw);
    h = static_cast<std::int32_t>(ph);
    return w > 0 && h > 0;
}

int usage() {
    std::cerr << "usage: nocmap_cli map|bw|netlist|dot <app|graph-file> "
                 "[--mesh WxH] [--fabric mesh|torus|ring|hypercube] [--bw MBps] "
                 "[--algo "
              << util::join(engine::registry().names(), "|")
              << "] [--opt key=value]... [--eval-opt key=value]... [--seed N]\n"
                 "       nocmap_cli portfolio <app|graph-file>... "
                 "[--topologies mesh,torus:4x4,ring,hypercube] [--algo name] "
                 "[--opt key=value]... [--eval-opt key=value]... [--seed N] "
                 "[--deadline-ms N] "
                 "[--bw MBps] [--threads N] [--json path] [--json-stable] "
                 "[--print-metrics]\n"
                 "       nocmap_cli serve [--socket PORT] [--metrics-port PORT] "
                 "[--max-connections N] "
                 "[--max-pending N] [--idle-timeout-ms N] [--deadline-ms N] "
                 "[--cache-topologies N] [--threads N] [--topologies specs] "
                 "[--algo name] [--bw MBps] [--opt key=value]... [--seed N] "
                 "[--fault-stall-ms N [--fault-every N]]\n"
                 "       nocmap_cli shard <app|graph-file>... "
                 "(--workers host:port,... | --spawn-workers N) "
                 "[--connect-timeout-ms N] "
                 "[--io-timeout-ms N] [--deadline-ms N] "
                 "[--faults worker:index:action[:ms],...] [--topologies specs] "
                 "[--algo name] [--opt key=value]... [--eval-opt key=value]... "
                 "[--seed N] [--bw MBps] "
                 "[--threads N] [--json path] [--print-metrics]\n"
                 "       nocmap_cli apps | algos\n"
                 "       nocmap_cli --list-apps [--json]\n"
                 "       nocmap_cli --describe-algo <name> [--json]\n";
    return 2;
}

/// --describe-algo: the ParamSpec table of one registered mapper, or (with
/// --json) the deterministic JSON document the golden CI fixtures pin.
int cmd_describe(const CliOptions& opt) {
    const auto description = engine::registry().describe(opt.describe_algo);
    if (opt.json_stdout || !opt.json_path.empty()) {
        const std::string document = engine::describe_json(description);
        if (opt.json_path.empty()) {
            std::cout << document;
            return 0;
        }
        std::ofstream out(opt.json_path);
        if (!out) {
            std::cerr << "error: cannot write " << opt.json_path << '\n';
            return 1;
        }
        out << document;
        return 0;
    }
    util::Table table(description.info.name + " — " + description.info.description);
    table.set_header({"param", "type", "default", "range", "description"});
    for (const auto& spec : description.params) {
        std::string range = "-";
        if (!spec.enum_values.empty())
            range = util::join(spec.enum_values, "|");
        else if (spec.type == engine::ParamType::Int ||
                 spec.type == engine::ParamType::Double) {
            const bool lo = std::isfinite(spec.min_value);
            const bool hi = std::isfinite(spec.max_value);
            if (lo || hi)
                range =
                    "[" +
                    (lo ? engine::print_bound(spec, spec.min_value) : std::string("-inf")) +
                    ", " +
                    (hi ? engine::print_bound(spec, spec.max_value) : std::string("inf")) +
                    "]";
        }
        table.add_row({spec.name, std::string(engine::param_type_name(spec.type)),
                       spec.default_value, range, spec.doc});
    }
    if (description.params.empty())
        table.add_row({"(none)", "", "", "", "this mapper has no parameters"});
    table.print(std::cout);
    return 0;
}

noc::Topology make_topology(const CliOptions& opt, const graph::CoreGraph& g) {
    const double capacity = opt.bandwidth > 0 ? opt.bandwidth : 1e9;
    if (opt.fabric == "ring")
        return noc::Topology::ring(std::max<std::size_t>(3, g.node_count()), capacity);
    if (opt.fabric == "hypercube") {
        std::size_t dim = 1;
        while ((std::size_t{1} << dim) < g.node_count()) ++dim;
        return noc::Topology::hypercube(dim, capacity);
    }
    if (opt.fabric == "torus") {
        const auto mesh = opt.width > 0
                              ? noc::Topology::mesh(opt.width, opt.height, capacity)
                              : noc::Topology::smallest_mesh_for(g.node_count(), capacity);
        return noc::Topology::torus(std::max(3, mesh.width()),
                                    std::max(3, mesh.height()), capacity);
    }
    if (opt.fabric != "mesh") throw std::invalid_argument("unknown fabric '" + opt.fabric + "'");
    if (opt.width > 0) return noc::Topology::mesh(opt.width, opt.height, capacity);
    return noc::Topology::smallest_mesh_for(g.node_count(), capacity);
}

int cmd_algos() {
    util::Table table("Registered mapping algorithms");
    table.set_header({"name", "description"});
    for (const auto& info : engine::registry().infos())
        table.add_row({info.name, info.description});
    table.print(std::cout);
    return 0;
}

/// --list-apps: the application registry, as a table or (with --json) the
/// deterministic apps::registry_json() document — byte-identical to the
/// "registry" field of the serve daemon's "list-apps" response.
int cmd_list_apps(const CliOptions& opt) {
    if (opt.json_stdout || !opt.json_path.empty()) {
        const std::string document = apps::registry_json();
        if (opt.json_path.empty()) {
            std::cout << document;
            return 0;
        }
        std::ofstream out(opt.json_path);
        if (!out) {
            std::cerr << "error: cannot write " << opt.json_path << '\n';
            return 1;
        }
        out << document;
        return 0;
    }
    util::Table table("Application registry (plus synth:nodes=N,edges=E,seed=S,... specs)");
    table.set_header({"name", "cores", "edges", "total BW (MB/s)", "description"});
    for (const auto& info : apps::all_applications()) {
        const auto g = info.factory();
        table.add_row({info.name, util::Table::num(static_cast<long long>(info.cores)),
                       util::Table::num(static_cast<long long>(g.edge_count())),
                       util::Table::num(g.total_bandwidth(), 0), info.description});
    }
    table.print(std::cout);
    return 0;
}

int cmd_apps() {
    util::Table table("Built-in applications");
    table.set_header({"name", "cores", "edges", "total BW (MB/s)", "description"});
    for (const auto& info : apps::all_applications()) {
        const auto g = info.factory();
        table.add_row({info.name, util::Table::num(static_cast<long long>(info.cores)),
                       util::Table::num(static_cast<long long>(g.edge_count())),
                       util::Table::num(g.total_bandwidth(), 0), info.description});
    }
    table.print(std::cout);
    return 0;
}

int cmd_map(const CliOptions& opt, const graph::CoreGraph& g) {
    const auto topo = make_topology(opt, g);
    const auto ctx = noc::EvalContext::borrow(topo);
    engine::MapRequest request;
    request.graph = &g;
    request.context = &ctx;
    request.params = opt.params;
    request.seed = opt.seed;
    // --deadline-ms: the same fired-flag conversion PortfolioRunner does —
    // a mid-run cancel returns best-so-far "success", which must surface
    // as the typed deadline error, never as a silently truncated mapping.
    std::shared_ptr<std::atomic<bool>> deadline_fired;
    if (opt.deadline_ms > 0) {
        deadline_fired = std::make_shared<std::atomic<bool>>(false);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(opt.deadline_ms);
        request.cancelled = [deadline, deadline_fired] {
            if (std::chrono::steady_clock::now() < deadline) return false;
            deadline_fired->store(true, std::memory_order_relaxed);
            return true;
        };
    }
    engine::MapOutcome outcome = engine::run_by_name(opt.algo, request);
    if (deadline_fired && deadline_fired->load(std::memory_order_relaxed)) {
        std::cerr << "error[" << engine::to_string(engine::MapErrorCode::DeadlineExceeded)
                  << "]: " << portfolio::deadline_error_message(opt.deadline_ms) << '\n';
        return 1;
    }
    if (!outcome.ok()) {
        // Structured failure: the stable code in brackets, the offending
        // parameter when there is one.
        const engine::MapError& error = outcome.error();
        std::cerr << "error[" << engine::to_string(error.code) << "]: " << error.message;
        if (!error.param.empty()) std::cerr << " (param '" << error.param << "')";
        std::cerr << '\n';
        return 1;
    }
    auto result = std::move(outcome.result());

    // Evaluation backend (--eval-opt): refine=sim may replace the mapping,
    // so it runs before the describe/energy block; refinement polls the
    // same deadline hook as the mapper.
    eval::Evaluation evaluation;
    if (!opt.eval_params.empty()) {
        if (const auto err = eval::validate_spec(opt.eval_params)) {
            std::cerr << "error[" << engine::to_string(err->code) << "]: " << err->message;
            if (!err->param.empty()) std::cerr << " (param '" << err->param << "')";
            std::cerr << '\n';
            return 1;
        }
        const eval::EvalSpec spec = eval::parse_spec(opt.eval_params);
        if (spec.simulated() || spec.refine_sim) {
            evaluation = eval::apply(g, ctx, result, spec, request.cancelled);
            if (deadline_fired && deadline_fired->load(std::memory_order_relaxed)) {
                std::cerr << "error["
                          << engine::to_string(engine::MapErrorCode::DeadlineExceeded)
                          << "]: " << portfolio::deadline_error_message(opt.deadline_ms)
                          << '\n';
                return 1;
            }
        }
    }

    std::cout << "algorithm: " << opt.algo << "\nfabric: " << opt.fabric << " ("
              << topo.tile_count() << " tiles, " << topo.link_count() << " links) @ "
              << (opt.bandwidth > 0 ? std::to_string(opt.bandwidth) + " MB/s"
                                    : std::string("ample"))
              << " links\n"
              << describe(result, g, ctx);
    if (result.feasible) {
        const auto d = noc::build_commodities(g, result.mapping);
        std::cout << "energy: " << noc::mapping_energy_mw(topo, d) << " mW\n";
    }
    if (evaluation.sim.present) {
        const eval::SimMetrics& s = evaluation.sim;
        if (s.refine_trials > 0)
            std::cout << "refine: " << s.refine_accepted << " of " << s.refine_trials
                      << " simulated swap trials accepted\n";
        if (!s.note.empty())
            std::cout << "sim: " << s.note << '\n';
        else if (s.stalled)
            std::cout << "sim: stalled (deadlock or saturation inside the window)\n";
        else
            std::cout << "sim: " << s.packets << " packets over " << s.cycles
                      << " cycles, latency p50 " << s.p50_latency_cycles << " / p95 "
                      << s.p95_latency_cycles << " / p99 " << s.p99_latency_cycles
                      << " cycles, jitter " << s.jitter_cycles << " cycles\n";
    }
    return result.feasible ? 0 : 1;
}

int cmd_bw(const CliOptions& opt, const graph::CoreGraph& g) {
    const auto topo = make_topology(opt, g);
    const auto nm = nmap::map_with_single_path(g, noc::EvalContext::borrow(topo));
    const auto d = noc::build_commodities(g, nm.mapping);
    lp::McfOptions tm;
    tm.objective = lp::McfObjective::MinMaxLoad;
    tm.quadrant_restricted = true;
    lp::McfOptions ta = tm;
    ta.quadrant_restricted = false;
    util::Table table("Minimum uniform link bandwidth (NMAP mapping)");
    table.set_header({"routing", "MB/s"});
    if (topo.kind() != noc::TopologyKind::Custom) // XY needs a grid
        table.add_row({"dimension-ordered (XY)",
                       util::Table::num(noc::max_load(noc::xy_loads(topo, d)), 1)});
    table.add_row({"single min-path", util::Table::num(noc::max_load(nm.loads), 1)});
    table.add_row({"split, min paths (TM)",
                   util::Table::num(lp::solve_mcf(topo, d, tm).objective, 1)});
    table.add_row({"split, all paths (TA)",
                   util::Table::num(lp::solve_mcf(topo, d, ta).objective, 1)});
    table.print(std::cout);
    return 0;
}

int cmd_portfolio(const CliOptions& opt) {
    if (opt.json_stdout) {
        // A bare --json is only meaningful in describe mode; here the
        // table report owns stdout, so silently writing nothing would
        // look like success.
        std::cerr << "error: --json needs a path in portfolio mode\n";
        return 2;
    }
    const double capacity = opt.bandwidth > 0 ? opt.bandwidth : 1e9;
    const auto specs = portfolio::parse_topology_list(opt.topologies, capacity);
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    for (const std::string& target : opt.targets)
        apps.emplace_back(target,
                          std::make_shared<const graph::CoreGraph>(load_graph(target)));

    obs::Registry metrics; // outlives the runner that feeds it
    portfolio::PortfolioOptions options;
    options.threads = opt.threads;
    if (opt.print_metrics) options.metrics = &metrics;
    portfolio::PortfolioRunner runner(options);
    const auto grid = portfolio::make_grid(apps, specs, opt.algo, opt.params, opt.seed,
                                           opt.deadline_ms, opt.eval_params);
    const auto results = runner.run(grid);
    const auto fabric_ranking = portfolio::PortfolioRunner::rank_topologies(results);

    portfolio::print_report(std::cout, results, fabric_ranking);
    std::cout << "cache: " << runner.cache().size() << " fabrics built, "
              << runner.cache().hits() << " hits / " << runner.cache().misses()
              << " misses\n";
    if (!opt.json_path.empty()) {
        std::ofstream out(opt.json_path);
        if (!out) {
            std::cerr << "error: cannot write " << opt.json_path << '\n';
            return 1;
        }
        // --json-stable writes the deterministic document (no cache
        // counters, no timings): byte-comparable against a serve daemon's
        // "report" for the same scenarios.
        portfolio::JsonOptions json;
        if (opt.json_stable) {
            json.timings = false;
        } else {
            json.cache = &runner.cache();
        }
        portfolio::write_json(out, results, fabric_ranking, json);
        std::cout << "wrote " << opt.json_path << '\n';
    }
    // Printed before the failure accounting: failed scenarios are exactly
    // when the failure counters are worth reading.
    if (opt.print_metrics) std::cout << obs::to_json(metrics.snapshot()) << '\n';
    // Success when every scenario at least ran (infeasible fabrics are a
    // finding, not a failure; mapper exceptions are failures). Failures go
    // to stderr — a JSON artifact alone must not let CI gates pass quietly.
    std::size_t failed = 0;
    for (const auto& r : results) {
        if (r.ok) continue;
        ++failed;
        std::cerr << "error: scenario " << r.name << ": " << r.error << '\n';
    }
    if (failed > 0) {
        std::cerr << "error: " << failed << " of " << results.size()
                  << " scenarios failed\n";
        return 1;
    }
    return 0;
}

/// Distributed portfolio run: the same grid as cmd_portfolio, scattered
/// over serve workers by shard::Coordinator and merged deterministically.
int cmd_shard(const CliOptions& opt) {
    if (opt.json_stdout) {
        std::cerr << "error: --json needs a path in shard mode\n";
        return 2;
    }
    if (opt.workers.empty() == (opt.spawn_workers == 0)) {
        std::cerr << "error: shard needs exactly one of --workers host:port,... "
                     "or --spawn-workers N\n";
        return 2;
    }
    shard::ShardOptions options;
    obs::Registry metrics; // outlives the coordinator that feeds it
    if (opt.print_metrics) options.metrics = &metrics;

    const shard::LinkTimeouts timeouts{opt.connect_timeout_ms, opt.io_timeout_ms};
    shard::LocalFleet fleet; // keeps --spawn-workers children alive for the run
    std::vector<std::unique_ptr<shard::WorkerLink>> links;
    if (!opt.workers.empty()) {
        for (const std::string& entry : util::split(opt.workers, ',')) {
            const std::size_t colon = entry.rfind(':');
            std::size_t port = 0;
            if (colon == std::string::npos || colon == 0 ||
                !util::parse_size(entry.substr(colon + 1), port) || port == 0 ||
                port > 65535) {
                // Structured like cmd_map's failures so scripted callers can
                // match on the stable bracketed code.
                std::cerr << "error[bad-worker-spec]: --workers entry '" << entry
                          << "' is not host:port\n";
                return 1;
            }
            try {
                links.push_back(shard::connect_tcp(
                    entry.substr(0, colon), static_cast<std::uint16_t>(port), timeouts));
            } catch (const std::exception& e) {
                std::cerr << "error[worker-connect]: " << e.what() << '\n';
                return 1;
            }
        }
    } else {
        service::ServiceOptions worker;
        worker.cache_topologies = opt.cache_topologies;
        worker.default_topologies = opt.topologies;
        worker.default_mapper = opt.algo;
        worker.default_bandwidth = opt.bandwidth;
        worker.default_params = opt.params;
        worker.default_seed = opt.seed;
        // One shared budget split over the children so a local fleet never
        // oversubscribes this host (--threads 0 = all hardware threads).
        std::vector<std::size_t> child_threads;
        for (const auto& child : engine::ThreadBudget(opt.threads).split(opt.spawn_workers))
            child_threads.push_back(child.cores());
        fleet = shard::LocalFleet::spawn(opt.spawn_workers, worker, child_threads);
        links = fleet.connect_all(timeouts);
    }
    if (!opt.faults.empty()) {
        shard::FaultPlan plan;
        try {
            plan = shard::FaultPlan::parse_cli(opt.faults, links.size());
        } catch (const std::exception& e) {
            std::cerr << "error[bad-fault-spec]: " << e.what() << '\n';
            return 1;
        }
        for (std::size_t i = 0; i < links.size(); ++i) {
            if (plan.per_worker[i].empty()) continue;
            std::function<void()> on_kill;
            if (opt.workers.empty()) {
                // Spawned fleet: a kill action takes down the real child,
                // so the coordinator's recovery runs against a true corpse.
                shard::LocalFleet* owner = &fleet;
                on_kill = [owner, i] { owner->kill_worker(i); };
            }
            links[i] = shard::make_faulty(std::move(links[i]), plan.per_worker[i],
                                          std::move(on_kill));
        }
    }
    shard::Coordinator coordinator(std::move(links), options);

    const double capacity = opt.bandwidth > 0 ? opt.bandwidth : 1e9;
    const auto specs = portfolio::parse_topology_list(opt.topologies, capacity);
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    for (const std::string& target : opt.targets)
        apps.emplace_back(target,
                          std::make_shared<const graph::CoreGraph>(load_graph(target)));
    const auto grid = portfolio::make_grid(apps, specs, opt.algo, opt.params, opt.seed,
                                           opt.deadline_ms, opt.eval_params);
    const auto results = coordinator.run_grid(grid);
    const auto fabric_ranking = portfolio::PortfolioRunner::rank_topologies(results);

    portfolio::print_report(std::cout, results, fabric_ranking);
    std::cout << "shard: " << coordinator.alive_count() << " of "
              << coordinator.worker_count() << " workers alive\n";
    if (!opt.json_path.empty()) {
        std::ofstream out(opt.json_path);
        if (!out) {
            std::cerr << "error: cannot write " << opt.json_path << '\n';
            return 1;
        }
        // Always the stable document: wall-clock timings are not reproduced
        // across workers, and byte parity with a single-node
        // `portfolio --json --json-stable` run is the contract.
        portfolio::JsonOptions json;
        json.timings = false;
        portfolio::write_json(out, results, fabric_ranking, json);
        std::cout << "wrote " << opt.json_path << '\n';
    }
    // Before the failure accounting: retry/reconnect/migration counters
    // matter most on the runs that lost workers.
    if (opt.print_metrics) std::cout << obs::to_json(metrics.snapshot()) << '\n';
    std::size_t failed = 0;
    for (const auto& r : results) {
        if (r.ok) continue;
        ++failed;
        std::cerr << "error: scenario " << r.name << ": " << r.error << '\n';
    }
    if (failed > 0) {
        std::cerr << "error: " << failed << " of " << results.size()
                  << " scenarios failed\n";
        return 1;
    }
    return 0;
}

/// The daemon the SIGTERM/SIGINT handler drains. begin_drain() is
/// async-signal-safe (atomics and ::shutdown only), so the handler may
/// call it directly.
service::Service* g_serve_daemon = nullptr;

extern "C" void handle_drain_signal(int) {
    if (g_serve_daemon != nullptr) g_serve_daemon->begin_drain();
}

int cmd_serve(const CliOptions& opt) {
    service::ServiceOptions options;
    options.threads = opt.threads;
    options.cache_topologies = opt.cache_topologies;
    options.max_connections = opt.max_connections;
    options.max_pending = opt.max_pending;
    options.idle_timeout_ms = opt.idle_timeout_ms;
    options.default_topologies = opt.topologies;
    options.default_mapper = opt.algo;
    options.default_bandwidth = opt.bandwidth;
    options.default_params = opt.params;
    options.default_seed = opt.seed;
    options.default_deadline_ms = opt.deadline_ms;
    if (opt.fault_stall_ms > 0) {
        const std::uint64_t stall = opt.fault_stall_ms;
        const std::size_t every = std::max<std::size_t>(1, opt.fault_every);
        options.fault_hook = [stall, every](std::size_t seq) {
            if (seq % every == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(stall));
        };
    }
    service::Service daemon(options);
    g_serve_daemon = &daemon;
    // sigaction without SA_RESTART: a drain signal must interrupt a blocked
    // stdin read (std::signal on glibc restarts it and the drain would wait
    // for the next request line).
    struct sigaction drain_action {};
    drain_action.sa_handler = handle_drain_signal;
    ::sigaction(SIGTERM, &drain_action, nullptr);
    ::sigaction(SIGINT, &drain_action, nullptr);
    obs::HttpExporter exporter;
    if (opt.metrics_port_set) {
        if (opt.metrics_port > 65535) {
            std::cerr << "error: --metrics-port must be 0..65535\n";
            return 2;
        }
        try {
            exporter.start(
                static_cast<std::uint16_t>(opt.metrics_port),
                [&daemon] { return daemon.metrics_prometheus(); },
                [](std::uint16_t port) {
                    // stderr, like the --socket announcement, so scripts can
                    // learn an ephemeral (0) pick.
                    std::cerr << "serve: metrics on TCP port " << port << '\n';
                });
        } catch (const std::exception& e) {
            std::cerr << "error: " << e.what() << '\n';
            return 1;
        }
    }
    if (!opt.socket_mode) {
        // Unsynced streams give std::cin a real buffer, so the session
        // loop's in_avail() drain can see queued requests and batch them.
        std::ios::sync_with_stdio(false);
        return daemon.serve(std::cin, std::cout);
    }
    if (opt.socket_port > 65535) {
        std::cerr << "error: --socket port must be 0..65535\n";
        return 2;
    }
    const int rc = daemon.serve_socket(
        static_cast<std::uint16_t>(opt.socket_port), [](std::uint16_t port) {
            // stderr so protocol responses keep stdout to themselves.
            std::cerr << "serve: listening on TCP port " << port << '\n';
        });
    if (rc != 0) std::cerr << "error: cannot listen on port " << opt.socket_port << '\n';
    return rc;
}

int cmd_netlist(const CliOptions& opt, const graph::CoreGraph& g) {
    const auto topo = make_topology(opt, g);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = nmap::map_with_single_path(g, ctx);
    if (!result.feasible) {
        std::cerr << "no feasible single-path mapping under these constraints\n";
        return 1;
    }
    const auto d = noc::build_commodities(g, result.mapping);
    const auto routed = nmap::route_single_min_paths(ctx, d);
    const auto flows = sim::make_single_path_flows(topo, d, routed.routes);
    sim::NetlistConfig cfg;
    cfg.design_name = g.name().empty() ? "design" : g.name();
    sim::write_netlist(std::cout, g, topo, result.mapping, flows, cfg);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) return usage();

    CliOptions opt;
    std::size_t first_flag = 1;
    opt.command = args[0];
    if (util::starts_with(opt.command, "--")) {
        // Flag-only invocations (--list-algos, --describe-algo ...) have no
        // command word; hand everything to the flag loop.
        opt.command.clear();
        first_flag = 0;
    }
    if (opt.command == "apps") return cmd_apps();
    if (opt.command == "algos") return cmd_algos();

    std::vector<std::string> positional;
    for (std::size_t i = first_flag; i < args.size(); ++i) {
        if (args[i] == "--list-algos") return cmd_algos();
        if (args[i] == "--mesh" && i + 1 < args.size()) {
            if (!parse_mesh(args[++i], opt.width, opt.height)) return usage();
        } else if (args[i] == "--bw" && i + 1 < args.size()) {
            if (!util::parse_double(args[++i], opt.bandwidth) ||
                !std::isfinite(opt.bandwidth) || opt.bandwidth <= 0)
                return usage();
        } else if (args[i] == "--algo" && i + 1 < args.size()) {
            opt.algo = util::to_lower(args[++i]);
        } else if (args[i] == "--opt" && i + 1 < args.size()) {
            try {
                opt.params.set_assignment(args[++i]);
            } catch (const std::exception& e) {
                std::cerr << "error: --opt " << e.what() << '\n';
                return 2;
            }
        } else if (args[i] == "--eval-opt" && i + 1 < args.size()) {
            try {
                opt.eval_params.set_assignment(args[++i]);
            } catch (const std::exception& e) {
                std::cerr << "error: --eval-opt " << e.what() << '\n';
                return 2;
            }
        } else if (args[i] == "--list-apps") {
            opt.list_apps = true;
        } else if (args[i] == "--seed" && i + 1 < args.size()) {
            std::size_t seed = 0;
            if (!util::parse_size(args[++i], seed)) return usage();
            opt.seed = seed;
        } else if (args[i] == "--describe-algo" && i + 1 < args.size()) {
            opt.describe_algo = util::to_lower(args[++i]);
        } else if (args[i] == "--fabric" && i + 1 < args.size()) {
            opt.fabric = util::to_lower(args[++i]);
        } else if (args[i] == "--topologies" && i + 1 < args.size()) {
            opt.topologies = util::to_lower(args[++i]);
        } else if (args[i] == "--json") {
            // The path is optional: describe mode writes to stdout.
            if (i + 1 < args.size() && !util::starts_with(args[i + 1], "--"))
                opt.json_path = args[++i];
            opt.json_stdout = opt.json_path.empty();
        } else if (args[i] == "--threads" && i + 1 < args.size()) {
            if (!util::parse_size(args[++i], opt.threads)) return usage();
        } else if (args[i] == "--cache-topologies" && i + 1 < args.size()) {
            if (!util::parse_size(args[++i], opt.cache_topologies)) return usage();
        } else if (args[i] == "--socket" && i + 1 < args.size()) {
            if (!util::parse_size(args[++i], opt.socket_port)) return usage();
            opt.socket_mode = true;
        } else if (args[i] == "--max-connections" && i + 1 < args.size()) {
            if (!util::parse_size(args[++i], opt.max_connections)) return usage();
        } else if (args[i] == "--max-pending" && i + 1 < args.size()) {
            if (!util::parse_size(args[++i], opt.max_pending)) return usage();
        } else if (args[i] == "--idle-timeout-ms" && i + 1 < args.size()) {
            std::size_t ms = 0;
            if (!util::parse_size(args[++i], ms)) return usage();
            opt.idle_timeout_ms = ms;
        } else if (args[i] == "--deadline-ms" && i + 1 < args.size()) {
            std::size_t ms = 0;
            if (!util::parse_size(args[++i], ms)) return usage();
            opt.deadline_ms = ms;
        } else if (args[i] == "--connect-timeout-ms" && i + 1 < args.size()) {
            std::size_t ms = 0;
            if (!util::parse_size(args[++i], ms)) return usage();
            opt.connect_timeout_ms = ms;
        } else if (args[i] == "--io-timeout-ms" && i + 1 < args.size()) {
            std::size_t ms = 0;
            if (!util::parse_size(args[++i], ms)) return usage();
            opt.io_timeout_ms = ms;
        } else if (args[i] == "--fault-stall-ms" && i + 1 < args.size()) {
            std::size_t ms = 0;
            if (!util::parse_size(args[++i], ms)) return usage();
            opt.fault_stall_ms = ms;
        } else if (args[i] == "--fault-every" && i + 1 < args.size()) {
            if (!util::parse_size(args[++i], opt.fault_every) || opt.fault_every == 0)
                return usage();
        } else if (args[i] == "--faults" && i + 1 < args.size()) {
            opt.faults = args[++i];
        } else if (args[i] == "--workers" && i + 1 < args.size()) {
            opt.workers = args[++i];
        } else if (args[i] == "--spawn-workers" && i + 1 < args.size()) {
            if (!util::parse_size(args[++i], opt.spawn_workers) || opt.spawn_workers == 0)
                return usage();
        } else if (args[i] == "--metrics-port" && i + 1 < args.size()) {
            if (!util::parse_size(args[++i], opt.metrics_port)) return usage();
            opt.metrics_port_set = true;
        } else if (args[i] == "--print-metrics") {
            opt.print_metrics = true;
        } else if (args[i] == "--json-stable") {
            opt.json_stable = true;
        } else if (args[i] == "--portfolio") {
            opt.portfolio = true;
        } else {
            positional.push_back(args[i]);
        }
    }
    if (opt.command == "portfolio") opt.portfolio = true;

    try {
        if (opt.list_apps) return cmd_list_apps(opt);
        if (!opt.describe_algo.empty()) return cmd_describe(opt);
        if (opt.command == "serve") {
            if (!positional.empty()) return usage();
            return cmd_serve(opt);
        }
        if (opt.command == "shard") {
            if (positional.empty()) return usage();
            opt.targets = positional;
            return cmd_shard(opt);
        }
        if (opt.portfolio) {
            if (positional.empty()) return usage();
            opt.targets = positional;
            return cmd_portfolio(opt);
        }
        if (positional.size() != 1) return usage();
        opt.target = positional[0];
        const auto g = load_graph(opt.target);
        if (opt.command == "map") return cmd_map(opt, g);
        if (opt.command == "bw") return cmd_bw(opt, g);
        if (opt.command == "netlist") return cmd_netlist(opt, g);
        if (opt.command == "dot") {
            std::cout << graph::core_graph_to_dot(g);
            return 0;
        }
        return usage();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
