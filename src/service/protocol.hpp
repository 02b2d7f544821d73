#pragma once
// service::protocol — the serve daemon's line-delimited JSON wire format.
//
// One request per line, one response line per request, in request order.
//
//   {"id":"r1","method":"map","apps":["vopd","mpeg4"],
//    "topologies":"mesh,torus:4x4","mapper":"nmap","bandwidth":1000,
//    "params":{"sweeps":2,"eval":"ledger-fast"},"seed":7,"deadline_ms":5000}
//   {"id":"d1","method":"describe","algo":"nmap"}
//   {"id":"s1","method":"stats"}
//   {"id":"m1","method":"metrics"}
//   {"id":"p1","method":"ping"}
//   {"id":"q1","method":"shutdown"}
//
// Every response is a single line echoing the request id with a "status"
// of "ok" or "error". A map response carries the complete one-shot
// portfolio JSON document (portfolio::to_json, no cache section) as the
// escaped string field "report" — byte-identical to what
// `nocmap_cli portfolio ... --json --json-stable` writes for the same
// scenarios (including the same "params"/"seed") — plus the service
// cache's counters, which reflect the daemon's whole lifetime and are NOT
// part of the determinism contract. The optional "params" object holds
// per-algorithm knobs (scalars only), validated against the mapper's
// published ParamSpec list when the scenarios run: an unknown key or an
// out-of-range value becomes a structured per-scenario "error"/
// "error_code" entry inside the report, never a connection-level failure.
//
// A describe response carries one entry per requested algorithm ("algo"
// absent = all), each embedding the deterministic document of
// engine::describe_json as the escaped string field "describe" —
// byte-identical to `nocmap_cli --describe-algo <name> --json`.
//
// Shard verbs (coordinator <-> worker, see shard/coordinator.hpp):
//
//   {"id":"h1","method":"hello"}
//   {"id":"t1","method":"shard-map","scenarios":[{"app":"vopd",
//    "graph":"...","topology":"torus:4x4","bandwidth":1000,"mapper":"nmap",
//    "params":{},"seed":7}, ...]}
//
// hello advertises the worker's core budget for weighted partitioning; a
// shard-map task runs whole scenarios. Its reply ships every floating-point
// metric as a hex-float string
// (util::json::hex_number): the report-facing number() is %.6g, which is
// lossy, and the coordinator must rebuild byte-identical documents from
// worker replies.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/mapper.hpp"
#include "engine/params.hpp"
#include "eval/backend.hpp"
#include "portfolio/topology_cache.hpp"

namespace nocmap::service {

/// One "map" request: a scenario grid of apps × topology specs.
struct MapRequest {
    std::vector<std::string> apps; ///< app names or graph-file paths
    std::string topologies;        ///< csv of TopologySpec; empty = server default
    std::string mapper;            ///< registry key; empty = server default
    double bandwidth = 0.0;        ///< uniform link MB/s; 0 = server default
    engine::Params params;         ///< algorithm knobs for every scenario
    /// Evaluation-backend spec for every scenario (optional "eval" JSON
    /// object: eval=analytic|simulated, refine, sim knobs — validated
    /// against eval::param_specs() when the scenarios run). Empty =
    /// analytic, byte-identical to requests predating the field.
    engine::Params eval;
    std::uint64_t seed = 0;        ///< MapRequest::seed (0 = algorithm default)
    /// Per-scenario wall-clock budget in ms (0 = server default / none).
    /// A scenario still mapping when it expires becomes a typed
    /// "deadline-exceeded" per-scenario error inside the report.
    std::uint64_t deadline_ms = 0;
};

/// One scenario of a "shard-map" task. The graph rides along as text so a
/// worker never depends on the coordinator's filesystem.
struct ShardMapScenario {
    std::string app;         ///< display name (file path or benchmark key)
    std::string graph_text;
    std::string topology;    ///< TopologySpec token (auto sizes allowed)
    double bandwidth = 1e9;
    std::string mapper = "nmap";
    engine::Params params;
    engine::Params eval; ///< evaluation-backend spec (empty = analytic)
    std::uint64_t seed = 0;
    std::uint64_t deadline_ms = 0; ///< wall-clock budget, ms (0 = none)
};

/// Raw per-scenario metrics of a shard-map reply — exactly the fields the
/// coordinator cannot recompute locally (everything identity-like it
/// derives from its own grid).
struct ShardMapMetrics {
    bool ok = true;
    std::string error;      ///< failure text when !ok
    std::string error_code; ///< stable engine::MapErrorCode name ("" = none)
    bool feasible = false;
    std::uint64_t tiles = 0;
    std::uint64_t links = 0;
    double comm_cost = 0.0;
    double energy_mw = 0.0;
    double area_mm2 = 0.0;
    double avg_hops = 0.0;
    /// Simulated-evaluation metrics; serialized (hex-float transport) only
    /// when sim.present, so analytic replies keep their exact bytes.
    eval::SimMetrics sim;
};

struct Request {
    enum class Kind {
        Map,
        Describe,
        Stats,
        Ping,
        Shutdown,
        Hello,
        ShardMap,
        Metrics,
        ListApps,
    };
    Kind kind = Kind::Ping;
    std::string id;            ///< echoed verbatim in the response ("" when absent)
    MapRequest map;            ///< populated when kind == Kind::Map
    std::string describe_algo; ///< Kind::Describe: registry key; "" = all
    std::vector<ShardMapScenario> shard_scenarios; ///< Kind::ShardMap
};

/// Parses one request line. Throws std::invalid_argument on malformed
/// JSON, a missing/unknown method, or ill-typed fields; the message is
/// what error_response() should carry back.
Request parse_request(const std::string& line);

/// Daemon-lifetime counters of the serve process itself, reported by the
/// "stats" verb next to the cache counters so overload and drain behavior
/// are observable from a client.
struct ServiceStats {
    std::uint64_t uptime_s = 0;   ///< seconds since the Service was built
    std::uint64_t in_flight = 0;  ///< map requests admitted, not yet answered
    std::uint64_t accepted = 0;   ///< TCP sessions accepted into the registry
    std::uint64_t rejected = 0;   ///< TCP sessions refused over max_connections
    std::uint64_t overloaded = 0; ///< map requests refused over max_pending
    bool draining = false;        ///< graceful drain in progress
};

/// Response serializers — each returns one line without the trailing '\n'.
/// A non-empty `code` adds a machine-readable "code" field ("overloaded",
/// "deadline-exceeded", ...) after the human-readable "error" text; the
/// empty default keeps the pre-existing two-field error line byte for byte.
std::string error_response(const std::string& id, const std::string& message,
                           const std::string& code = "");
std::string map_response(const std::string& id, const std::string& report_json,
                         const portfolio::TopologyCacheStats& cache);
std::string describe_response(const std::string& id,
                              const std::vector<engine::MapperDescription>& descriptions);
std::string stats_response(const std::string& id,
                           const portfolio::TopologyCacheStats& cache,
                           const ServiceStats& service);
std::string ping_response(const std::string& id);
/// `metrics_json` is an obs::to_json document, embedded raw (it is already
/// deterministic JSON), so clients read response["metrics"] structurally
/// instead of unescaping a string.
std::string metrics_response(const std::string& id, const std::string& metrics_json);
/// `registry_json` is apps::registry_json(), embedded raw under "registry"
/// (already deterministic JSON) — the serve twin of `--list-apps --json`.
std::string list_apps_response(const std::string& id, const std::string& registry_json);
std::string shutdown_response(const std::string& id);
std::string hello_response(const std::string& id, std::size_t cores);
std::string shard_map_response(const std::string& id,
                               const std::vector<ShardMapMetrics>& results);

/// Request serializers — the coordinator's side of the shard verbs (one
/// line each, no trailing '\n'). shard_map_request round-trips through
/// parse_request bit-exactly (hex-float transport).
std::string hello_request(const std::string& id);
std::string shutdown_request(const std::string& id);
std::string shard_map_request(const std::string& id,
                              const std::vector<ShardMapScenario>& scenarios);

/// Response parsers — the coordinator's view of worker replies. Each
/// throws std::invalid_argument on malformed lines and std::runtime_error
/// carrying the worker's message on an "error" status.
std::size_t parse_hello_response(const std::string& line);
std::vector<ShardMapMetrics> parse_shard_map_response(const std::string& line);

} // namespace nocmap::service
