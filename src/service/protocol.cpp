#include "service/protocol.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/json.hpp"

namespace nocmap::service {

namespace {

using util::json::quoted;
using util::json::Value;

std::string get_string(const Value& request, const char* key, const std::string& fallback) {
    const Value* v = request.find(key);
    if (!v || v->is_null()) return fallback;
    if (!v->is_string())
        throw std::invalid_argument(std::string("field '") + key + "' must be a string");
    return v->as_string();
}

double get_number(const Value& request, const char* key, double fallback) {
    const Value* v = request.find(key);
    if (!v || v->is_null()) return fallback;
    if (!v->is_number())
        throw std::invalid_argument(std::string("field '") + key + "' must be a number");
    return v->as_number();
}

/// Typed JSON scalars keep their carrier; strings go through the same
/// inference as CLI --opt text, so every front end means the same request.
/// `key` selects which params-shaped object to read ("params" knobs, or the
/// "eval" evaluation-backend spec).
engine::Params parse_params_object(const Value& doc, const char* key = "params") {
    engine::Params out;
    const Value* params = doc.find(key);
    if (!params || params->is_null()) return out;
    if (!params->is_object())
        throw std::invalid_argument(std::string("'") + key + "' must be an object");
    for (const auto& [entry_key, value] : params->as_object()) {
        if (value.is_bool())
            out.set(entry_key, engine::ParamValue::of_bool(value.as_bool()));
        else if (value.is_number()) {
            // Integral doubles inside the exact range ride the Int carrier
            // (the magnitude guard keeps the cast defined); everything else
            // stays Double and lets validation judge it against the spec.
            const double number = value.as_number();
            const bool integral = std::fabs(number) <= 9007199254740992.0 &&
                                  static_cast<double>(static_cast<std::int64_t>(number)) ==
                                      number;
            out.set(entry_key,
                    integral ? engine::ParamValue::of_int(static_cast<std::int64_t>(number))
                             : engine::ParamValue::of_double(number));
        } else if (value.is_string())
            out.set(entry_key, engine::ParamValue::from_text(value.as_string()));
        else
            throw std::invalid_argument(std::string("'") + key + "' values must be scalars");
    }
    return out;
}

std::string params_json(const engine::Params& params) {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : params) {
        if (!first) out += ", ";
        first = false;
        out += quoted(key) + ": ";
        switch (value.type()) {
        case engine::ParamType::Bool: out += value.as_bool() ? "true" : "false"; break;
        case engine::ParamType::Int: out += std::to_string(value.as_int()); break;
        case engine::ParamType::Double: {
            // %.17g (not the report-facing %.6g): shortest-or-not, 17
            // significant digits round-trip doubles exactly through the
            // parser's strtod, so workers see the coordinator's value bit
            // for bit.
            char buffer[32];
            std::snprintf(buffer, sizeof buffer, "%.17g", value.as_double());
            out += buffer;
            break;
        }
        case engine::ParamType::String:
        case engine::ParamType::Enum: out += quoted(value.as_string()); break;
        }
    }
    return out + "}";
}

std::uint64_t get_uint(const Value& request, const char* key, std::uint64_t fallback) {
    const double raw = get_number(request, key, static_cast<double>(fallback));
    // Bound first (2^53, the largest exact double integer): casting an
    // out-of-range double is undefined behavior.
    if (raw < 0.0 || raw > 9007199254740992.0 ||
        raw != static_cast<double>(static_cast<std::uint64_t>(raw)))
        throw std::invalid_argument(std::string("field '") + key +
                                    "' must be a non-negative integer");
    return static_cast<std::uint64_t>(raw);
}

double get_hex(const Value& doc, const char* key) {
    const Value* v = doc.find(key);
    if (!v || !v->is_string())
        throw std::invalid_argument(std::string("field '") + key +
                                    "' must be a hex-float string");
    return util::json::parse_hex_number(v->as_string());
}

bool get_bool(const Value& doc, const char* key, bool fallback) {
    const Value* v = doc.find(key);
    if (!v || v->is_null()) return fallback;
    if (!v->is_bool())
        throw std::invalid_argument(std::string("field '") + key + "' must be a bool");
    return v->as_bool();
}

/// Shared shape of a worker reply: parses the line, verifies "status",
/// rethrowing an "error" status as std::runtime_error with the worker's
/// message (transport succeeded; the task itself failed).
Value parse_response_document(const std::string& line) {
    Value doc;
    try {
        doc = util::json::parse(line);
    } catch (const std::exception& e) {
        throw std::invalid_argument(std::string("malformed response: ") + e.what());
    }
    if (!doc.is_object()) throw std::invalid_argument("response must be a JSON object");
    const std::string status = get_string(doc, "status", "");
    if (status == "ok") return doc;
    if (status == "error")
        throw std::runtime_error("worker error: " + get_string(doc, "error", "(no message)"));
    throw std::invalid_argument("response 'status' must be ok|error");
}

std::string cache_json(const portfolio::TopologyCacheStats& cache) {
    return "{\"fabrics\": " + std::to_string(cache.entries) +
           ", \"capacity\": " + std::to_string(cache.capacity) +
           ", \"hits\": " + std::to_string(cache.hits) +
           ", \"misses\": " + std::to_string(cache.misses) +
           ", \"evictions\": " + std::to_string(cache.evictions) + "}";
}

std::string response_head(const std::string& id, const char* status) {
    return "{\"id\": " + quoted(id) + ", \"status\": \"" + status + "\"";
}

} // namespace

Request parse_request(const std::string& line) {
    Value doc;
    try {
        doc = util::json::parse(line);
    } catch (const std::exception& e) {
        throw std::invalid_argument(std::string("malformed request: ") + e.what());
    }
    if (!doc.is_object()) throw std::invalid_argument("request must be a JSON object");

    Request request;
    request.id = get_string(doc, "id", "");
    const std::string method = get_string(doc, "method", "");
    if (method == "map") {
        request.kind = Request::Kind::Map;
        const Value* apps = doc.find("apps");
        if (!apps || !apps->is_array() || apps->as_array().empty())
            throw std::invalid_argument("map request needs a non-empty 'apps' array");
        for (const Value& app : apps->as_array()) {
            if (!app.is_string())
                throw std::invalid_argument("'apps' entries must be strings");
            request.map.apps.push_back(app.as_string());
        }
        request.map.topologies = get_string(doc, "topologies", "");
        request.map.mapper = get_string(doc, "mapper", "");
        request.map.bandwidth = get_number(doc, "bandwidth", 0.0);
        if (!std::isfinite(request.map.bandwidth) || request.map.bandwidth < 0.0)
            throw std::invalid_argument("'bandwidth' must be finite and >= 0");
        const double seed = get_number(doc, "seed", 0.0);
        // Bound first (2^53, the largest exact double integer): casting an
        // out-of-range double is undefined behavior, and a JSON number
        // beyond that cannot name a seed exactly anyway.
        if (seed < 0.0 || seed > 9007199254740992.0 ||
            seed != static_cast<double>(static_cast<std::uint64_t>(seed)))
            throw std::invalid_argument("'seed' must be a non-negative integer");
        request.map.seed = static_cast<std::uint64_t>(seed);
        request.map.params = parse_params_object(doc);
        request.map.eval = parse_params_object(doc, "eval");
        request.map.deadline_ms = get_uint(doc, "deadline_ms", 0);
    } else if (method == "describe") {
        request.kind = Request::Kind::Describe;
        request.describe_algo = get_string(doc, "algo", "");
    } else if (method == "stats") {
        request.kind = Request::Kind::Stats;
    } else if (method == "metrics") {
        request.kind = Request::Kind::Metrics;
    } else if (method == "list-apps") {
        request.kind = Request::Kind::ListApps;
    } else if (method == "ping") {
        request.kind = Request::Kind::Ping;
    } else if (method == "shutdown") {
        request.kind = Request::Kind::Shutdown;
    } else if (method == "hello") {
        request.kind = Request::Kind::Hello;
    } else if (method == "shard-map") {
        request.kind = Request::Kind::ShardMap;
        const Value* scenarios = doc.find("scenarios");
        if (!scenarios || !scenarios->is_array() || scenarios->as_array().empty())
            throw std::invalid_argument(
                "shard-map request needs a non-empty 'scenarios' array");
        for (const Value& entry : scenarios->as_array()) {
            if (!entry.is_object())
                throw std::invalid_argument("'scenarios' entries must be objects");
            ShardMapScenario s;
            s.app = get_string(entry, "app", "");
            s.graph_text = get_string(entry, "graph", "");
            if (s.graph_text.empty())
                throw std::invalid_argument("shard-map scenarios need a 'graph' text");
            s.topology = get_string(entry, "topology", "");
            if (s.topology.empty())
                throw std::invalid_argument("shard-map scenarios need a 'topology'");
            s.bandwidth = get_number(entry, "bandwidth", 1e9);
            if (!std::isfinite(s.bandwidth) || s.bandwidth <= 0.0)
                throw std::invalid_argument("'bandwidth' must be finite and > 0");
            s.mapper = get_string(entry, "mapper", "nmap");
            s.params = parse_params_object(entry);
            s.eval = parse_params_object(entry, "eval");
            s.seed = get_uint(entry, "seed", 0);
            s.deadline_ms = get_uint(entry, "deadline_ms", 0);
            request.shard_scenarios.push_back(std::move(s));
        }
    } else if (method.empty()) {
        throw std::invalid_argument(
            "request needs a 'method' (map|describe|stats|metrics|list-apps|ping|shutdown|"
            "hello|shard-map)");
    } else {
        throw std::invalid_argument("unknown method '" + method +
                                    "' (expected map|describe|stats|metrics|list-apps|ping|"
                                    "shutdown|hello|shard-map)");
    }
    return request;
}

std::string error_response(const std::string& id, const std::string& message,
                           const std::string& code) {
    std::string out = response_head(id, "error") + ", \"error\": " + quoted(message);
    if (!code.empty()) out += ", \"code\": " + quoted(code);
    return out + "}";
}

std::string map_response(const std::string& id, const std::string& report_json,
                         const portfolio::TopologyCacheStats& cache) {
    return response_head(id, "ok") + ", \"report\": " + quoted(report_json) +
           ", \"cache\": " + cache_json(cache) + "}";
}

std::string describe_response(const std::string& id,
                              const std::vector<engine::MapperDescription>& descriptions) {
    std::string out = response_head(id, "ok") + ", \"algos\": [";
    for (std::size_t i = 0; i < descriptions.size(); ++i) {
        if (i > 0) out += ", ";
        out += "{\"name\": " + quoted(descriptions[i].info.name) + ", \"describe\": " +
               quoted(engine::describe_json(descriptions[i])) + "}";
    }
    return out + "]}";
}

std::string stats_response(const std::string& id,
                           const portfolio::TopologyCacheStats& cache,
                           const ServiceStats& service) {
    return response_head(id, "ok") + ", \"cache\": " + cache_json(cache) +
           ", \"service\": {\"uptime_s\": " + std::to_string(service.uptime_s) +
           ", \"in_flight\": " + std::to_string(service.in_flight) +
           ", \"accepted\": " + std::to_string(service.accepted) +
           ", \"rejected\": " + std::to_string(service.rejected) +
           ", \"overloaded\": " + std::to_string(service.overloaded) +
           ", \"draining\": " + (service.draining ? "true" : "false") + "}}";
}

std::string ping_response(const std::string& id) {
    return response_head(id, "ok") + ", \"pong\": true}";
}

std::string metrics_response(const std::string& id, const std::string& metrics_json) {
    return response_head(id, "ok") + ", \"metrics\": " + metrics_json + "}";
}

std::string list_apps_response(const std::string& id, const std::string& registry_json) {
    return response_head(id, "ok") + ", \"registry\": " + registry_json + "}";
}

std::string shutdown_response(const std::string& id) {
    return response_head(id, "ok") + ", \"shutdown\": true}";
}

std::string hello_response(const std::string& id, std::size_t cores) {
    return response_head(id, "ok") + ", \"role\": \"worker\", \"cores\": " +
           std::to_string(cores) + "}";
}

std::string shard_map_response(const std::string& id,
                               const std::vector<ShardMapMetrics>& results) {
    using util::json::hex_number;
    std::string out = response_head(id, "ok") + ", \"results\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ShardMapMetrics& m = results[i];
        if (i > 0) out += ", ";
        out += "{\"ok\": " + std::string(m.ok ? "true" : "false") +
               ", \"error\": " + (m.error.empty() ? "null" : quoted(m.error)) +
               ", \"error_code\": " + (m.error_code.empty() ? "null" : quoted(m.error_code)) +
               ", \"feasible\": " + (m.feasible ? "true" : "false") +
               ", \"tiles\": " + std::to_string(m.tiles) +
               ", \"links\": " + std::to_string(m.links) +
               ", \"comm_cost\": " + hex_number(m.comm_cost) +
               ", \"energy_mw\": " + hex_number(m.energy_mw) +
               ", \"area_mm2\": " + hex_number(m.area_mm2) +
               ", \"avg_hops\": " + hex_number(m.avg_hops);
        // Simulated-evaluation metrics ride only when present, keeping
        // analytic replies byte-identical to the pre-backend wire.
        if (m.sim.present)
            out += ", \"sim\": {\"p50\": " + hex_number(m.sim.p50_latency_cycles) +
                   ", \"p95\": " + hex_number(m.sim.p95_latency_cycles) +
                   ", \"p99\": " + hex_number(m.sim.p99_latency_cycles) +
                   ", \"avg\": " + hex_number(m.sim.avg_latency_cycles) +
                   ", \"jitter\": " + hex_number(m.sim.jitter_cycles) +
                   ", \"packets\": " + std::to_string(m.sim.packets) +
                   ", \"cycles\": " + std::to_string(m.sim.cycles) +
                   ", \"stalled\": " + (m.sim.stalled ? "true" : "false") +
                   ", \"refine_trials\": " + std::to_string(m.sim.refine_trials) +
                   ", \"refine_accepted\": " + std::to_string(m.sim.refine_accepted) +
                   ", \"note\": " + (m.sim.note.empty() ? "null" : quoted(m.sim.note)) + "}";
        out += "}";
    }
    return out + "]}";
}

std::string hello_request(const std::string& id) {
    return "{\"id\": " + quoted(id) + ", \"method\": \"hello\"}";
}

std::string shutdown_request(const std::string& id) {
    return "{\"id\": " + quoted(id) + ", \"method\": \"shutdown\"}";
}

std::string shard_map_request(const std::string& id,
                              const std::vector<ShardMapScenario>& scenarios) {
    std::string out = "{\"id\": " + quoted(id) + ", \"method\": \"shard-map\"" +
                      ", \"scenarios\": [";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const ShardMapScenario& s = scenarios[i];
        if (i > 0) out += ", ";
        char bw[32];
        std::snprintf(bw, sizeof bw, "%.17g", s.bandwidth);
        out += "{\"app\": " + quoted(s.app) + ", \"graph\": " + quoted(s.graph_text) +
               ", \"topology\": " + quoted(s.topology) + ", \"bandwidth\": " + bw +
               ", \"mapper\": " + quoted(s.mapper) + ", \"params\": " + params_json(s.params);
        // The eval spec rides only when set: requests without one keep
        // their pre-backend bytes.
        if (!s.eval.empty()) out += ", \"eval\": " + params_json(s.eval);
        out += ", \"seed\": " + std::to_string(s.seed) +
               ", \"deadline_ms\": " + std::to_string(s.deadline_ms) + "}";
    }
    return out + "]}";
}

std::size_t parse_hello_response(const std::string& line) {
    const Value doc = parse_response_document(line);
    const std::uint64_t cores = get_uint(doc, "cores", 0);
    if (cores == 0) throw std::invalid_argument("hello response needs a positive 'cores'");
    return static_cast<std::size_t>(cores);
}

std::vector<ShardMapMetrics> parse_shard_map_response(const std::string& line) {
    const Value doc = parse_response_document(line);
    const Value* results = doc.find("results");
    if (!results || !results->is_array())
        throw std::invalid_argument("shard-map response needs a 'results' array");
    std::vector<ShardMapMetrics> out;
    for (const Value& entry : results->as_array()) {
        if (!entry.is_object())
            throw std::invalid_argument("'results' entries must be objects");
        ShardMapMetrics m;
        m.ok = get_bool(entry, "ok", true);
        m.error = get_string(entry, "error", "");
        m.error_code = get_string(entry, "error_code", "");
        m.feasible = get_bool(entry, "feasible", false);
        m.tiles = get_uint(entry, "tiles", 0);
        m.links = get_uint(entry, "links", 0);
        m.comm_cost = get_hex(entry, "comm_cost");
        m.energy_mw = get_hex(entry, "energy_mw");
        m.area_mm2 = get_hex(entry, "area_mm2");
        m.avg_hops = get_hex(entry, "avg_hops");
        if (const Value* sim = entry.find("sim"); sim && sim->is_object()) {
            m.sim.present = true;
            m.sim.p50_latency_cycles = get_hex(*sim, "p50");
            m.sim.p95_latency_cycles = get_hex(*sim, "p95");
            m.sim.p99_latency_cycles = get_hex(*sim, "p99");
            m.sim.avg_latency_cycles = get_hex(*sim, "avg");
            m.sim.jitter_cycles = get_hex(*sim, "jitter");
            m.sim.packets = get_uint(*sim, "packets", 0);
            m.sim.cycles = get_uint(*sim, "cycles", 0);
            m.sim.stalled = get_bool(*sim, "stalled", false);
            m.sim.refine_trials =
                static_cast<std::uint32_t>(get_uint(*sim, "refine_trials", 0));
            m.sim.refine_accepted =
                static_cast<std::uint32_t>(get_uint(*sim, "refine_accepted", 0));
            m.sim.note = get_string(*sim, "note", "");
        }
        out.push_back(std::move(m));
    }
    return out;
}

} // namespace nocmap::service
