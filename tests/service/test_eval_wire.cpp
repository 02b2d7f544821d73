// Evaluation-backend wire coverage: the "list-apps" verb, the optional
// "eval" params object on map/shard-map requests, and the hex-float "sim"
// block of shard-map replies (the coordinator rebuilds byte-identical
// documents from it, so the round trip must be bit-exact).

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"

namespace nocmap::service {
namespace {

TEST(Protocol, ParsesListAppsRequests) {
    const Request r = parse_request("{\"id\": \"la1\", \"method\": \"list-apps\"}");
    EXPECT_EQ(r.kind, Request::Kind::ListApps);
    EXPECT_EQ(r.id, "la1");
}

TEST(Protocol, UnknownMethodErrorMentionsListApps) {
    // "shard-rows" was a verb once; it is now as unknown as any other name.
    for (const std::string method : {"nope", "shard-rows"}) {
        try {
            parse_request("{\"id\": \"x\", \"method\": \"" + method + "\"}");
            FAIL() << "expected std::invalid_argument for " << method;
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("unknown method '" + method + "'"), std::string::npos) << what;
            EXPECT_NE(what.find("list-apps"), std::string::npos) << what;
        }
    }
}

TEST(Protocol, MapRequestsCarryAnOptionalEvalObject) {
    const Request bare = parse_request(
        "{\"id\": \"m1\", \"method\": \"map\", \"apps\": [\"vopd\"]}");
    EXPECT_TRUE(bare.map.eval.empty());
    const Request r = parse_request(
        "{\"id\": \"m2\", \"method\": \"map\", \"apps\": [\"vopd\"], "
        "\"eval\": {\"eval\": \"simulated\", \"sim_cycles\": 5000}}");
    EXPECT_EQ(r.map.eval.string_or("eval", ""), "simulated");
    EXPECT_EQ(r.map.eval.int_or("sim_cycles", 0), 5000);
}

TEST(Protocol, ShardMapScenariosRoundTripTheEvalSpec) {
    ShardMapScenario s;
    s.app = "vopd";
    s.graph_text = "graph g\nnode a\nnode b\nedge a b 10\n";
    s.topology = "mesh:2x2";
    s.mapper = "nmap";
    s.eval.set_assignment("eval=simulated");
    s.eval.set_assignment("sim_seed=7");
    const Request parsed = parse_request(shard_map_request("t1", {s}));
    ASSERT_EQ(parsed.shard_scenarios.size(), 1u);
    EXPECT_EQ(parsed.shard_scenarios[0].eval.string_or("eval", ""), "simulated");
    EXPECT_EQ(parsed.shard_scenarios[0].eval.int_or("sim_seed", 0), 7);

    // Without a spec the request line must not mention eval at all — the
    // pre-backend wire bytes are the compatibility contract.
    ShardMapScenario plain = s;
    plain.eval = {};
    EXPECT_EQ(shard_map_request("t2", {plain}).find("\"eval\""), std::string::npos);
}

TEST(Protocol, ShardMapRepliesRoundTripSimMetricsBitExactly) {
    ShardMapMetrics m;
    m.ok = true;
    m.feasible = true;
    m.tiles = 16;
    m.links = 48;
    m.comm_cost = 4265.125;
    m.energy_mw = 39.7218394839281737;
    m.area_mm2 = 11.25;
    m.avg_hops = 1.6190476190476191;
    m.sim.present = true;
    m.sim.avg_latency_cycles = 24.018238948392817;
    m.sim.p50_latency_cycles = 23.0;
    m.sim.p95_latency_cycles = 31.499999999999996;
    m.sim.p99_latency_cycles = 37.860000000000014;
    m.sim.jitter_cycles = 444.37582938291838;
    m.sim.packets = 1515;
    m.sim.cycles = 22016;
    m.sim.refine_trials = 6;
    m.sim.refine_accepted = 2;

    const auto parsed = parse_shard_map_response(shard_map_response("r1", {m}));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].sim, m.sim); // SimMetrics operator==: bit-exact doubles

    // A skipped simulation round-trips its note verbatim.
    ShardMapMetrics skipped = m;
    skipped.sim = {};
    skipped.sim.present = true;
    skipped.sim.note = "mapping infeasible; simulation skipped";
    const auto parsed_skip = parse_shard_map_response(shard_map_response("r2", {skipped}));
    ASSERT_EQ(parsed_skip.size(), 1u);
    EXPECT_EQ(parsed_skip[0].sim, skipped.sim);

    // Analytic replies carry no sim object — and parse back as absent.
    ShardMapMetrics analytic = m;
    analytic.sim = {};
    const std::string line = shard_map_response("r3", {analytic});
    EXPECT_EQ(line.find("\"sim\""), std::string::npos);
    EXPECT_FALSE(parse_shard_map_response(line)[0].sim.present);
}

TEST(Service, ListAppsVerbEmbedsTheRegistryDocument) {
    ServiceOptions options;
    options.threads = 1;
    Service daemon(options);
    const std::string response =
        daemon.handle_line("{\"id\": \"la1\", \"method\": \"list-apps\"}");
    EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(response.find("\"registry\": " + apps::registry_json()),
              std::string::npos);
}

TEST(Service, MapRequestsApplyTheEvalSpec) {
    ServiceOptions options;
    options.threads = 1;
    Service daemon(options);
    const std::string simulated = daemon.handle_line(
        "{\"id\": \"m1\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\", \"eval\": {\"eval\": \"simulated\", "
        "\"sim_cycles\": 3000, \"sim_warmup\": 300}}");
    EXPECT_NE(simulated.find("sim"), std::string::npos);
    EXPECT_NE(simulated.find("pareto"), std::string::npos);

    // The same request without a spec keeps the pre-backend report bytes:
    // no sim block, no pareto section.
    const std::string analytic = daemon.handle_line(
        "{\"id\": \"m2\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\"}");
    EXPECT_EQ(analytic.find("pareto"), std::string::npos);

    // An invalid spec is a per-scenario typed error, not a connection error.
    const std::string invalid = daemon.handle_line(
        "{\"id\": \"m3\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\", \"eval\": {\"eval\": \"systemc\"}}");
    EXPECT_NE(invalid.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(invalid.find("error_code"), std::string::npos);
}

} // namespace
} // namespace nocmap::service
