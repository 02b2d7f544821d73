// Round-trips of the shard verbs: every request line the coordinator
// serializes must parse back identically on the worker, and every reply
// must carry its floating-point payload bit-exactly (hex-float transport —
// the report-facing %.6g would corrupt the byte-parity contract).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/registry.hpp"
#include "graph/graph_io.hpp"
#include "service/protocol.hpp"

namespace nocmap::service {
namespace {

TEST(ShardProtocol, HelloRoundTrip) {
    const Request request = parse_request(hello_request("h1"));
    EXPECT_EQ(request.kind, Request::Kind::Hello);
    EXPECT_EQ(request.id, "h1");
    EXPECT_EQ(parse_hello_response(hello_response("h1", 12)), 12u);
}

TEST(ShardProtocol, ShardMapRoundTripsBitExact) {
    ShardMapScenario scenario;
    scenario.app = "vopd";
    scenario.graph_text = graph::core_graph_to_string(apps::make_application("vopd"));
    scenario.topology = "mesh";
    scenario.bandwidth = 1e9;
    scenario.mapper = "nmap";
    scenario.seed = 7;
    scenario.deadline_ms = 750;
    scenario.params.set("sweeps", engine::ParamValue::of_int(2));

    const Request parsed = parse_request(shard_map_request("m1", {scenario}));
    EXPECT_EQ(parsed.kind, Request::Kind::ShardMap);
    ASSERT_EQ(parsed.shard_scenarios.size(), 1u);
    const ShardMapScenario& got = parsed.shard_scenarios[0];
    EXPECT_EQ(got.app, "vopd");
    EXPECT_EQ(got.graph_text, scenario.graph_text);
    EXPECT_EQ(got.topology, "mesh");
    EXPECT_EQ(got.bandwidth, 1e9);
    EXPECT_EQ(got.mapper, "nmap");
    EXPECT_EQ(got.seed, 7u);
    EXPECT_EQ(got.deadline_ms, 750u);
    ASSERT_NE(got.params.find("sweeps"), nullptr);
    EXPECT_EQ(got.params.find("sweeps")->as_int(), 2);

    ShardMapMetrics good;
    good.ok = true;
    good.feasible = true;
    good.tiles = 16;
    good.links = 48;
    good.comm_cost = 4119.3333333333339; // needs > 6 significant digits
    good.energy_mw = 0.1;
    good.area_mm2 = 2.25;
    good.avg_hops = 1.5881234567890123;
    ShardMapMetrics bad;
    bad.ok = false;
    bad.error = "unknown parameter \"bogus\"";
    bad.error_code = "unknown-param";

    const auto results = parse_shard_map_response(shard_map_response("m1", {good, bad}));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[0].feasible);
    EXPECT_EQ(results[0].tiles, 16u);
    EXPECT_EQ(results[0].links, 48u);
    EXPECT_EQ(results[0].comm_cost, good.comm_cost);
    EXPECT_EQ(results[0].energy_mw, good.energy_mw);
    EXPECT_EQ(results[0].area_mm2, good.area_mm2);
    EXPECT_EQ(results[0].avg_hops, good.avg_hops);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].error, bad.error);
    EXPECT_EQ(results[1].error_code, "unknown-param");
}

TEST(ShardProtocol, ErrorResponsesThrowWorkerError) {
    const std::string line = error_response("t9", "graph text is empty");
    EXPECT_THROW(parse_shard_map_response(line), std::runtime_error);
    EXPECT_THROW(parse_hello_response(line), std::runtime_error);
}

TEST(ShardProtocol, MalformedShardRequestsAreRejected) {
    // Missing graph text.
    EXPECT_THROW(parse_request(R"({"id":"x","method":"shard-map","scenarios":)"
                               R"([{"topology":"mesh:2x2","bandwidth":1}]})"),
                 std::invalid_argument);
    // Scenarios must be an array of objects.
    EXPECT_THROW(parse_request(R"({"id":"x","method":"shard-map","scenarios":3})"),
                 std::invalid_argument);
}

} // namespace
} // namespace nocmap::service
