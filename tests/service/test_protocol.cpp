// service protocol: request parsing (valid, defaulted, malformed) and
// response serialization, plus the util::json parser they stand on.

#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include "util/json.hpp"

namespace nocmap::service {
namespace {

TEST(JsonParser, ParsesScalarsContainersAndEscapes) {
    using util::json::parse;
    EXPECT_TRUE(parse("null").is_null());
    EXPECT_EQ(parse("true").as_bool(), true);
    EXPECT_DOUBLE_EQ(parse("-12.5e2").as_number(), -1250.0);
    EXPECT_EQ(parse("\"a\\n\\\"b\\\"\\u0041\"").as_string(), "a\n\"b\"A");
    const auto arr = parse("[1, [2], {\"k\": 3}]").as_array();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
    const auto obj = parse("{\"a\": 1, \"b\": {\"c\": [true]}}");
    ASSERT_NE(obj.find("b"), nullptr);
    EXPECT_EQ(obj.find("b")->find("c")->as_array()[0].as_bool(), true);
    EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(JsonParser, RejectsMalformedDocuments) {
    using util::json::parse;
    for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "\"unterminated", "01", "1 2",
                            "nul", "{\"a\" 1}", "\"\\u12\"", "\"\\q\""})
        EXPECT_THROW(parse(bad), std::invalid_argument) << bad;
}

TEST(JsonParser, BoundsNestingDepth) {
    // A hostile line of repeated '[' must fail cleanly, not blow the stack.
    const std::string deep(100000, '[');
    EXPECT_THROW(util::json::parse(deep), std::invalid_argument);
    // Legitimate nesting well under the bound still parses.
    std::string ok;
    for (int i = 0; i < 100; ++i) ok += '[';
    ok += '1';
    for (int i = 0; i < 100; ++i) ok += ']';
    EXPECT_NO_THROW(util::json::parse(ok));
}

TEST(JsonParser, RoundTripsEscapedStrings) {
    const std::string nasty = "line\nquote\"back\\slash\ttab\x01";
    const auto parsed = util::json::parse(util::json::quoted(nasty));
    EXPECT_EQ(parsed.as_string(), nasty);
}

TEST(Protocol, ParsesMapRequestWithDefaults) {
    const Request r = parse_request(
        "{\"id\": \"r1\", \"method\": \"map\", \"apps\": [\"vopd\", \"mpeg4\"]}");
    EXPECT_EQ(r.kind, Request::Kind::Map);
    EXPECT_EQ(r.id, "r1");
    ASSERT_EQ(r.map.apps.size(), 2u);
    EXPECT_EQ(r.map.apps[1], "mpeg4");
    EXPECT_TRUE(r.map.topologies.empty()); // server default applies
    EXPECT_TRUE(r.map.mapper.empty());
    EXPECT_DOUBLE_EQ(r.map.bandwidth, 0.0);
}

TEST(Protocol, ParsesMapRequestWithAllFields) {
    const Request r = parse_request(
        "{\"id\": \"x\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh:4x4,ring\", \"mapper\": \"gmap\", \"bandwidth\": 512}");
    EXPECT_EQ(r.map.topologies, "mesh:4x4,ring");
    EXPECT_EQ(r.map.mapper, "gmap");
    EXPECT_DOUBLE_EQ(r.map.bandwidth, 512.0);
    EXPECT_EQ(r.map.deadline_ms, 0u); // absent = server default
}

TEST(Protocol, ParsesMapRequestDeadline) {
    const Request r = parse_request(
        "{\"id\": \"x\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"deadline_ms\": 2500}");
    EXPECT_EQ(r.map.deadline_ms, 2500u);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [\"pip\"], "
                               "\"deadline_ms\": -1}"),
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [\"pip\"], "
                               "\"deadline_ms\": 1.5}"),
                 std::invalid_argument);
}

TEST(Protocol, ParsesMapRequestParamsAndSeed) {
    const Request r = parse_request(
        "{\"id\": \"x\", \"method\": \"map\", \"apps\": [\"pip\"], \"mapper\": \"sa\", "
        "\"params\": {\"cooling\": 0.9, \"sweeps\": 2, \"bandwidth_aware\": true, "
        "\"eval\": \"ledger-fast\"}, \"seed\": 42}");
    EXPECT_EQ(r.map.seed, 42u);
    // Typed JSON values keep their carrier; print() is sorted + canonical.
    EXPECT_EQ(r.map.params.print(),
              "bandwidth_aware=true,cooling=0.9,eval=ledger-fast,sweeps=2");
    EXPECT_EQ(r.map.params.find("sweeps")->type(), engine::ParamType::Int);
    EXPECT_EQ(r.map.params.find("cooling")->type(), engine::ParamType::Double);
    EXPECT_EQ(r.map.params.find("bandwidth_aware")->type(), engine::ParamType::Bool);
    // String values run the same inference as CLI --opt text.
    const Request inferred = parse_request(
        "{\"method\": \"map\", \"apps\": [\"pip\"], \"params\": {\"seed\": \"7\"}}");
    EXPECT_EQ(inferred.map.params.find("seed")->type(), engine::ParamType::Int);

    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [\"pip\"], "
                               "\"params\": [1]}"),
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [\"pip\"], "
                               "\"params\": {\"a\": [1]}}"),
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [\"pip\"], "
                               "\"seed\": -1}"),
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [\"pip\"], "
                               "\"seed\": 1.5}"),
                 std::invalid_argument);
}

TEST(Protocol, ParsesDescribeRequests) {
    const Request all = parse_request("{\"id\": \"d\", \"method\": \"describe\"}");
    EXPECT_EQ(all.kind, Request::Kind::Describe);
    EXPECT_TRUE(all.describe_algo.empty());
    const Request one =
        parse_request("{\"method\": \"describe\", \"algo\": \"nmap\"}");
    EXPECT_EQ(one.kind, Request::Kind::Describe);
    EXPECT_EQ(one.describe_algo, "nmap");
}

TEST(Protocol, DescribeResponseEmbedsTheCliDocuments) {
    const std::vector<engine::MapperDescription> descriptions = {
        engine::registry().describe("nmap"), engine::registry().describe("gmap")};
    const std::string line = describe_response("d1", descriptions);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const auto doc = util::json::parse(line);
    EXPECT_EQ(doc.find("status")->as_string(), "ok");
    const auto& algos = doc.find("algos")->as_array();
    ASSERT_EQ(algos.size(), 2u);
    EXPECT_EQ(algos[0].find("name")->as_string(), "nmap");
    // The embedded document is byte-identical to --describe-algo --json.
    EXPECT_EQ(algos[0].find("describe")->as_string(),
              engine::describe_json(descriptions[0]));
}

TEST(Protocol, ParsesControlRequests) {
    EXPECT_EQ(parse_request("{\"method\": \"ping\"}").kind, Request::Kind::Ping);
    EXPECT_EQ(parse_request("{\"method\": \"ping\"}").id, "");
    EXPECT_EQ(parse_request("{\"id\": \"s\", \"method\": \"stats\"}").kind,
              Request::Kind::Stats);
    EXPECT_EQ(parse_request("{\"method\": \"shutdown\"}").kind, Request::Kind::Shutdown);
}

TEST(Protocol, RejectsBadRequests) {
    EXPECT_THROW(parse_request("not json"), std::invalid_argument);
    EXPECT_THROW(parse_request("[1]"), std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"fly\"}"), std::invalid_argument);
    EXPECT_THROW(parse_request("{\"id\": \"r\"}"), std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\"}"), std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": []}"),
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [1]}"),
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [\"vopd\"], "
                               "\"bandwidth\": \"fast\"}"),
                 std::invalid_argument);
    EXPECT_THROW(parse_request("{\"method\": \"map\", \"apps\": [\"vopd\"], "
                               "\"bandwidth\": -1}"),
                 std::invalid_argument);
}

TEST(Protocol, RejectsNonFiniteBandwidth) {
    // 1e999 overflows to +inf in the number parser: it must not run as an
    // unconstrained fabric, nor travel on as an unprintable shard request.
    const std::string map = R"({"method": "map", "apps": ["vopd"], "bandwidth": )";
    EXPECT_NO_THROW(parse_request(map + "512}"));
    EXPECT_THROW(parse_request(map + "1e999}"), std::invalid_argument);
    const std::string shard = R"({"method": "shard-map", "scenarios": [{"app": "a", )"
                              R"("graph": "g", "topology": "mesh", "bandwidth": )";
    EXPECT_NO_THROW(parse_request(shard + "512}]}"));
    EXPECT_THROW(parse_request(shard + "1e999}]}"), std::invalid_argument);
}

TEST(Protocol, ResponsesAreSingleLineJsonEchoingTheId) {
    portfolio::TopologyCacheStats stats{3, 8, 10, 4, 1};
    ServiceStats service{120, 2, 9, 1, 3, true};
    for (const std::string& line :
         {error_response("e1", "boom \"quoted\""), ping_response("p1"),
          shutdown_response("q1"), stats_response("s1", stats, service),
          map_response("m1", "{\n  \"scenarios\": []\n}\n", stats)}) {
        EXPECT_EQ(line.find('\n'), std::string::npos) << line;
        const auto doc = util::json::parse(line); // every response re-parses
        ASSERT_NE(doc.find("id"), nullptr);
        ASSERT_NE(doc.find("status"), nullptr);
    }
    const auto stats_doc = util::json::parse(stats_response("s1", stats, service));
    const auto* cache = stats_doc.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_DOUBLE_EQ(cache->find("fabrics")->as_number(), 3.0);
    EXPECT_DOUBLE_EQ(cache->find("capacity")->as_number(), 8.0);
    EXPECT_DOUBLE_EQ(cache->find("hits")->as_number(), 10.0);
    EXPECT_DOUBLE_EQ(cache->find("misses")->as_number(), 4.0);
    EXPECT_DOUBLE_EQ(cache->find("evictions")->as_number(), 1.0);
    const auto* svc = stats_doc.find("service");
    ASSERT_NE(svc, nullptr);
    EXPECT_DOUBLE_EQ(svc->find("uptime_s")->as_number(), 120.0);
    EXPECT_DOUBLE_EQ(svc->find("in_flight")->as_number(), 2.0);
    EXPECT_DOUBLE_EQ(svc->find("accepted")->as_number(), 9.0);
    EXPECT_DOUBLE_EQ(svc->find("rejected")->as_number(), 1.0);
    EXPECT_DOUBLE_EQ(svc->find("overloaded")->as_number(), 3.0);
    EXPECT_EQ(svc->find("draining")->as_bool(), true);

    // The embedded report round-trips byte-exact through the escaping.
    const auto map_doc = util::json::parse(map_response("m1", "{\n  \"x\": 1\n}\n", stats));
    EXPECT_EQ(map_doc.find("report")->as_string(), "{\n  \"x\": 1\n}\n");
    EXPECT_EQ(map_doc.find("status")->as_string(), "ok");
}

TEST(Protocol, ErrorResponseCarriesOptionalTypedCode) {
    // Bare form: exactly the pre-existing two-field line (byte contract).
    const std::string bare = error_response("e1", "boom");
    EXPECT_EQ(bare.find("\"code\""), std::string::npos);
    const auto coded = util::json::parse(error_response("e2", "too busy", "overloaded"));
    EXPECT_EQ(coded.find("status")->as_string(), "error");
    EXPECT_EQ(coded.find("error")->as_string(), "too busy");
    EXPECT_EQ(coded.find("code")->as_string(), "overloaded");
}

} // namespace
} // namespace nocmap::service
