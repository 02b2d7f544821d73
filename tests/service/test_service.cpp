// service::Service end-to-end: session loop batching, responses
// bit-identical to one-shot portfolio runs (under eviction pressure and
// any thread count), and the TCP socket mode.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "apps/registry.hpp"
#include "engine/mapper.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "util/json.hpp"

namespace nocmap::service {
namespace {

std::string report_of(const std::string& response_line) {
    const auto doc = util::json::parse(response_line);
    const auto* report = doc.find("report");
    return report ? report->as_string() : "";
}

std::string status_of(const std::string& response_line) {
    return util::json::parse(response_line).find("status")->as_string();
}

/// The one-shot reference: a fresh runner mapping the same grid, rendered
/// as the deterministic document (what `portfolio --json --json-stable`
/// writes).
std::string one_shot_report(const std::vector<std::string>& apps,
                            const std::string& topologies, const std::string& mapper) {
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> loaded;
    for (const std::string& app : apps)
        loaded.emplace_back(app, std::make_shared<const graph::CoreGraph>(
                                     apps::load_graph_or_application(app)));
    portfolio::PortfolioRunner runner;
    const auto results =
        runner.run(portfolio::make_grid(loaded, portfolio::parse_topology_list(topologies),
                                        mapper));
    portfolio::JsonOptions json;
    json.timings = false;
    return portfolio::to_json(results, portfolio::PortfolioRunner::rank_topologies(results),
                              json);
}

TEST(Service, AnswersControlAndErrorLines) {
    Service daemon;
    EXPECT_EQ(daemon.handle_line("{\"id\": \"p\", \"method\": \"ping\"}"),
              "{\"id\": \"p\", \"status\": \"ok\", \"pong\": true}");
    EXPECT_EQ(status_of(daemon.handle_line("{\"id\": \"s\", \"method\": \"stats\"}")), "ok");
    EXPECT_EQ(status_of(daemon.handle_line("garbage")), "error");
    EXPECT_EQ(status_of(daemon.handle_line("{\"method\": \"map\", \"apps\": [\"nope\"]}")),
              "error");
    // A request that fails validation still gets its id echoed back.
    const auto bad =
        daemon.handle_line("{\"id\": \"r7\", \"method\": \"map\", \"apps\": \"vopd\"}");
    EXPECT_EQ(status_of(bad), "error");
    EXPECT_EQ(util::json::parse(bad).find("id")->as_string(), "r7");
    EXPECT_FALSE(daemon.shutdown_requested());
    EXPECT_EQ(status_of(daemon.handle_line("{\"id\": \"q\", \"method\": \"shutdown\"}")),
              "ok");
    EXPECT_TRUE(daemon.shutdown_requested());
}

TEST(Service, MapReportsAreBitIdenticalToOneShotRuns) {
    // Eviction pressure + parallel workers: the strictest determinism
    // setting the acceptance criteria name.
    ServiceOptions options;
    options.cache_topologies = 1;
    options.threads = 4;
    Service daemon(options);

    const std::vector<std::string> requests = {
        "{\"id\": \"a\", \"method\": \"map\", \"apps\": [\"vopd\", \"mpeg4\"], "
        "\"topologies\": \"mesh,torus,hypercube\"}",
        "{\"id\": \"b\", \"method\": \"map\", \"apps\": [\"vopd\"], "
        "\"topologies\": \"mesh,ring\"}",
        "{\"id\": \"c\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\", \"mapper\": \"gmap\"}",
    };
    const auto batched = daemon.handle_batch(requests);
    ASSERT_EQ(batched.size(), 3u);
    EXPECT_EQ(report_of(batched[0]),
              one_shot_report({"vopd", "mpeg4"}, "mesh,torus,hypercube", "nmap"));
    EXPECT_EQ(report_of(batched[1]), one_shot_report({"vopd"}, "mesh,ring", "nmap"));
    EXPECT_EQ(report_of(batched[2]), one_shot_report({"pip"}, "mesh", "gmap"));

    // Replaying the same requests one line at a time (no batching, warm
    // cache) must produce the same report bytes.
    Service serial(options);
    for (std::size_t i = 0; i < requests.size(); ++i)
        EXPECT_EQ(report_of(serial.handle_line(requests[i])), report_of(batched[i])) << i;
}

TEST(Service, ParamCarryingMapReportsMatchOneShotRunsWithTheSameParams) {
    ServiceOptions options;
    options.threads = 2;
    Service daemon(options);
    const auto response = daemon.handle_line(
        "{\"id\": \"p\", \"method\": \"map\", \"apps\": [\"pip\", \"vopd\"], "
        "\"topologies\": \"mesh,torus\", \"mapper\": \"sa\", "
        "\"params\": {\"cooling\": 0.9}, \"seed\": 31}");
    EXPECT_EQ(status_of(response), "ok");

    // One-shot reference with the identical params + seed.
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> loaded;
    for (const char* app : {"pip", "vopd"})
        loaded.emplace_back(app, std::make_shared<const graph::CoreGraph>(
                                     apps::load_graph_or_application(app)));
    engine::Params params;
    params.set_assignment("cooling=0.9");
    portfolio::PortfolioRunner runner;
    const auto results = runner.run(portfolio::make_grid(
        loaded, portfolio::parse_topology_list("mesh,torus"), "sa", params, 31));
    portfolio::JsonOptions json;
    json.timings = false;
    EXPECT_EQ(report_of(response),
              portfolio::to_json(results,
                                 portfolio::PortfolioRunner::rank_topologies(results),
                                 json));
}

TEST(Service, DaemonDefaultParamsAndSeedApplyWhenARequestOmitsThem) {
    ServiceOptions options;
    options.default_mapper = "sa";
    options.default_params.set_assignment("cooling=0.9");
    options.default_seed = 31;
    Service daemon(options);
    const auto defaulted = daemon.handle_line(
        "{\"id\": \"d\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\"}");
    // Identical to a request naming the same params explicitly...
    const auto explicit_response = daemon.handle_line(
        "{\"id\": \"e\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\", \"params\": {\"cooling\": 0.9}, \"seed\": 31}");
    EXPECT_EQ(report_of(defaulted), report_of(explicit_response));
    // ...and a request's own params replace the defaults wholesale.
    const auto overridden = daemon.handle_line(
        "{\"id\": \"o\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\", \"params\": {\"seed\": 1, \"cooling\": 0.95}}");
    Service plain([] {
        ServiceOptions o;
        o.default_mapper = "sa";
        return o;
    }());
    const auto reference = plain.handle_line(
        "{\"id\": \"r\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\"}");
    EXPECT_EQ(report_of(overridden), report_of(reference));
}

TEST(Service, ParamFailuresAreStructuredErrorObjectsNotConnectionFailures) {
    Service daemon;
    // Out-of-range knob: the response is still "ok" (the protocol layer
    // accepted it); the failure lives in the per-scenario error object.
    const auto response = daemon.handle_line(
        "{\"id\": \"e\", \"method\": \"map\", \"apps\": [\"pip\"], "
        "\"topologies\": \"mesh\", \"mapper\": \"sa\", "
        "\"params\": {\"cooling\": 7}}");
    EXPECT_EQ(status_of(response), "ok");
    const auto report = util::json::parse(report_of(response));
    const auto& scenario = report.find("scenarios")->as_array()[0];
    EXPECT_EQ(scenario.find("ok")->as_bool(), false);
    EXPECT_EQ(scenario.find("error_code")->as_string(), "param-out-of-range");
    EXPECT_NE(scenario.find("error")->as_string().find("cooling"), std::string::npos);

    // The exhaustive search-space guard surfaces the same way.
    const auto guard = daemon.handle_line(
        "{\"id\": \"g\", \"method\": \"map\", \"apps\": [\"vopd\"], "
        "\"topologies\": \"mesh\", \"mapper\": \"exhaustive\"}");
    EXPECT_EQ(status_of(guard), "ok");
    const auto guard_report = util::json::parse(report_of(guard));
    EXPECT_EQ(guard_report.find("scenarios")->as_array()[0].find("error_code")->as_string(),
              "search-space-exceeded");
    // The daemon is still alive and serving.
    EXPECT_EQ(status_of(daemon.handle_line("{\"method\": \"ping\"}")), "ok");
}

TEST(Service, DescribeVerbReturnsParamSpecs) {
    Service daemon;
    const auto one =
        daemon.handle_line("{\"id\": \"d\", \"method\": \"describe\", \"algo\": \"sa\"}");
    EXPECT_EQ(status_of(one), "ok");
    const auto one_doc = util::json::parse(one);
    const auto& algos = one_doc.find("algos")->as_array();
    ASSERT_EQ(algos.size(), 1u);
    EXPECT_EQ(algos[0].find("name")->as_string(), "sa");
    EXPECT_EQ(algos[0].find("describe")->as_string(),
              engine::describe_json(engine::registry().describe("sa")));

    const auto all = daemon.handle_line("{\"id\": \"da\", \"method\": \"describe\"}");
    EXPECT_EQ(util::json::parse(all).find("algos")->as_array().size(),
              engine::registry().names().size());

    const auto unknown = daemon.handle_line(
        "{\"id\": \"du\", \"method\": \"describe\", \"algo\": \"warp\"}");
    EXPECT_EQ(status_of(unknown), "error");
}

TEST(Service, SessionLoopBatchesBufferedLinesAndStopsOnShutdown) {
    ServiceOptions options;
    options.cache_topologies = 1;
    Service daemon(options);
    // Both map requests share vopd's mesh fabric; arriving in one buffered
    // chunk they form one batch, so the fabric-grouped pass builds mesh
    // once (1 hit) despite capacity 1.
    std::istringstream in("{\"id\": \"r1\", \"method\": \"map\", \"apps\": [\"vopd\"], "
                          "\"topologies\": \"mesh,torus\"}\n"
                          "{\"id\": \"r2\", \"method\": \"map\", \"apps\": [\"vopd\"], "
                          "\"topologies\": \"mesh\"}\n"
                          "{\"id\": \"s\", \"method\": \"stats\"}\n"
                          "{\"id\": \"q\", \"method\": \"shutdown\"}\n"
                          "{\"id\": \"after\", \"method\": \"ping\"}\n");
    std::ostringstream out;
    EXPECT_EQ(daemon.serve(in, out), 0);
    EXPECT_TRUE(daemon.shutdown_requested());

    std::vector<std::string> lines;
    std::istringstream reread(out.str());
    for (std::string line; std::getline(reread, line);) lines.push_back(line);
    // All five buffered lines formed one batch and were all answered (the
    // shutdown takes effect at the batch boundary), in request order.
    ASSERT_EQ(lines.size(), 5u);
    EXPECT_EQ(util::json::parse(lines[0]).find("id")->as_string(), "r1");
    EXPECT_EQ(util::json::parse(lines[1]).find("id")->as_string(), "r2");
    EXPECT_EQ(util::json::parse(lines[4]).find("id")->as_string(), "after");

    const auto stats_doc = util::json::parse(lines[2]);
    const auto* cache = stats_doc.find("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_DOUBLE_EQ(cache->find("hits")->as_number(), 1.0);
    EXPECT_DOUBLE_EQ(cache->find("misses")->as_number(), 2.0);
    EXPECT_DOUBLE_EQ(cache->find("capacity")->as_number(), 1.0);
}

TEST(Service, ServesTheLineProtocolOverTcp) {
    ServiceOptions options;
    Service daemon(options);
    std::promise<std::uint16_t> bound;
    std::thread server([&] {
        daemon.serve_socket(0, [&](std::uint16_t port) { bound.set_value(port); });
    });
    const std::uint16_t port = bound.get_future().get();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

    const std::string requests = "{\"id\": \"p\", \"method\": \"ping\"}\n"
                                 "{\"id\": \"m\", \"method\": \"map\", \"apps\": "
                                 "[\"pip\"], \"topologies\": \"mesh\"}\n"
                                 "{\"id\": \"q\", \"method\": \"shutdown\"}\n";
    ASSERT_EQ(::send(fd, requests.data(), requests.size(), 0),
              static_cast<ssize_t>(requests.size()));

    std::string received;
    char buffer[4096];
    while (true) {
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n <= 0) break; // daemon closes the connection after shutdown
        received.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    server.join();

    std::vector<std::string> lines;
    std::istringstream reread(received);
    for (std::string line; std::getline(reread, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(util::json::parse(lines[0]).find("id")->as_string(), "p");
    EXPECT_EQ(report_of(lines[1]), one_shot_report({"pip"}, "mesh", "nmap"));
    EXPECT_EQ(util::json::parse(lines[2]).find("shutdown")->as_bool(), true);
    EXPECT_TRUE(daemon.shutdown_requested());
}

TEST(Service, AcceptedSocketsDisableNagle) {
    ServiceOptions options;
    Service daemon(options);
    std::promise<std::uint16_t> bound;
    std::thread server([&] {
        daemon.serve_socket(0, [&](std::uint16_t port) { bound.set_value(port); });
    });
    const std::uint16_t port = bound.get_future().get();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    sockaddr_in client{};
    socklen_t len = sizeof client;
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&client), &len), 0);

    // A ping answer means the daemon accepted and configured the session.
    const std::string ping = "{\"id\": \"p\", \"method\": \"ping\"}\n";
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), 0), static_cast<ssize_t>(ping.size()));
    char buffer[4096];
    ASSERT_GT(::recv(fd, buffer, sizeof buffer, 0), 0);

    // The daemon runs in this process: find its end of the connection (local
    // port = the daemon's, peer port = ours) and read the option back.
    int accepted = -1;
    for (int candidate = 0; candidate < 1024 && accepted < 0; ++candidate) {
        sockaddr_in local{};
        sockaddr_in peer{};
        socklen_t local_len = sizeof local;
        socklen_t peer_len = sizeof peer;
        if (::getsockname(candidate, reinterpret_cast<sockaddr*>(&local), &local_len) != 0 ||
            ::getpeername(candidate, reinterpret_cast<sockaddr*>(&peer), &peer_len) != 0)
            continue;
        if (local.sin_family == AF_INET && local.sin_port == htons(port) &&
            peer.sin_port == client.sin_port)
            accepted = candidate;
    }
    ASSERT_GE(accepted, 0);
    int nodelay = 0;
    socklen_t opt_len = sizeof nodelay;
    ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &opt_len), 0);
    EXPECT_NE(nodelay, 0);

    const std::string quit = "{\"id\": \"q\", \"method\": \"shutdown\"}\n";
    ASSERT_EQ(::send(fd, quit.data(), quit.size(), 0), static_cast<ssize_t>(quit.size()));
    while (::recv(fd, buffer, sizeof buffer, 0) > 0) {
    }
    ::close(fd);
    server.join();
}

} // namespace
} // namespace nocmap::service
