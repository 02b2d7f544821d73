// Chaos suite: scheduled link faults (delay, drop, stall, garbage, kill),
// wedged (SIGSTOP'd) subprocess workers, and pre-hello deaths. The
// contract under every fault: a typed per-scenario error or a merged
// report byte-identical to a single-node run — never a hang (ctest
// enforces a per-test TIMEOUT on this binary) and never a throw out of
// run_grid. One run_grid gives each link exactly two exchanges (#0 hello,
// #1 the task) plus any retries, so faults are scheduled there, and every
// test checks through the shard metrics or alive_count() that its fault
// really fired.
#include "shard/fault.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "obs/metrics.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker_link.hpp"

namespace nocmap::shard {
namespace {

std::vector<portfolio::Scenario> test_grid() {
    const auto specs = portfolio::parse_topology_list("mesh,torus", 1e9);
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    for (const char* app : {"vopd", "pip"})
        apps.emplace_back(
            app, std::make_shared<const graph::CoreGraph>(apps::make_application(app)));
    return portfolio::make_grid(apps, specs, "nmap", {}, 0);
}

std::string single_node_json(const std::vector<portfolio::Scenario>& grid) {
    portfolio::PortfolioRunner runner{portfolio::PortfolioOptions{}};
    const auto results = runner.run(grid);
    portfolio::JsonOptions json;
    json.timings = false;
    return portfolio::to_json(results, portfolio::PortfolioRunner::rank_topologies(results),
                              json);
}

std::string sharded_json(Coordinator& coordinator,
                         const std::vector<portfolio::Scenario>& grid) {
    const auto results = coordinator.run_grid(grid);
    portfolio::JsonOptions json;
    json.timings = false;
    return portfolio::to_json(results, portfolio::PortfolioRunner::rank_topologies(results),
                              json);
}

/// Fast-failure ShardOptions: tests should not sit in backoff sleeps.
/// Metrics land in `metrics`, so each test can prove its fault fired.
ShardOptions fast_options(obs::Registry& metrics) {
    ShardOptions options;
    options.reconnect_backoff_ms = 10;
    options.metrics = &metrics;
    return options;
}

/// A coordinator counter: nocmap_shard_<name>_total, per worker or (with
/// worker < 0) coordinator-wide.
std::uint64_t shard_count(obs::Registry& metrics, const std::string& name, int worker = -1) {
    obs::Labels labels;
    if (worker >= 0) labels = {{"worker", std::to_string(worker)}};
    return metrics.counter("nocmap_shard_" + name + "_total", "", labels)->value();
}

TEST(Chaos, FaultPlanParsesTheCliGrammar) {
    const FaultPlan plan = FaultPlan::parse_cli("0:2:stall:500,1:0:kill,0:7:garbage", 2);
    ASSERT_EQ(plan.per_worker.size(), 2u);
    ASSERT_EQ(plan.per_worker[0].size(), 2u);
    EXPECT_EQ(plan.per_worker[0][0].at, 2u);
    EXPECT_EQ(plan.per_worker[0][0].kind, FaultKind::Stall);
    EXPECT_EQ(plan.per_worker[0][0].ms, 500u);
    EXPECT_EQ(plan.per_worker[0][1].kind, FaultKind::Garbage);
    EXPECT_EQ(plan.per_worker[1][0].kind, FaultKind::Kill);
    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(FaultPlan::parse_cli("", 2).empty());

    EXPECT_THROW(FaultPlan::parse_cli("0:1", 2), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse_cli("0:1:teleport", 2), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse_cli("2:0:drop", 2), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse_cli("x:0:drop", 2), std::runtime_error);
    EXPECT_THROW(FaultPlan::parse_cli("0:1:stall:abc", 2), std::runtime_error);
}

TEST(Chaos, InjectedFaultsPreserveByteParity) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    // Worker 0 delays its task, worker 1 garbles its task, and the serial
    // retry of worker 1's task goes to worker 0 first (round-robin from
    // the lowest live index), where exchange #2 drops. Worker 2 is clean
    // and ends up carrying the retry. In-process links cannot reconnect,
    // so each failure kills its worker.
    constexpr std::uint64_t delay_ms = 300;
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(make_faulty(in_process_worker(),
                                {{1, FaultKind::Delay, delay_ms}, {2, FaultKind::Drop, 0}}));
    links.push_back(make_faulty(in_process_worker(), {{1, FaultKind::Garbage, 0}}));
    links.push_back(in_process_worker());
    obs::Registry metrics;
    Coordinator coordinator(std::move(links), fast_options(metrics));
    const auto started = std::chrono::steady_clock::now();
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_GE(std::chrono::steady_clock::now() - started,
              std::chrono::milliseconds(delay_ms))
        << "the delay did not fire";
    EXPECT_EQ(coordinator.alive_count(), 1u) << "the drop and the garbage must both fire";
    EXPECT_EQ(shard_count(metrics, "reconnects", 0), 1u); // the drop
    EXPECT_EQ(shard_count(metrics, "reconnects", 1), 1u); // the garbage
    EXPECT_EQ(shard_count(metrics, "migrated_tasks"), 1u);
}

TEST(Chaos, StallFaultSurfacesAsTimeoutAndWorkMigrates) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(make_faulty(in_process_worker(), {{1, FaultKind::Stall, 10}}));
    links.push_back(in_process_worker());
    obs::Registry metrics;
    Coordinator coordinator(std::move(links), fast_options(metrics));
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    // In-process links cannot reconnect, so the stalled worker is dead.
    EXPECT_EQ(coordinator.alive_count(), 1u);
    EXPECT_EQ(shard_count(metrics, "timeouts", 0), 1u);
    EXPECT_EQ(shard_count(metrics, "timeouts", 1), 0u);
    EXPECT_EQ(shard_count(metrics, "migrated_tasks"), 1u);
}

TEST(Chaos, EveryWorkerFaultedYieldsTypedErrorsNotThrows) {
    const auto grid = test_grid();
    // Both workers drop everything after the hello handshake.
    std::vector<FaultAction> always_drop;
    for (std::size_t at = 1; at < 64; ++at) always_drop.push_back({at, FaultKind::Drop, 0});
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(make_faulty(in_process_worker(), always_drop));
    links.push_back(make_faulty(in_process_worker(), always_drop));
    obs::Registry metrics;
    Coordinator coordinator(std::move(links), fast_options(metrics));
    const auto results = coordinator.run_grid(grid);
    ASSERT_EQ(results.size(), grid.size());
    for (const auto& r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_FALSE(r.error.empty());
    }
    EXPECT_EQ(coordinator.alive_count(), 0u);
}

TEST(Chaos, GarbageReplyTriggersReconnectAndRecoversOverTcp) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    LocalFleet fleet = LocalFleet::spawn(1);
    auto links = fleet.connect_all(LinkTimeouts{5000, 30000});
    // The sole worker garbles its task reply: the coordinator must treat
    // it as a transport failure, reconnect, re-hello (#2), and replay the
    // task (#3) on the SAME worker (there is no other), ending
    // byte-identical.
    links[0] = make_faulty(std::move(links[0]), {{1, FaultKind::Garbage, 0}});
    obs::Registry metrics;
    Coordinator coordinator(std::move(links), fast_options(metrics));
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 1u) << "reconnect must revive the worker";
    EXPECT_EQ(shard_count(metrics, "reconnects", 0), 1u);
    EXPECT_EQ(shard_count(metrics, "retries", 0), 1u);
    EXPECT_EQ(shard_count(metrics, "migrated_tasks"), 0u);
}

TEST(Chaos, KilledSubprocessWorkerDegradesGracefully) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    LocalFleet fleet = LocalFleet::spawn(2);
    auto links = fleet.connect_all(LinkTimeouts{5000, 30000});
    // Worker 0 is SIGKILLed during its first real task; worker 1 absorbs
    // the reassigned work.
    links[0] = make_faulty(std::move(links[0]), {{1, FaultKind::Kill, 0}},
                           [&fleet] { fleet.kill_worker(0); });
    obs::Registry metrics;
    Coordinator coordinator(std::move(links), fast_options(metrics));
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 1u);
    EXPECT_EQ(shard_count(metrics, "migrated_tasks"), 1u);
}

TEST(Chaos, SigstoppedWorkerTimesOutAndWorkCompletes) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    LocalFleet fleet = LocalFleet::spawn(2);
    // Tight io budget: a wedged worker costs ~io_ms per attempt, not a
    // hang. (The ctest TIMEOUT on this binary is the ultimate backstop.)
    auto links = fleet.connect_all(LinkTimeouts{2000, 500});
    obs::Registry metrics;
    ShardOptions options = fast_options(metrics);
    options.reconnect_attempts = 1;
    Coordinator coordinator(std::move(links), options);
    // Wedge worker 0 AFTER the hello handshake: its next exchange must
    // time out, the reconnect escalation must also time out (the kernel
    // still completes TCP handshakes via the listen backlog), and worker 1
    // must finish everything byte-identically.
    ::kill(fleet.pid(0), SIGSTOP);
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 1u);
    EXPECT_EQ(shard_count(metrics, "timeouts", 0), 1u);
    EXPECT_EQ(shard_count(metrics, "timeouts", 1), 0u);
    EXPECT_EQ(shard_count(metrics, "migrated_tasks"), 1u);
    // SIGKILL works on a stopped process; teardown must not hang either.
    fleet.kill_worker(0);
}

TEST(Chaos, FleetSurvivesWorkerDeadBeforeHello) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    LocalFleet fleet = LocalFleet::spawn(2);
    auto links = fleet.connect_all(LinkTimeouts{2000, 30000});
    // Worker 0 dies after its link connected but before the coordinator's
    // hello: the handshake fails (reconnect hits a dead port), the
    // coordinator carries on with worker 1, and fleet teardown (both here
    // and in the destructor) reaps without hanging.
    fleet.kill_worker(0);
    obs::Registry metrics;
    ShardOptions options = fast_options(metrics);
    options.reconnect_attempts = 1;
    Coordinator coordinator(std::move(links), options);
    EXPECT_EQ(coordinator.alive_count(), 1u);
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    fleet.shutdown(); // explicit teardown path, then the destructor no-ops
}

} // namespace
} // namespace nocmap::shard
