// Shard determinism: the coordinator's merged report must be byte-identical
// to a single-node PortfolioRunner run — at any worker count, under
// shuffled reply timing, and across worker deaths (tasks are idempotent,
// so a retry on a survivor reproduces the same bytes).
#include "shard/coordinator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "apps/registry.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "shard/worker_link.hpp"

namespace nocmap::shard {
namespace {

std::vector<portfolio::Scenario> test_grid(engine::Params params = {}) {
    const auto specs = portfolio::parse_topology_list("mesh,torus", 1e9);
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    for (const char* app : {"vopd", "mpeg4"})
        apps.emplace_back(
            app, std::make_shared<const graph::CoreGraph>(apps::make_application(app)));
    return portfolio::make_grid(apps, specs, "nmap", params, 0);
}

/// The reference bytes: a single-node run rendered as the deterministic
/// (timings-off) JSON document.
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

std::vector<std::unique_ptr<WorkerLink>> in_process_links(std::size_t count) {
    std::vector<std::unique_ptr<WorkerLink>> links;
    for (std::size_t i = 0; i < count; ++i) links.push_back(in_process_worker());
    return links;
}

/// Wraps a link and stalls each exchange by a per-link delay, so workers
/// finish in an order unrelated to dispatch order.
class DelayLink final : public WorkerLink {
public:
    DelayLink(std::unique_ptr<WorkerLink> inner, std::chrono::microseconds delay)
        : inner_(std::move(inner)), delay_(delay) {}
    const std::string& name() const noexcept override { return inner_->name(); }
    std::string exchange(const std::string& line) override {
        std::this_thread::sleep_for(delay_);
        return inner_->exchange(line);
    }

private:
    std::unique_ptr<WorkerLink> inner_;
    std::chrono::microseconds delay_;
};

/// Wraps a link and kills the transport after a fixed number of successful
/// exchanges (the hello handshake counts as one).
class FlakyLink final : public WorkerLink {
public:
    FlakyLink(std::unique_ptr<WorkerLink> inner, std::size_t successes)
        : inner_(std::move(inner)), remaining_(successes) {}
    const std::string& name() const noexcept override { return inner_->name(); }
    std::string exchange(const std::string& line) override {
        if (remaining_ == 0)
            throw std::runtime_error("flaky link: simulated transport failure");
        --remaining_;
        return inner_->exchange(line);
    }

private:
    std::unique_ptr<WorkerLink> inner_;
    std::size_t remaining_;
};

TEST(Shard, ScenariosParityAcrossWorkerCounts) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    for (const std::size_t workers : {1u, 2u, 4u}) {
        Coordinator coordinator(in_process_links(workers), ShardOptions{});
        EXPECT_EQ(sharded_json(coordinator, grid), expected) << workers << " workers";
    }
}

TEST(Shard, ScenariosParityWithMultiSweepParams) {
    // Non-default knobs must ride the shard-map wire unchanged: a dropped
    // or re-typed param would map differently and move the bytes.
    engine::Params params;
    params.set("sweeps", engine::ParamValue::of_int(3));
    params.set("eval", engine::ParamValue::of_string("incremental"));
    const auto grid = test_grid(params);
    const std::string expected = single_node_json(grid);
    ASSERT_NE(expected, single_node_json(test_grid()))
        << "the params must change the report (sweeps=3 improves mpeg4 on mesh), "
           "or parity proves nothing";
    Coordinator coordinator(in_process_links(3), ShardOptions{});
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
}

TEST(Shard, ScenariosParityUnderShuffledReplyTiming) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    // Wildly uneven per-worker latency: slot-indexed replies make
    // completion order irrelevant.
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<DelayLink>(in_process_worker(),
                                                std::chrono::microseconds(900)));
    links.push_back(
        std::make_unique<DelayLink>(in_process_worker(), std::chrono::microseconds(0)));
    links.push_back(std::make_unique<DelayLink>(in_process_worker(),
                                                std::chrono::microseconds(300)));
    Coordinator coordinator(std::move(links), ShardOptions{});
    // Several grids on one coordinator: each run re-dispatches over the
    // same links, and none may drift from the single-node bytes.
    for (int run = 0; run < 3; ++run) EXPECT_EQ(sharded_json(coordinator, grid), expected);
}

TEST(Shard, ScenariosParityAcrossWorkerDeathBetweenGrids) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    // One worker serves the hello and two grids' tasks, then dies on the
    // third grid; its task is reassigned to a survivor, the merged bytes
    // must not move, and later grids run on the two survivors.
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<FlakyLink>(in_process_worker(), 3));
    links.push_back(in_process_worker());
    links.push_back(in_process_worker());
    Coordinator coordinator(std::move(links), ShardOptions{});
    for (int run = 0; run < 2; ++run) {
        EXPECT_EQ(sharded_json(coordinator, grid), expected);
        EXPECT_EQ(coordinator.alive_count(), 3u);
    }
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 2u) << "the flaky worker should be marked dead";
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
}

TEST(Shard, ScenariosParityAcrossWorkerDeath) {
    const auto grid = test_grid();
    const std::string expected = single_node_json(grid);
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<FlakyLink>(in_process_worker(), 1)); // hello only
    links.push_back(in_process_worker());
    Coordinator coordinator(std::move(links), ShardOptions{});
    EXPECT_EQ(sharded_json(coordinator, grid), expected);
    EXPECT_EQ(coordinator.alive_count(), 1u);
}

TEST(Shard, DeadClusterYieldsPerScenarioErrorsNotThrows) {
    const auto grid = test_grid();
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<FlakyLink>(in_process_worker(), 1)); // hello only
    Coordinator coordinator(std::move(links), ShardOptions{});
    // The first grid kills the worker; the second starts with none alive.
    for (int run = 0; run < 2; ++run) {
        const auto results = coordinator.run_grid(grid);
        ASSERT_EQ(results.size(), grid.size());
        for (const auto& r : results) {
            EXPECT_FALSE(r.ok) << "run " << run;
            EXPECT_FALSE(r.error.empty()) << "run " << run;
        }
        EXPECT_EQ(coordinator.alive_count(), 0u);
    }
}

TEST(Shard, HandshakeFailureOfEveryWorkerThrows) {
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(std::make_unique<FlakyLink>(in_process_worker(), 0));
    EXPECT_THROW(Coordinator(std::move(links), ShardOptions{}), std::runtime_error);
}

TEST(Shard, WeightedPartitionFollowsAdvertisedCores) {
    // Workers advertise their options_.threads budget in the handshake.
    service::ServiceOptions small;
    small.threads = 1;
    service::ServiceOptions big;
    big.threads = 3;
    std::vector<std::unique_ptr<WorkerLink>> links;
    links.push_back(in_process_worker(small));
    links.push_back(in_process_worker(big));
    Coordinator coordinator(std::move(links), ShardOptions{});
    EXPECT_EQ(coordinator.worker_cores(0), 1u);
    EXPECT_EQ(coordinator.worker_cores(1), 3u);
}

} // namespace
} // namespace nocmap::shard
