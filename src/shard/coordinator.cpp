#include "shard/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "engine/thread_budget.hpp"
#include "graph/graph_io.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"

namespace nocmap::shard {

namespace {

/// Identity fields every result carries, wire-independent — must mirror
/// PortfolioRunner::run_one exactly (the byte-parity contract).
portfolio::ScenarioResult result_shell(const portfolio::Scenario& scenario,
                                       std::size_t index) {
    portfolio::ScenarioResult r;
    r.index = index;
    r.name = scenario.display_name();
    r.app = scenario.app;
    r.topology = scenario.topology.display_name();
    r.mapper = scenario.mapper;
    return r;
}

/// Cheap shape check, not a parse: every protocol response is a JSON
/// object carrying a "status" member. Anything else (a corrupted frame, a
/// non-protocol peer) is treated as a transport failure, so garbage can
/// never reach the response parsers as data.
bool looks_like_response(const std::string& line) {
    return !line.empty() && line.front() == '{' &&
           line.find("\"status\"") != std::string::npos;
}

} // namespace

Coordinator::Coordinator(std::vector<std::unique_ptr<WorkerLink>> links, ShardOptions options)
    : options_(options) {
    if (links.empty()) throw std::runtime_error("shard: coordinator needs at least one worker");
    workers_.reserve(links.size());
    for (auto& link : links) {
        Worker worker;
        worker.link = std::move(link);
        try {
            worker.cores = service::parse_hello_response(
                worker.link->exchange(service::hello_request(next_id("hello"))));
        } catch (const std::exception&) {
            worker.alive = false;
        }
        workers_.push_back(std::move(worker));
    }
    if (alive_count() == 0)
        throw std::runtime_error("shard: no worker survived the hello handshake");
    if (options_.metrics) {
        obs::Registry& reg = *options_.metrics;
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            const obs::Labels labels{{"worker", std::to_string(i)}};
            workers_[i].m_exchanges = reg.counter(
                "nocmap_shard_exchanges_total",
                "Request/response exchanges attempted on this worker", labels);
            workers_[i].m_retries = reg.counter(
                "nocmap_shard_retries_total",
                "Exchange retries after a transport failure on this worker", labels);
            workers_[i].m_reconnects = reg.counter(
                "nocmap_shard_reconnects_total",
                "Reconnect-and-re-hello escalation rounds on this worker", labels);
            workers_[i].m_timeouts = reg.counter(
                "nocmap_shard_timeouts_total",
                "Exchanges that failed with a connect/io timeout on this worker",
                labels);
        }
        m_migrated_ = reg.counter(
            "nocmap_shard_migrated_tasks_total",
            "Tasks re-dispatched to a survivor after their worker died");
    }
}

std::size_t Coordinator::alive_count() const noexcept {
    std::size_t n = 0;
    for (const Worker& worker : workers_)
        if (worker.alive) ++n;
    return n;
}

std::string Coordinator::next_id(const char* tag) {
    return std::string(tag) + "-" + std::to_string(++id_counter_);
}

std::vector<std::size_t> Coordinator::live_workers() const {
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < workers_.size(); ++i)
        if (workers_[i].alive) live.push_back(i);
    return live;
}

std::string Coordinator::exchange_checked(Worker& worker, const std::string& line) {
    std::uint64_t backoff = options_.reconnect_backoff_ms;
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            if (worker.m_exchanges) worker.m_exchanges->inc();
            if (attempt > 0 && worker.m_retries) worker.m_retries->inc();
            std::string reply = worker.link->exchange(line);
            if (!looks_like_response(reply))
                throw std::runtime_error("shard: worker " + worker.link->name() +
                                         " returned a malformed reply");
            return reply;
        } catch (const std::exception& e) {
            if (worker.m_timeouts && dynamic_cast<const TimeoutError*>(&e))
                worker.m_timeouts->inc();
            if (attempt >= options_.reconnect_attempts) {
                worker.alive = false;
                throw;
            }
            // Escalation round: back off, rebuild the transport, re-run
            // the hello handshake, then retry the (idempotent) exchange.
            if (backoff > 0) std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
            backoff *= 2;
            if (worker.m_reconnects) worker.m_reconnects->inc();
            if (!worker.link->reconnect()) {
                // This link kind cannot reconnect (in-process) or the peer
                // is still unreachable.
                worker.alive = false;
                throw;
            }
            try {
                worker.cores = service::parse_hello_response(
                    worker.link->exchange(service::hello_request(next_id("hello"))));
            } catch (const std::exception&) {
                worker.alive = false;
                throw;
            }
        }
    }
}

std::string Coordinator::dispatch(const std::string& line) {
    for (std::size_t attempt = 0; attempt < std::max<std::size_t>(1, options_.max_attempts);
         ++attempt) {
        // Round-robin over the currently live workers; a worker that died
        // this attempt is skipped on the next.
        const auto live = live_workers();
        if (live.empty()) break;
        Worker& worker = workers_[live[rr_++ % live.size()]];
        try {
            return exchange_checked(worker, line);
        } catch (const std::exception&) {
            worker.alive = false;
        }
    }
    throw std::runtime_error("shard: task failed on every dispatch attempt "
                             "(all workers dead or max_attempts exhausted)");
}

std::vector<std::string> Coordinator::dispatch_all(const std::vector<std::string>& lines) {
    std::vector<std::string> replies(lines.size());
    std::vector<char> done(lines.size(), 0);
    // Undeliverable tasks degrade to synthesized error lines: the response
    // parsers turn those into per-scenario errors, so a dead cluster never
    // throws through run_grid.
    const auto undeliverable = [](const std::exception& e) {
        return service::error_response("", e.what());
    };
    const auto live = live_workers();
    if (live.empty()) {
        const std::runtime_error dead("shard: no live workers left to dispatch to");
        for (std::string& reply : replies) reply = undeliverable(dead);
        return replies;
    }

    // Round-robin task queues, one per live worker; each worker's queue
    // drains in order on its own thread, so a link is never used
    // concurrently. Replies land slot-indexed: whatever order workers
    // finish in, the merge sees the same array.
    std::vector<std::vector<std::size_t>> queues(live.size());
    for (std::size_t t = 0; t < lines.size(); ++t) queues[t % live.size()].push_back(t);

    auto drain = [&](std::size_t w) {
        Worker& worker = workers_[live[w]];
        for (const std::size_t t : queues[w]) {
            try {
                replies[t] = exchange_checked(worker, lines[t]);
                done[t] = 1;
            } catch (const std::exception&) {
                // Transport failure: the worker is dead, its remaining
                // tasks fall through to the serial retry pass below.
                worker.alive = false;
                return;
            }
        }
    };
    if (live.size() == 1 || lines.size() == 1) {
        for (std::size_t w = 0; w < queues.size(); ++w)
            if (!queues[w].empty()) drain(w);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(live.size());
        for (std::size_t w = 0; w < queues.size(); ++w)
            if (!queues[w].empty()) pool.emplace_back(drain, w);
        for (std::thread& t : pool) t.join();
    }

    for (std::size_t t = 0; t < lines.size(); ++t) {
        if (done[t]) continue;
        if (m_migrated_) m_migrated_->inc();
        try {
            replies[t] = dispatch(lines[t]);
        } catch (const std::exception& e) {
            replies[t] = undeliverable(e);
        }
    }
    return replies;
}

std::vector<portfolio::ScenarioResult> Coordinator::run_grid(
    const std::vector<portfolio::Scenario>& grid) {
    std::vector<portfolio::ScenarioResult> results;
    results.reserve(grid.size());
    // Scenarios a worker can run (those with a graph to ship); the rest
    // resolve locally exactly as PortfolioRunner::run_one would.
    std::vector<std::size_t> shipped;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        results.push_back(result_shell(grid[i], i));
        if (!grid[i].graph) {
            results[i].ok = false;
            results[i].error = "scenario has no application graph";
            continue;
        }
        try {
            results[i].fabric = grid[i].topology.cache_key(grid[i].graph->node_count());
        } catch (...) {
            // Unresolvable spec: the worker reports the error; the fabric
            // key stays empty, matching the single-node result.
        }
        shipped.push_back(i);
    }

    // Contiguous partition proportional to the advertised core budgets
    // (engine::ThreadBudget::partition) — big workers take more scenarios.
    // With every worker dead the grid still becomes one task, so
    // dispatch_all's undeliverable path fails each scenario with an error.
    const auto live = live_workers();
    std::vector<std::size_t> weights;
    for (const std::size_t w : live) weights.push_back(workers_[w].cores);
    if (weights.empty()) weights.push_back(1);
    const auto counts = engine::ThreadBudget::partition(shipped.size(), weights);

    std::vector<std::string> tasks;
    std::vector<std::vector<std::size_t>> members; ///< per task: shipped indices
    std::size_t cursor = 0;
    for (const std::size_t count : counts) {
        if (count == 0) continue;
        std::vector<service::ShardMapScenario> part;
        std::vector<std::size_t> own;
        for (std::size_t k = 0; k < count; ++k, ++cursor) {
            const portfolio::Scenario& scenario = grid[shipped[cursor]];
            service::ShardMapScenario s;
            s.app = scenario.app;
            s.graph_text = graph::core_graph_to_string(*scenario.graph);
            s.topology = scenario.topology.display_name();
            s.bandwidth = scenario.topology.capacity;
            s.mapper = scenario.mapper;
            s.params = scenario.params;
            s.eval = scenario.eval;
            s.seed = scenario.seed;
            s.deadline_ms = scenario.deadline_ms;
            part.push_back(std::move(s));
            own.push_back(shipped[cursor]);
        }
        tasks.push_back(service::shard_map_request(next_id("map"), part));
        members.push_back(std::move(own));
    }

    const auto replies = dispatch_all(tasks);
    for (std::size_t t = 0; t < replies.size(); ++t) {
        std::vector<service::ShardMapMetrics> metrics;
        std::string parse_error;
        try {
            metrics = service::parse_shard_map_response(replies[t]);
            if (metrics.size() != members[t].size())
                throw std::runtime_error("shard-map reply scenario count mismatch");
        } catch (const std::exception& e) {
            parse_error = e.what();
        }
        for (std::size_t k = 0; k < members[t].size(); ++k) {
            portfolio::ScenarioResult& r = results[members[t][k]];
            if (!parse_error.empty()) {
                r.ok = false;
                r.error = parse_error;
                continue;
            }
            const service::ShardMapMetrics& m = metrics[k];
            r.ok = m.ok;
            r.error = m.error;
            r.error_code = m.error_code;
            r.result.feasible = m.feasible;
            r.result.comm_cost = m.comm_cost;
            r.tiles = static_cast<std::size_t>(m.tiles);
            r.links = static_cast<std::size_t>(m.links);
            r.energy_mw = m.energy_mw;
            r.area_mm2 = m.area_mm2;
            r.avg_hops = m.avg_hops;
            r.sim = m.sim;
        }
    }
    portfolio::PortfolioRunner::scalarize(results, options_.weights);
    return results;
}

} // namespace nocmap::shard
