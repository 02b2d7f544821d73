#pragma once
// shard::Coordinator — scatters mapping work over serve workers and merges
// the replies deterministically.
//
// Whole portfolio scenarios are partitioned contiguously over workers,
// weighted by the core counts advertised in the hello handshake
// (engine::ThreadBudget::partition). Workers return raw hex-float metrics;
// the coordinator rebuilds ScenarioResults — identity fields from its own
// grid, metrics bit-exact from the wire — and scalarizes locally, so the
// JSON document equals a single-node `portfolio --json --json-stable` run
// byte for byte.
//
// Failure model: every exchange goes through a checked wrapper that (a)
// rejects replies that are not protocol response lines (a garbling
// transport is a failing transport) and (b) escalates a transport failure
// through ShardOptions::reconnect_attempts bounded-backoff reconnects —
// rebuild the socket, re-run the hello handshake, retry the idempotent
// task — before marking the worker dead. Once dead, the task is
// re-dispatched to a survivor (a task is a pure function of its
// scenarios, so re-running it is idempotent).
// ShardOptions::max_attempts bounds those re-dispatches; when every worker
// is dead the affected scenario carries a structured error, like any other
// per-scenario failure. A Scenario::deadline_ms rides the wire and the
// worker's runner enforces it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "shard/worker_link.hpp"

namespace obs {
class Registry;
class Counter;
} // namespace obs

namespace nocmap::shard {

struct ShardOptions {
    /// Dispatch attempts per task (first try plus retries on surviving
    /// workers after transport failures).
    std::size_t max_attempts = 3;
    /// Transport-failure escalation before a worker is declared dead:
    /// reconnect the link (fresh socket + re-hello) and retry the exchange
    /// up to this many times. 0 = first failure kills the worker.
    std::size_t reconnect_attempts = 2;
    /// Sleep before the first reconnect attempt, doubling on each further
    /// one (bounded exponential backoff).
    std::uint64_t reconnect_backoff_ms = 100;
    /// Scalarization weights of the rebuilt report — must match the
    /// single-node run being reproduced (defaults match PortfolioOptions).
    portfolio::ScalarizationWeights weights;
    /// Optional metrics sink (not owned; must outlive the coordinator).
    /// When set, every worker gets nocmap_shard_{exchanges,retries,
    /// reconnects,timeouts}_total series labeled worker="<index>", plus a
    /// coordinator-wide nocmap_shard_migrated_tasks_total for tasks
    /// re-dispatched after their worker died. Never affects results.
    obs::Registry* metrics = nullptr;
};

class Coordinator {
public:
    /// Takes ownership of the links and performs the hello handshake:
    /// every worker advertises its core budget (used as the scenario
    /// partition weight). A link that fails the handshake is marked dead;
    /// throws std::runtime_error when none survives.
    explicit Coordinator(std::vector<std::unique_ptr<WorkerLink>> links,
                         ShardOptions options = {});

    const ShardOptions& options() const noexcept { return options_; }
    std::size_t worker_count() const noexcept { return workers_.size(); }
    std::size_t alive_count() const noexcept;
    /// Advertised core budget of worker `i` (1 when the handshake failed).
    std::size_t worker_cores(std::size_t i) const { return workers_.at(i).cores; }

    /// Runs the grid sharded over the live workers. Results are in grid
    /// order with scalar scores filled in, byte-compatible (through
    /// portfolio::to_json with timings off) with PortfolioRunner::run on
    /// the same grid. Per-scenario failures land in ScenarioResult::error,
    /// never throw.
    std::vector<portfolio::ScenarioResult> run_grid(
        const std::vector<portfolio::Scenario>& grid);

private:
    struct Worker {
        std::unique_ptr<WorkerLink> link;
        std::size_t cores = 1;
        bool alive = true;
        // Metric handles (null when ShardOptions::metrics is null). The
        // hot-path increments are relaxed atomics, safe from the per-worker
        // drain threads.
        obs::Counter* m_exchanges = nullptr;
        obs::Counter* m_retries = nullptr;
        obs::Counter* m_reconnects = nullptr;
        obs::Counter* m_timeouts = nullptr;
    };

    std::string next_id(const char* tag);
    std::vector<std::size_t> live_workers() const;
    /// One exchange on one worker with the full failure-model treatment:
    /// malformed replies count as transport failures, transport failures
    /// escalate through reconnect_attempts backoff-reconnect-rehello
    /// rounds. Marks the worker dead and rethrows when escalation runs
    /// out. Thread-safe per worker (dispatch_all calls it from the
    /// per-worker drain threads).
    std::string exchange_checked(Worker& worker, const std::string& line);
    /// One task with retry: tries live workers round-robin, marking
    /// transport failures dead; throws std::runtime_error when attempts
    /// run out.
    std::string dispatch(const std::string& line);
    /// A batch of tasks fanned out over the live workers (one thread per
    /// worker, each draining its queue in order; replies land slot-indexed
    /// so completion order is irrelevant). Tasks stranded by a transport
    /// failure are retried through dispatch(); a task that cannot be
    /// delivered at all yields a synthesized error-response line, which the
    /// response parsers surface as a per-scenario error (never a throw).
    std::vector<std::string> dispatch_all(const std::vector<std::string>& lines);

    ShardOptions options_;
    std::vector<Worker> workers_;
    /// Atomic: exchange_checked's re-hello runs on dispatch_all's worker
    /// threads.
    std::atomic<std::size_t> id_counter_{0};
    std::size_t rr_ = 0; ///< round-robin cursor of dispatch()
    obs::Counter* m_migrated_ = nullptr;
};

} // namespace nocmap::shard
