#pragma once
// service::Service — the long-lived portfolio mapping daemon behind
// `nocmap_cli serve`.
//
// The daemon answers the protocol of service/protocol.hpp over stdin/
// stdout (`serve`) or a TCP socket (`serve_socket`), layered on one
// persistent portfolio::PortfolioRunner whose TopologyCache survives
// across requests (bounded by ServiceOptions::cache_topologies, LRU).
//
// Request batching: the session loop drains every request line that is
// already buffered before dispatching, and hands the whole batch to
// PortfolioRunner::run_batch, which schedules all scenarios grouped by
// resolved fabric — so a fabric shared by several queued requests pays
// EvalContext construction once per batch even under eviction pressure
// (exactly once serially; a rare worker-thread interleave can rebuild a
// fabric without affecting any result).
// Each request is scalarized against only its own grid, so its response
// (the embedded "report" document) is byte-identical to a one-shot
// `portfolio --json --json-stable` run of the same scenarios, for any
// thread count and regardless of how requests were coalesced. Responses
// are always written in request order. The cache counters in responses
// are daemon-lifetime values and deliberately outside that contract.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "portfolio/runner.hpp"
#include "service/protocol.hpp"

namespace nocmap::service {

struct ServiceOptions {
    /// PortfolioRunner worker threads (1 = serial, 0 = all hardware).
    std::size_t threads = 1;
    /// TopologyCache bound (fabrics kept, LRU; 0 = unbounded).
    std::size_t cache_topologies = 0;
    /// serve_socket: concurrent session cap. A connection accepted over
    /// the limit is answered with one error line and closed immediately
    /// (never silently dropped), so a runaway client cannot exhaust the
    /// daemon's descriptors or threads. 0 = unbounded.
    std::size_t max_connections = 64;
    /// Admission control: map requests concurrently in flight (admitted,
    /// not yet answered) across all sessions. A map request over the cap is
    /// refused with a typed "overloaded" error line instead of queueing
    /// unboundedly behind a slow batch. 0 = unbounded. Non-map verbs
    /// (ping, stats, describe, shard tasks) are never refused.
    std::size_t max_pending = 256;
    /// serve_socket: per-session socket read timeout in ms. A client that
    /// stays silent longer gets one "idle-timeout" error line and its
    /// session closed, so a stalled peer cannot pin a session thread
    /// forever. 0 = no timeout (the pre-existing behavior).
    std::uint64_t idle_timeout_ms = 0;
    /// Defaults applied when a map request omits the field. An explicit
    /// "params" object replaces default_params wholesale (no key merge);
    /// a request "seed" likewise outranks default_seed, and a request
    /// "deadline_ms" outranks default_deadline_ms (0 = no deadline).
    std::string default_topologies = "mesh,torus,ring,hypercube";
    std::string default_mapper = "nmap";
    double default_bandwidth = 0.0; ///< MB/s; 0 = ample (1e9)
    engine::Params default_params;
    std::uint64_t default_seed = 0; ///< 0 = algorithm default
    std::uint64_t default_deadline_ms = 0; ///< ms; 0 = no deadline
    /// Fault injection for chaos testing: when set, called with a global
    /// request sequence number (0-based) before each request line is
    /// parsed. A hook that sleeps simulates a wedged dispatch path; tests
    /// and `serve --fault-stall-ms/--fault-every` wire this.
    std::function<void(std::size_t)> fault_hook;
};

class Service {
public:
    explicit Service(ServiceOptions options = {});

    const ServiceOptions& options() const noexcept { return options_; }
    const portfolio::TopologyCache& cache() const noexcept { return runner_.cache(); }
    /// True once a shutdown request has been answered.
    bool shutdown_requested() const noexcept { return shutdown_; }
    /// True once a graceful drain has begun (begin_drain()).
    bool draining() const noexcept { return draining_; }

    /// Begins a graceful drain: stop accepting new connections and new
    /// request lines, finish the in-flight batches, flush their responses,
    /// then return from serve()/serve_socket() with 0. Async-signal-safe
    /// (atomics and ::shutdown only) so a SIGTERM/SIGINT handler can call
    /// it directly; idempotent.
    void begin_drain() noexcept;

    /// Snapshot of the daemon-lifetime service counters (uptime, in-flight
    /// admission, accepted/rejected sessions) — what the "stats" verb
    /// reports next to the cache counters.
    ServiceStats stats() const noexcept;

    /// The daemon's metrics registry: per-verb request counts and latency
    /// histograms, batch occupancy, admission/queue gauges, the runner's
    /// scenario counters and the cache's live hit/miss/eviction series.
    /// Always on — the hot-path cost is a few relaxed atomics — and never
    /// part of any response unless asked for (the `metrics` verb, the
    /// /metrics endpoint, --print-metrics).
    obs::Registry& metrics() noexcept { return registry_; }
    /// obs::to_json of a registry snapshot — the `metrics` verb body.
    std::string metrics_json() const;
    /// obs::to_prometheus of a registry snapshot — the GET /metrics body.
    std::string metrics_prometheus() const;

    /// One request line -> one response line (no trailing newline). Never
    /// throws: every failure becomes an "error" response.
    std::string handle_line(const std::string& line);

    /// The batcher: answers `lines` (one request each) with one response
    /// line each, in order. All valid map requests are coalesced into a
    /// single PortfolioRunner::run_batch pass.
    std::vector<std::string> handle_batch(const std::vector<std::string>& lines);

    /// Session loop over a stream pair: blocks for a request, additionally
    /// drains every further complete line already buffered (the request
    /// batch), answers, repeats. Returns 0 on EOF or shutdown.
    int serve(std::istream& in, std::ostream& out);

    /// TCP mode: accepts loopback connections on `port` (the protocol is
    /// an unauthenticated control channel and never faces the network),
    /// one thread per connection,
    /// each running the same session loop against the shared runner/cache.
    /// Blocks until a shutdown request has been answered (remaining
    /// connections are closed), then returns 0; non-zero on socket setup
    /// failure. `on_listening` (when given) fires with the bound port once
    /// listen() succeeds — the only way to learn an ephemeral port 0 pick.
    int serve_socket(std::uint16_t port,
                     const std::function<void(std::uint16_t)>& on_listening = {});

private:
    /// App graphs parsed once per daemon (keyed by the request's target
    /// string); shared_ptr'd into scenarios like the CLI's portfolio mode.
    std::shared_ptr<const graph::CoreGraph> graph_for(const std::string& target);
    /// Shard-verb graphs, parsed once per distinct text payload (shard
    /// tasks carry the graph inline so workers never touch the
    /// coordinator's filesystem; a coordinator that runs several grids
    /// repeats the same text every time, so parsing must not).
    std::shared_ptr<const graph::CoreGraph> graph_from_text(const std::string& text);

    /// Claims one in-flight admission slot against max_pending; false when
    /// the daemon is saturated (the caller answers "overloaded").
    bool admit_map_request() noexcept;

    ServiceOptions options_;
    /// Declared before runner_: the runner's PortfolioOptions::metrics
    /// points here, so the registry must outlive (construct before) it.
    obs::Registry registry_;
    portfolio::PortfolioRunner runner_;
    /// Per-verb handles, built once in the constructor for every protocol
    /// verb (plus "invalid" for unparseable lines) — read-only afterwards,
    /// so request dispatch never touches the registry mutex.
    struct VerbMetrics {
        obs::Counter* requests = nullptr;
        obs::Histogram* latency = nullptr;
    };
    std::map<std::string, VerbMetrics> verb_metrics_;
    obs::Histogram* m_batch_requests_ = nullptr;
    std::mutex graphs_mutex_;
    std::map<std::string, std::shared_ptr<const graph::CoreGraph>> graphs_;
    std::map<std::string, std::shared_ptr<const graph::CoreGraph>> text_graphs_;
    std::atomic<bool> shutdown_{false};
    std::atomic<bool> draining_{false};
    /// The listening socket while serve_socket runs (-1 otherwise):
    /// begin_drain() shuts it down to unblock accept().
    std::atomic<int> listener_fd_{-1};
    std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> in_flight_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> overloaded_{0};
    std::atomic<std::size_t> request_seq_{0}; ///< fault_hook sequence numbers
};

} // namespace nocmap::service
