#include "service/service.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "apps/registry.hpp"
#include "engine/mapper.hpp"
#include "graph/graph_io.hpp"
#include "portfolio/report.hpp"
#include "portfolio/scenario.hpp"
#include "util/json.hpp"

namespace nocmap::service {

namespace {

/// iostream over a connected socket: read/write with EINTR retry, and
/// showmanyc via FIONREAD so the session loop's batching drain sees bytes
/// the peer has already sent (in_avail() > 0) without blocking. When the
/// socket carries an SO_RCVTIMEO, an expired read surfaces as EOF with the
/// timed_out() flag set, so the session can distinguish a stalled peer
/// from a closed one.
class FdStreamBuf : public std::streambuf {
public:
    explicit FdStreamBuf(int fd) : fd_(fd) { setp(obuf_, obuf_ + sizeof obuf_); }
    ~FdStreamBuf() override { sync(); }

    bool timed_out() const noexcept { return timed_out_; }

protected:
    int_type underflow() override {
        if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
        ssize_t n;
        do {
            n = ::read(fd_, ibuf_, sizeof ibuf_);
        } while (n < 0 && errno == EINTR);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            timed_out_ = true; // SO_RCVTIMEO expired with the peer silent
            return traits_type::eof();
        }
        if (n <= 0) return traits_type::eof();
        setg(ibuf_, ibuf_, ibuf_ + n);
        return traits_type::to_int_type(*gptr());
    }

    std::streamsize showmanyc() override {
        int pending = 0;
        if (::ioctl(fd_, FIONREAD, &pending) < 0) return 0;
        return pending;
    }

    int_type overflow(int_type ch) override {
        if (flush_buffer() < 0) return traits_type::eof();
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            *pptr() = traits_type::to_char_type(ch);
            pbump(1);
        }
        return traits_type::not_eof(ch);
    }

    int sync() override { return flush_buffer(); }

private:
    int flush_buffer() {
        const char* data = pbase();
        std::size_t left = static_cast<std::size_t>(pptr() - pbase());
        while (left > 0) {
            ssize_t n;
            do {
                // MSG_NOSIGNAL: a client that disconnects mid-response
                // yields EPIPE here instead of killing the daemon.
                n = ::send(fd_, data, left, MSG_NOSIGNAL);
            } while (n < 0 && errno == EINTR);
            if (n <= 0) return -1;
            data += n;
            left -= static_cast<std::size_t>(n);
        }
        setp(obuf_, obuf_ + sizeof obuf_);
        return 0;
    }

    int fd_;
    bool timed_out_ = false;
    char ibuf_[8192];
    char obuf_[8192];
};

/// One full error line pushed straight onto a socket (EINTR-retried,
/// best-effort): the rejection paths answer before any session stream
/// exists for the fd.
void send_error_line(int fd, const std::string& response) {
    const std::string line = response + "\n";
    ssize_t n;
    do {
        n = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
}

/// Best-effort id for an error response when parse_request threw after
/// (or before) reading it: whatever string "id" the line carries.
std::string recover_id(const std::string& line) {
    try {
        const auto doc = util::json::parse(line);
        const auto* id = doc.find("id");
        if (id && id->is_string()) return id->as_string();
    } catch (...) {
        // Not parseable at all — no id to echo.
    }
    return "";
}

const char* verb_name(Request::Kind kind) {
    switch (kind) {
    case Request::Kind::Map: return "map";
    case Request::Kind::Describe: return "describe";
    case Request::Kind::Stats: return "stats";
    case Request::Kind::Metrics: return "metrics";
    case Request::Kind::Ping: return "ping";
    case Request::Kind::Shutdown: return "shutdown";
    case Request::Kind::Hello: return "hello";
    case Request::Kind::ShardMap: return "shard-map";
    case Request::Kind::ListApps: return "list-apps";
    }
    return "invalid";
}

/// Every verb label pre-registered so the metrics document's structure is
/// fixed at construction: a scrape differs between daemons only in counter
/// values, never in which series exist.
const char* const kAllVerbs[] = {"map",  "describe", "stats",     "metrics",
                                 "ping", "shutdown", "hello",     "shard-map",
                                 "list-apps", "invalid"};

} // namespace

Service::Service(ServiceOptions options) : options_(std::move(options)), runner_([&] {
    portfolio::PortfolioOptions po;
    po.threads = options_.threads;
    po.cache_topologies = options_.cache_topologies;
    po.metrics = &registry_;
    return po;
}()) {
    for (const char* verb : kAllVerbs) {
        VerbMetrics vm;
        vm.requests = registry_.counter("nocmap_requests_total",
                                        "Requests received, by protocol verb",
                                        {{"verb", verb}});
        vm.latency = registry_.histogram(
            "nocmap_request_latency_ms",
            "Request latency from batch intake to serialized response (ms)",
            obs::Histogram::default_latency_buckets_ms(), {{"verb", verb}});
        verb_metrics_.emplace(verb, vm);
    }
    m_batch_requests_ = registry_.histogram(
        "nocmap_batch_requests", "Request lines coalesced per dispatched batch",
        {1, 2, 4, 8, 16, 32, 64, 128, 256});
    registry_.counter_callback(
        "nocmap_requests_rejected_total",
        "Map requests refused by admission control", [this] {
            return overloaded_.load(std::memory_order_relaxed);
        }, {{"reason", "overloaded"}});
    registry_.gauge_callback("nocmap_queue_depth",
                             "Map requests admitted and not yet answered", [this] {
                                 return static_cast<std::int64_t>(
                                     in_flight_.load(std::memory_order_relaxed));
                             });
    registry_.counter_callback("nocmap_sessions_accepted_total",
                               "TCP sessions accepted", [this] {
                                   return accepted_.load(std::memory_order_relaxed);
                               });
    registry_.counter_callback(
        "nocmap_sessions_rejected_total",
        "TCP sessions refused over the connection limit", [this] {
            return rejected_.load(std::memory_order_relaxed);
        });
    registry_.gauge_callback("nocmap_uptime_seconds",
                             "Seconds since the daemon was built", [this] {
                                 return static_cast<std::int64_t>(stats().uptime_s);
                             });
    registry_.gauge_callback("nocmap_draining",
                             "1 while a graceful drain is in progress", [this] {
                                 return draining_.load(std::memory_order_relaxed) ? 1 : 0;
                             });
    registry_.gauge_callback("nocmap_cache_fabrics",
                             "EvalContexts currently resident in the TopologyCache",
                             [this] {
                                 return static_cast<std::int64_t>(
                                     runner_.cache().stats().entries);
                             });
    registry_.gauge_callback("nocmap_cache_capacity",
                             "TopologyCache bound (0 = unbounded)", [this] {
                                 return static_cast<std::int64_t>(
                                     runner_.cache().stats().capacity);
                             });
    registry_.counter_callback("nocmap_cache_hits_total", "TopologyCache hits",
                               [this] { return runner_.cache().stats().hits; });
    registry_.counter_callback("nocmap_cache_misses_total", "TopologyCache misses",
                               [this] { return runner_.cache().stats().misses; });
    registry_.counter_callback("nocmap_cache_evictions_total",
                               "TopologyCache LRU evictions",
                               [this] { return runner_.cache().stats().evictions; });
}

std::string Service::metrics_json() const { return obs::to_json(registry_.snapshot()); }

std::string Service::metrics_prometheus() const {
    return obs::to_prometheus(registry_.snapshot());
}

std::shared_ptr<const graph::CoreGraph> Service::graph_for(const std::string& target) {
    {
        std::lock_guard<std::mutex> lock(graphs_mutex_);
        const auto it = graphs_.find(target);
        if (it != graphs_.end()) return it->second;
    }
    // Load outside the lock: a slow or hung file target must only stall
    // its own request, never the daemon. Two sessions racing the same
    // new target may both parse it; the first insertion wins and graphs
    // are immutable, so the duplicate work is the whole cost.
    auto loaded = std::make_shared<const graph::CoreGraph>(
        apps::load_graph_or_application(target));
    std::lock_guard<std::mutex> lock(graphs_mutex_);
    auto& slot = graphs_[target];
    if (!slot) slot = std::move(loaded);
    return slot;
}

std::shared_ptr<const graph::CoreGraph> Service::graph_from_text(const std::string& text) {
    {
        std::lock_guard<std::mutex> lock(graphs_mutex_);
        const auto it = text_graphs_.find(text);
        if (it != text_graphs_.end()) return it->second;
    }
    auto loaded =
        std::make_shared<const graph::CoreGraph>(graph::core_graph_from_string(text));
    std::lock_guard<std::mutex> lock(graphs_mutex_);
    auto& slot = text_graphs_[text];
    if (!slot) slot = std::move(loaded);
    return slot;
}

std::string Service::handle_line(const std::string& line) {
    return handle_batch({line}).front();
}

std::vector<std::string> Service::handle_batch(const std::vector<std::string>& lines) {
    // Parse and resolve every line first; only fully valid map requests
    // join the coalesced mapping pass, everything else answers directly.
    struct Pending {
        bool is_map = false;
        bool is_stats = false;
        bool is_metrics = false;
        bool admitted = false;    ///< holds an in-flight admission slot
        std::size_t grid = 0;     ///< index into `grids` when is_map
        std::string response;     ///< final response when !is_map && !is_stats
        std::string id;
        const char* verb = "invalid"; ///< metrics label of this request
    };
    const auto batch_start = std::chrono::steady_clock::now();
    m_batch_requests_->observe(static_cast<double>(lines.size()));
    std::vector<Pending> pending(lines.size());
    std::vector<std::vector<portfolio::Scenario>> grids;

    for (std::size_t i = 0; i < lines.size(); ++i) {
        Pending& p = pending[i];
        // Chaos hook: sees every request line in arrival order, before any
        // parsing — a sleeping hook is a wedged dispatch path.
        const std::size_t seq = request_seq_.fetch_add(1, std::memory_order_relaxed);
        if (options_.fault_hook) options_.fault_hook(seq);
        Request request;
        try {
            request = parse_request(lines[i]);
        } catch (const std::exception& e) {
            verb_metrics_.at(p.verb).requests->inc();
            p.response = error_response(recover_id(lines[i]), e.what());
            continue;
        }
        p.id = request.id;
        // Counted at parse time, refused or not — so a load generator's
        // sent-request count equals the server's requests_total delta.
        p.verb = verb_name(request.kind);
        verb_metrics_.at(p.verb).requests->inc();
        try {
            switch (request.kind) {
            case Request::Kind::Map: {
                if (!admit_map_request()) {
                    overloaded_.fetch_add(1, std::memory_order_relaxed);
                    p.response = error_response(
                        request.id,
                        "server overloaded: " + std::to_string(options_.max_pending) +
                            " map requests already in flight",
                        "overloaded");
                    break;
                }
                p.admitted = true;
                const MapRequest& m = request.map;
                const double bw =
                    m.bandwidth > 0.0 ? m.bandwidth : options_.default_bandwidth;
                const auto specs = portfolio::parse_topology_list(
                    m.topologies.empty() ? options_.default_topologies : m.topologies,
                    bw > 0.0 ? bw : 1e9);
                std::vector<std::pair<std::string,
                                      std::shared_ptr<const graph::CoreGraph>>>
                    apps;
                for (const std::string& target : m.apps)
                    apps.emplace_back(target, graph_for(target));
                const std::string mapper =
                    m.mapper.empty() ? options_.default_mapper : m.mapper;
                const engine::Params& params =
                    m.params.empty() ? options_.default_params : m.params;
                const std::uint64_t seed = m.seed != 0 ? m.seed : options_.default_seed;
                const std::uint64_t deadline_ms =
                    m.deadline_ms != 0 ? m.deadline_ms : options_.default_deadline_ms;
                p.is_map = true;
                p.grid = grids.size();
                grids.push_back(portfolio::make_grid(apps, specs, mapper, params, seed,
                                                     deadline_ms, m.eval));
                break;
            }
            case Request::Kind::Describe: {
                std::vector<engine::MapperDescription> descriptions;
                if (request.describe_algo.empty())
                    descriptions = engine::registry().describe_all();
                else // unknown names throw -> an "error" response below
                    descriptions.push_back(
                        engine::registry().describe(request.describe_algo));
                p.response = describe_response(request.id, descriptions);
                break;
            }
            case Request::Kind::Stats:
                p.is_stats = true; // rendered after the batch's map work
                break;
            case Request::Kind::Metrics:
                p.is_metrics = true; // snapshot after the batch's map work
                break;
            case Request::Kind::Ping:
                p.response = ping_response(request.id);
                break;
            case Request::Kind::ListApps:
                p.response = list_apps_response(request.id, apps::registry_json());
                break;
            case Request::Kind::Shutdown:
                shutdown_ = true;
                p.response = shutdown_response(request.id);
                break;
            case Request::Kind::Hello: {
                // Advertised core budget for the coordinator's weighted
                // scenario partition: the configured runner width, or the
                // whole machine when threads = 0.
                const std::size_t cores =
                    options_.threads != 0
                        ? options_.threads
                        : std::max<std::size_t>(1, std::thread::hardware_concurrency());
                p.response = hello_response(request.id, cores);
                break;
            }
            case Request::Kind::ShardMap: {
                std::vector<portfolio::Scenario> grid;
                for (const ShardMapScenario& s : request.shard_scenarios) {
                    portfolio::Scenario scenario;
                    scenario.app = s.app;
                    scenario.graph = graph_from_text(s.graph_text);
                    scenario.topology = portfolio::TopologySpec::parse(s.topology, s.bandwidth);
                    scenario.mapper = s.mapper;
                    scenario.params = s.params;
                    scenario.eval = s.eval;
                    scenario.seed = s.seed;
                    scenario.deadline_ms = s.deadline_ms;
                    grid.push_back(std::move(scenario));
                }
                const auto results = runner_.run(grid);
                std::vector<ShardMapMetrics> metrics;
                metrics.reserve(results.size());
                for (const portfolio::ScenarioResult& r : results) {
                    ShardMapMetrics m;
                    m.ok = r.ok;
                    m.error = r.error;
                    m.error_code = r.error_code;
                    m.feasible = r.ok && r.result.feasible;
                    m.tiles = r.tiles;
                    m.links = r.links;
                    m.comm_cost = r.result.comm_cost;
                    m.energy_mw = r.energy_mw;
                    m.area_mm2 = r.area_mm2;
                    m.avg_hops = r.avg_hops;
                    m.sim = r.sim;
                    metrics.push_back(std::move(m));
                }
                p.response = shard_map_response(request.id, metrics);
                break;
            }
            }
        } catch (const std::exception& e) {
            p.response = error_response(request.id, e.what());
        }
    }

    // One fabric-grouped pass over every coalesced grid; per-request
    // reports match one-shot runs of the same scenarios byte for byte.
    std::vector<std::vector<portfolio::ScenarioResult>> batch_results;
    if (!grids.empty()) batch_results = runner_.run_batch(grids);
    // The batch's admission slots free once its mapping work is done —
    // from here the responses are pure serialization.
    for (const Pending& p : pending)
        if (p.admitted) in_flight_.fetch_sub(1, std::memory_order_relaxed);
    // Responses leave only after the whole batch finished, so every cache
    // counter in this batch's responses reflects its completed map work.
    const auto cache_stats = runner_.cache().stats();

    std::vector<std::string> responses;
    responses.reserve(lines.size());
    for (const Pending& p : pending) {
        if (p.is_map) {
            const auto& results = batch_results[p.grid];
            const auto ranking = portfolio::PortfolioRunner::rank_topologies(results);
            // The deterministic document (no timings): equal requests get
            // byte-equal reports, matching `portfolio --json --json-stable`.
            portfolio::JsonOptions json;
            json.timings = false;
            responses.push_back(
                map_response(p.id, portfolio::to_json(results, ranking, json), cache_stats));
        } else if (p.is_stats) {
            responses.push_back(stats_response(p.id, cache_stats, stats()));
        } else if (p.is_metrics) {
            responses.push_back(metrics_response(p.id, metrics_json()));
        } else {
            responses.push_back(p.response);
        }
    }
    // Per-request latency is the batch's wall time: every response in a
    // coalesced batch leaves only after the whole batch's map work, so the
    // batch clock is what each client actually observed.
    const double batch_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - batch_start)
                                .count();
    for (const Pending& p : pending) verb_metrics_.at(p.verb).latency->observe(batch_ms);
    return responses;
}

bool Service::admit_map_request() noexcept {
    if (options_.max_pending == 0) {
        in_flight_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    std::uint64_t current = in_flight_.load(std::memory_order_relaxed);
    while (current < options_.max_pending)
        if (in_flight_.compare_exchange_weak(current, current + 1,
                                             std::memory_order_relaxed))
            return true;
    return false;
}

void Service::begin_drain() noexcept {
    // Async-signal-safe on purpose (atomics + ::shutdown only): the CLI
    // calls this straight from its SIGTERM/SIGINT handler.
    draining_.store(true, std::memory_order_relaxed);
    const int listener = listener_fd_.load(std::memory_order_relaxed);
    if (listener >= 0) ::shutdown(listener, SHUT_RDWR);
}

ServiceStats Service::stats() const noexcept {
    ServiceStats s;
    const auto lifetime = std::chrono::steady_clock::now() - started_;
    s.uptime_s = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(lifetime).count());
    s.in_flight = in_flight_.load(std::memory_order_relaxed);
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.overloaded = overloaded_.load(std::memory_order_relaxed);
    s.draining = draining_.load(std::memory_order_relaxed);
    return s;
}

int Service::serve(std::istream& in, std::ostream& out) {
    std::string line;
    while (!shutdown_ && !draining_ && std::getline(in, line)) {
        std::vector<std::string> batch;
        batch.push_back(line);
        // The batching drain: pull every further request the client has
        // already delivered (in_avail() counts buffered bytes, FIONREAD
        // bytes for sockets). A client that pauses mid-line delays this
        // batch's dispatch, never its correctness.
        while (in.rdbuf()->in_avail() > 0 && std::getline(in, line))
            batch.push_back(line);
        for (const std::string& response : handle_batch(batch)) out << response << '\n';
        out.flush();
        // A peer gone mid-response ends the session; the drain flag only
        // stops future batches, in-flight responses always flush first.
        if (!out) break;
    }
    return 0;
}

int Service::serve_socket(std::uint16_t port,
                          const std::function<void(std::uint16_t)>& on_listening) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) return 1;
    const int reuse = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Loopback only: the protocol is an unauthenticated control channel
    // (shutdown, file-path targets), so it must not face the network.
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(listener, 16) < 0) {
        ::close(listener);
        return 1;
    }
    // Published for begin_drain(): a signal handler shuts this fd down to
    // unblock the accept() below without touching any non-atomic state.
    listener_fd_.store(listener, std::memory_order_relaxed);
    if (draining_) ::shutdown(listener, SHUT_RDWR); // drain began before we listened
    if (on_listening) {
        socklen_t len = sizeof addr;
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
        on_listening(ntohs(addr.sin_port));
    }
    // One detached thread per connection against the shared runner/cache.
    // Each session closes its own fd when the client disconnects, so a
    // long-lived daemon's descriptors don't accumulate; the registry below
    // only tracks the still-open ones for the shutdown kick.
    struct Registry {
        std::mutex mutex;
        std::condition_variable drained;
        std::unordered_set<int> fds;
        std::size_t active = 0;
    } registry;

    while (!shutdown_ && !draining_) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (shutdown_ || draining_) break;
            if (errno == EINTR || errno == ECONNABORTED) continue;
            // Resource pressure (fd limit, kernel buffers) must not kill
            // the daemon — but it also fails instantly, so back off
            // instead of spinning until a session frees its descriptor.
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM) {
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                continue;
            }
            break;
        }
        {
            std::lock_guard<std::mutex> lock(registry.mutex);
            if (options_.max_connections != 0 &&
                registry.active >= options_.max_connections) {
                // Over the cap: answer with one structured error line and
                // close — the client sees why instead of a hang, and the
                // daemon's descriptor/thread budget stays bounded.
                rejected_.fetch_add(1, std::memory_order_relaxed);
                send_error_line(fd,
                                error_response("", "connection limit reached (" +
                                                       std::to_string(
                                                           options_.max_connections) +
                                                       " active sessions)",
                                               "overloaded"));
                ::close(fd);
                continue;
            }
            registry.fds.insert(fd);
            ++registry.active;
            accepted_.fetch_add(1, std::memory_order_relaxed);
        }
        // Each response is one small write. With Nagle on, a reply that
        // follows an unacknowledged one waits for the client's ACK, which a
        // delayed-ACK client holds for up to about 40 ms. The listener is
        // TCP, so this cannot fail with EOPNOTSUPP; any other failure only
        // costs latency.
        const int nodelay = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
        if (options_.idle_timeout_ms > 0) {
            // SO_RCVTIMEO turns a silent peer into an EAGAIN read that
            // FdStreamBuf reports as a timed-out EOF — the session thread
            // answers with one "idle-timeout" error line and closes.
            timeval tv{};
            tv.tv_sec = static_cast<time_t>(options_.idle_timeout_ms / 1000);
            tv.tv_usec =
                static_cast<suseconds_t>((options_.idle_timeout_ms % 1000) * 1000);
            ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
        }
        std::thread([this, fd, listener, &registry] {
            {
                FdStreamBuf buf(fd);
                std::istream in(&buf);
                std::ostream out(&buf);
                serve(in, out);
                if (buf.timed_out())
                    send_error_line(
                        fd, error_response("",
                                           "session idle timeout (" +
                                               std::to_string(options_.idle_timeout_ms) +
                                               " ms without a request)",
                                           "idle-timeout"));
            }
            // First session to observe shutdown (or drain) unblocks the
            // accept loop.
            if (shutdown_ || draining_) ::shutdown(listener, SHUT_RDWR);
            {
                // notify while holding the lock: the drain wait below may
                // destroy `registry` the moment active hits 0, so this
                // thread must be done with it before the lock releases.
                std::lock_guard<std::mutex> lock(registry.mutex);
                registry.fds.erase(fd);
                --registry.active;
                registry.drained.notify_all();
            }
            ::close(fd);
        }).detach();
    }
    const bool clean = shutdown_ || draining_;
    {
        // Kick every open session out of its blocking read (read side
        // only — in-flight responses still drain), then wait for all of
        // them to finish (they reference `registry`). This IS the graceful
        // drain: no new work enters, running batches complete, responses
        // flush, and only then does the daemon return.
        std::unique_lock<std::mutex> lock(registry.mutex);
        for (const int fd : registry.fds) ::shutdown(fd, SHUT_RD);
        registry.drained.wait(lock, [&] { return registry.active == 0; });
    }
    listener_fd_.store(-1, std::memory_order_relaxed);
    ::close(listener);
    return clean ? 0 : 1;
}

} // namespace nocmap::service
