// serve-mixed: an open loop against a `nocmap_cli serve --socket 0` child.
//
// One single-threaded generator sends requests on a fixed schedule over at
// most nproc connections, whatever the daemon's progress: a stalled daemon
// makes later requests wait, and that wait counts, because every latency
// is timed from the request's *scheduled* send. The generator records how
// late it ran against its own schedule.
//
// The measured run is a short warm-up, then slices of the nominal phase at
// kNominalRps (p50_ms) that alternate with bursts of the fixed request
// menu sent all at once (wall_s: the time to answer one burst). The traced
// run shortens the nominal phase, adds a phase whose client leaves delayed
// ACKs on, and walks up a rate ladder for the knee (knee_rps); it also
// reports p99_ms.
// Every reply of every phase is checked: status ok, each scenario ok and
// feasible, and each cost equal to the in-process mapping of the same
// scenario.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "apps/registry.hpp"
#include "engine/mapper.hpp"
#include "harness.hpp"
#include "noc/eval_context.hpp"
#include "portfolio/scenario.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace json = nocmap::util::json;

constexpr double kNominalRps = 100.0;
constexpr double kLatencyLimitMs = 100.0;
/// Requests per knee ladder rung: its p95 then rests on 20 replies beyond
/// it, where a p99 would rest on four.
constexpr std::size_t kProbeRequests = 400;
constexpr double kProbeMinS = 1.0;
constexpr std::size_t kBurstRounds = 2;     ///< menu repeats per wall_s burst
constexpr std::size_t kCycles = 12;         ///< nominal slices and bursts, measured run
constexpr double kNominalShare = 0.8;       ///< of --seconds, measured run
constexpr double kTracedNominalShare = 0.4; ///< of --seconds, traced run
constexpr double kDelayedAckShare = 0.1;    ///< of --seconds, traced run
constexpr double kLadderShare = 0.45;       ///< of --seconds, traced run, at most
constexpr double kDrainTimeoutS = 10.0;
constexpr const char* kTopologies = "mesh,torus";
constexpr std::size_t kCacheTopologies = 6;

/// Rung i of the knee ladder; rung 0 is the nominal rate.
double rung_rate(int rung) { return kNominalRps * std::pow(2.0, rung / 4.0); }

// ------------------------------------------------------------- the mix

struct MixEntry {
    std::string app;
    std::string algo;
};

/// Six synth graphs of 16–24 cores whose seeds come from the workload seed.
std::vector<std::string> synth_apps(std::uint64_t seed) {
    std::vector<std::string> synth;
    for (const std::uint64_t nodes : {16, 17, 19, 20, 22, 24}) {
        synth.push_back("synth:nodes=" + std::to_string(nodes) +
                        ",edges=" + std::to_string(nodes * 8 / 5) +
                        ",seed=" + std::to_string(derive_seed(seed, 500 + nodes) % 100000 + 1));
    }
    return synth;
}

/// 85% nmap (half on paper apps, half on the synth graphs), 15% nmap-tm on
/// paper apps. The proportions hold exactly in every block of 40
/// consecutive requests (6 / 17 / 17, in shuffled order), so every window
/// of the run sees the stated mix.
std::vector<MixEntry> make_mix(std::uint64_t seed, std::size_t blocks) {
    const std::vector<std::string> paper = apps::application_names();
    const std::vector<std::string> synth = synth_apps(seed);
    std::mt19937_64 rng(derive_seed(seed, 600));
    const auto pick = [&rng](const std::vector<std::string>& from) {
        return from[std::uniform_int_distribution<std::size_t>(0, from.size() - 1)(rng)];
    };
    std::vector<MixEntry> mix;
    for (std::size_t b = 0; b < blocks; ++b) {
        std::vector<MixEntry> block;
        for (int i = 0; i < 6; ++i) block.push_back({pick(paper), "nmap-tm"});
        for (int i = 0; i < 17; ++i) block.push_back({pick(paper), "nmap"});
        for (int i = 0; i < 17; ++i) block.push_back({pick(synth), "nmap"});
        std::shuffle(block.begin(), block.end(), rng);
        mix.insert(mix.end(), block.begin(), block.end());
    }
    return mix;
}

/// One wall_s burst: every request the mix can make — each paper app with
/// nmap-tm, then each paper app and each synth graph with nmap —
/// kBurstRounds times.
std::vector<MixEntry> make_burst(std::uint64_t seed) {
    const std::vector<std::string> paper = apps::application_names();
    const std::vector<std::string> synth = synth_apps(seed);
    std::vector<MixEntry> burst;
    for (std::size_t round = 0; round < kBurstRounds; ++round) {
        for (const std::string& app : paper) burst.push_back({app, "nmap-tm"});
        for (const std::string& app : paper) burst.push_back({app, "nmap"});
        for (const std::string& app : synth) burst.push_back({app, "nmap"});
    }
    return burst;
}

/// The next `count` entries of `mix` from `cursor` on, wrapping around.
std::vector<MixEntry> take(const std::vector<MixEntry>& mix, std::size_t& cursor,
                           std::size_t count) {
    std::vector<MixEntry> out;
    for (std::size_t i = 0; i < count; ++i) out.push_back(mix[cursor++ % mix.size()]);
    return out;
}

std::string request_line(std::uint64_t id, const MixEntry& entry) {
    return "{\"id\":\"" + std::to_string(id) + "\",\"method\":\"map\",\"apps\":[" +
           json::quoted(entry.app) + "],\"topologies\":\"" + kTopologies +
           "\",\"mapper\":\"" + entry.algo + "\"}";
}

/// `obj[key]`, or an exception naming the missing field.
const json::Value& field(const json::Value& obj, const char* key) {
    const json::Value* value = obj.find(key);
    if (!value) throw std::runtime_error(std::string("no \"") + key + "\" field");
    return *value;
}

// ----------------------------------------------------------- the daemon

int connect_loopback(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("connect: " + std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/// Blocking one-line request/reply on its own connection (set-up, scrape,
/// shutdown — never on the timed path).
std::string call(std::uint16_t port, const std::string& line) {
    const int fd = connect_loopback(port);
    const std::string out = line + "\n";
    std::string reply;
    if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(out.size())) {
        char buf[65536];
        while (reply.find('\n') == std::string::npos) {
            const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
            if (n <= 0) break;
            reply.append(buf, static_cast<std::size_t>(n));
        }
    }
    ::close(fd);
    return reply.substr(0, reply.find('\n'));
}

/// A `serve --socket 0` child. The destructor always stops it and reaps it.
class Daemon {
public:
    Daemon(const std::string& cli, const std::string& log_path) : log_path_(log_path) {
        pid_ = ::fork();
        if (pid_ < 0) throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            const int null = ::open("/dev/null", O_RDWR);
            ::dup2(null, 0);
            ::dup2(null, 1);
            ::dup2(log, 2);
            const std::string cache = std::to_string(kCacheTopologies);
            ::execl(cli.c_str(), cli.c_str(), "serve", "--socket", "0", "--cache-topologies",
                    cache.c_str(), static_cast<char*>(nullptr));
            ::_exit(127);
        }
        try {
            wait_for_port();
        } catch (...) {
            // No destructor runs for a constructor that throws: reap here
            // (pid_ is -1 when the child already exited and was reaped).
            if (pid_ > 0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, nullptr, 0);
                pid_ = -1;
            }
            ::unlink(log_path_.c_str());
            throw;
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    std::uint16_t port() const noexcept { return port_; }
    int pid() const noexcept { return pid_; }

    /// Shutdown verb, then SIGTERM, then SIGKILL; always reaps the child.
    void stop() {
        if (pid_ <= 0) return;
        try {
            (void)call(port_, "{\"id\":\"bye\",\"method\":\"shutdown\"}");
        } catch (const std::exception&) {
        }
        if (!wait_for(5000.0)) {
            ::kill(pid_, SIGTERM);
            if (!wait_for(2000.0)) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, nullptr, 0);
            }
        }
        pid_ = -1;
        ::unlink(log_path_.c_str());
    }

private:
    /// Polls the daemon's stderr log for its port announcement.
    void wait_for_port() {
        const Clock::time_point start = Clock::now();
        const std::string marker = "listening on TCP port ";
        while (port_ == 0) {
            std::ifstream log(log_path_);
            const std::string text((std::istreambuf_iterator<char>(log)),
                                   std::istreambuf_iterator<char>());
            const auto at = text.find(marker);
            // The announcement counts once its newline is out: before that
            // the port's digits may be only half written.
            if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
                port_ = static_cast<std::uint16_t>(std::stoi(text.substr(at + marker.size())));
                break;
            }
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("serve daemon exited during start-up");
            }
            if (ms_since(start) > 20000.0) throw std::runtime_error("serve daemon did not start");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    bool wait_for(double ms) {
        const Clock::time_point start = Clock::now();
        while (ms_since(start) < ms) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    std::string log_path_;
    int pid_ = -1;
    std::uint16_t port_ = 0;
};

// --------------------------------------------------------- the open loop

/// Re-arms TCP_QUICKACK, which the kernel drops again on its own: the
/// client then acknowledges every reply at once. With delayed ACKs (40 ms
/// on Linux) a reply that follows another on the same connection was
/// measured to wait for the client's ACK of the first, so p50 read the
/// ACK timer instead of the daemon's work.
void quickack(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
}

struct Outstanding {
    std::uint64_t id = 0;
    Clock::time_point scheduled;
    const MixEntry* entry = nullptr;
};

struct Connection {
    int fd = -1;
    std::string in;   ///< received bytes not yet split into lines
    std::string out;  ///< request bytes not yet written
    std::deque<Outstanding> waiting; ///< replies arrive in request order
};

struct Reply {
    std::uint64_t id = 0;
    MixEntry entry;
    double latency_ms = 0.0;
    std::string line;
};

struct Phase {
    double rate = 0.0;
    std::size_t sent = 0;
    std::size_t missing = 0;     ///< never answered within the drain timeout
    /// Mean requests outstanding over the last quarter of the send window
    /// minus the mean over its first quarter.
    double backlog_growth = 0.0;
    bool aborted = false;        ///< stopped early: backlog past the abort bound
    std::vector<Reply> replies;
    std::vector<double> late_ms;    ///< generator lateness per send
    double wall_s = 0.0;            ///< first scheduled send to last reply
};

class OpenLoop {
public:
    OpenLoop(std::uint16_t port, std::size_t connections, bool quick_ack)
        : port_(port), connections_(connections), quick_ack_(quick_ack) {
        connect_all();
    }
    ~OpenLoop() { close_all(); }
    OpenLoop(const OpenLoop&) = delete;
    OpenLoop& operator=(const OpenLoop&) = delete;

    /// Sends `requests` in order, request i at t0 + i / rate (all at t0
    /// when `rate` is infinite), then waits for the replies. With
    /// `abort_backlog` > 0 the send window closes early once more requests
    /// than that are outstanding.
    Phase run(const std::vector<MixEntry>& requests, double rate, std::size_t abort_backlog,
              Tracer& tracer) {
        Phase phase;
        phase.rate = rate;
        const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
        const auto scheduled = [&](std::size_t i) {
            return t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(static_cast<double>(i) / rate));
        };
        std::size_t limit = requests.size();
        std::size_t outstanding = 0;
        std::vector<double> outstanding_at_send;
        Clock::time_point window_closed{};
        bool window_open = true;
        std::vector<pollfd> fds(conns_.size());
        while (true) {
            Clock::time_point now = Clock::now();
            while (phase.sent < limit && scheduled(phase.sent) <= now) {
                const Clock::time_point due = scheduled(phase.sent);
                const std::uint64_t id = next_id_++;
                Connection& c = conns_[phase.sent % conns_.size()];
                c.out += request_line(id, requests[phase.sent]) + "\n";
                flush(c);
                c.waiting.push_back({id, due, &requests[phase.sent]});
                phase.late_ms.push_back(
                    std::chrono::duration<double, std::milli>(Clock::now() - due).count());
                ++phase.sent;
                ++outstanding;
                outstanding_at_send.push_back(static_cast<double>(outstanding));
                if (abort_backlog > 0 && outstanding > abort_backlog) {
                    phase.aborted = true;
                    limit = phase.sent;
                }
                now = Clock::now();
            }
            if (window_open && phase.sent == limit) {
                window_open = false;
                window_closed = now;
                const std::size_t quarter =
                    std::max<std::size_t>(1, outstanding_at_send.size() / 4);
                const auto mean = [quarter](auto first) {
                    double sum = 0.0;
                    for (std::size_t i = 0; i < quarter; ++i) sum += first[i];
                    return sum / static_cast<double>(quarter);
                };
                phase.backlog_growth = mean(outstanding_at_send.end() - quarter) -
                                       mean(outstanding_at_send.begin());
            }
            if (outstanding == 0 && !window_open) break;
            if (!window_open &&
                std::chrono::duration<double>(now - window_closed).count() > kDrainTimeoutS)
                break;

            const Clock::time_point wake =
                window_open ? scheduled(phase.sent) : window_closed + std::chrono::seconds(11);
            const auto wait_ns = std::max<std::int64_t>(
                0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
            timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
            for (std::size_t i = 0; i < conns_.size(); ++i)
                fds[i] = {conns_[i].fd,
                          static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)), 0};
            const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
            if (ready <= 0) continue;
            for (std::size_t i = 0; i < conns_.size(); ++i) {
                Connection& c = conns_[i];
                if (fds[i].revents & POLLOUT) flush(c);
                if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
                char buf[65536];
                ssize_t n;
                while ((n = ::recv(c.fd, buf, sizeof buf, 0)) > 0)
                    c.in.append(buf, static_cast<std::size_t>(n));
                const Clock::time_point received = Clock::now();
                if (quick_ack_) quickack(c.fd);
                std::size_t eol;
                while ((eol = c.in.find('\n')) != std::string::npos && !c.waiting.empty()) {
                    const Outstanding o = c.waiting.front();
                    c.waiting.pop_front();
                    Reply r;
                    r.id = o.id;
                    r.entry = *o.entry;
                    r.latency_ms =
                        std::chrono::duration<double, std::milli>(received - o.scheduled).count();
                    r.line = c.in.substr(0, eol);
                    c.in.erase(0, eol + 1);
                    tracer.record("service.request", o.scheduled, received, o.id);
                    phase.replies.push_back(std::move(r));
                    --outstanding;
                }
            }
        }
        phase.missing = outstanding;
        if (outstanding > 0) {
            // A reply still owed must not be taken for a later request's.
            close_all();
            connect_all();
        }
        phase.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
        return phase;
    }

private:
    void connect_all() {
        for (std::size_t i = 0; i < connections_; ++i) {
            Connection c;
            c.fd = connect_loopback(port_);
            ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
            if (quick_ack_) quickack(c.fd);
            conns_.push_back(std::move(c));
        }
    }
    void close_all() {
        for (Connection& c : conns_) ::close(c.fd);
        conns_.clear();
    }

    static void flush(Connection& c) {
        while (!c.out.empty()) {
            const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
            if (n <= 0) return;
            c.out.erase(0, static_cast<std::size_t>(n));
        }
    }

    std::uint16_t port_;
    std::size_t connections_;
    bool quick_ack_;
    std::vector<Connection> conns_;
    std::uint64_t next_id_ = 1;
};

// ------------------------------------------------------ reply checking

/// In-process mapping of every (app, mapper, topology) scenario the mix
/// can ask for, each itself verified by the independent checker.
class References {
public:
    explicit References(Tracer& tracer) : tracer_(tracer) {}

    /// "" when the scenario maps and passes the checker; cost in `cost`.
    std::string get(const std::string& app, const std::string& algo, const std::string& topology,
                     double& cost) {
        const std::string key = app + "|" + algo + "|" + topology;
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            Scope span(tracer_, "harness.reference");
            it = cache_.emplace(key, compute(app, algo, topology)).first;
        }
        cost = it->second.first;
        return it->second.second;
    }

private:
    std::pair<double, std::string> compute(const std::string& app, const std::string& algo,
                                           const std::string& topology) {
        const graph::CoreGraph graph = apps::load_graph_or_application(app);
        std::unique_ptr<noc::EvalContext> ctx;
        {
            ctx = std::make_unique<noc::EvalContext>(
                portfolio::TopologySpec::parse(topology).build(graph.node_count()));
        }
        engine::MapRequest request;
        request.graph = &graph;
        request.context = ctx.get();
        engine::MapOutcome outcome = engine::registry().run(algo, request);
        if (!outcome.ok())
            return {0.0, "in-process mapping failed: " + outcome.error().to_string()};
        const check::Instance instance = to_instance(graph, ctx->topology());
        const std::string why = check::verify(instance, to_answer(outcome.result()),
                                              routing_of(algo),
                                              check::hop_distances(instance.fabric));
        return {outcome.result().comm_cost, why};
    }

    Tracer& tracer_;
    std::map<std::string, std::pair<double, std::string>> cache_;
};

/// Served cost per distinct scenario ("app|mapper|topology").
using ScenarioCosts = std::map<std::string, double>;

/// "" when `reply` is an ok map response whose every scenario is ok,
/// feasible and costs what the in-process mapping costs; each scenario's
/// cost is recorded in `costs`.
std::string check_reply(const Reply& reply, References& refs, ScenarioCosts& costs) {
    const MixEntry& entry = reply.entry;
    try {
        const json::Value doc = json::parse(reply.line);
        const json::Value* status = doc.find("status");
        if (!status || status->as_string() != "ok") {
            const json::Value* code = doc.find("code");
            return "request " + std::to_string(reply.id) + " answered " +
                   (code ? code->as_string() : std::string("error"));
        }
        const json::Value report = json::parse(field(doc, "report").as_string());
        const json::Array& scenarios = field(report, "scenarios").as_array();
        if (scenarios.size() != 2)
            return "request " + std::to_string(reply.id) + ": wrong scenario count";
        for (const json::Value& s : scenarios) {
            const std::string& topology = field(s, "topology").as_string();
            if (!field(s, "ok").as_bool() || !field(s, "feasible").as_bool())
                return "request " + std::to_string(reply.id) + ": scenario " + topology + " failed";
            double want = 0.0;
            if (std::string why = refs.get(entry.app, entry.algo, topology, want); !why.empty())
                return entry.app + "/" + topology + "/" + entry.algo + ": " + why;
            const double got = field(s, "comm_cost").as_number();
            costs[entry.app + "|" + entry.algo + "|" + topology] = got;
            // Reports print costs with six significant digits.
            if (std::fabs(got - want) > 5e-6 * std::max(1.0, std::fabs(want)))
                return "request " + std::to_string(reply.id) + ": " + topology + " cost " +
                       std::to_string(got) + " != in-process " + std::to_string(want);
        }
    } catch (const std::exception& e) {
        return "request " + std::to_string(reply.id) + ": malformed reply (" + e.what() + ")";
    }
    return "";
}

/// Counts every sent request of `phase` into `result`; true when all passed.
bool check_phase(const Phase& phase, References& refs, RunResult& result, ScenarioCosts& costs) {
    bool clean = true;
    for (const Reply& r : phase.replies) {
        const std::string why = check_reply(r, refs, costs);
        clean = clean && why.empty();
        result.count(why);
    }
    for (std::size_t i = 0; i < phase.missing; ++i) {
        clean = false;
        result.count("a request went unanswered");
    }
    return clean;
}

std::vector<double> latencies(const Phase& phase) {
    std::vector<double> out;
    for (const Reply& r : phase.replies) out.push_back(r.latency_ms);
    return out;
}

/// A rate holds when none of its requests failed and no backlog grew. The
/// backlog grew when, from the first to the last quarter of a send window,
/// the mean number of requests outstanding rose by more than rate x limit
/// — more than every request could have in flight while meeting the
/// latency limit (Little's law). Unlike an achieved/offered ratio, this
/// does not count the replies still in flight at the end as lost capacity.
bool holds(const Phase& phase, bool clean) {
    if (!clean || phase.aborted || phase.missing > 0) return false;
    return phase.backlog_growth <= phase.rate * kLatencyLimitMs / 1000.0;
}

/// The knee's bar: the rate holds and its p95 is within the latency limit.
bool meets_bar(const Phase& phase, bool clean) {
    return holds(phase, clean) && summarize(latencies(phase)).p95 <= kLatencyLimitMs;
}

// --------------------------------------------------------- scraping

/// The daemon's `metrics` verb: an obs::to_json registry snapshot.
json::Value scrape(std::uint16_t port) {
    return field(json::parse(call(port, "{\"id\":\"m\",\"method\":\"metrics\"}")), "metrics");
}

/// Summed value of every series of a counter family.
double counter(const json::Value& snapshot, const std::string& name) {
    double total = 0.0;
    for (const json::Value& fam : field(snapshot, "families").as_array()) {
        if (field(fam, "name").as_string() != name) continue;
        for (const json::Value& series : field(fam, "series").as_array())
            if (const json::Value* v = series.find("value")) total += v->as_number();
    }
    return total;
}

struct Buckets {
    std::vector<double> le; ///< upper bounds; +inf last
    std::vector<double> count;
    double sum = 0.0;
};

/// Per-bucket counts of a histogram family, merged over series whose
/// labels contain `label` (empty = all series).
Buckets buckets(const json::Value& snapshot, const std::string& name,
                const std::string& label = "") {
    Buckets out;
    for (const json::Value& fam : field(snapshot, "families").as_array()) {
        if (field(fam, "name").as_string() != name) continue;
        for (const json::Value& series : field(fam, "series").as_array()) {
            if (!label.empty()) {
                bool match = false;
                for (const auto& [k, v] : field(series, "labels").as_object())
                    match = match || v.as_string() == label;
                if (!match) continue;
            }
            const json::Array& bs = field(series, "buckets").as_array();
            if (out.le.empty()) {
                for (const json::Value& b : bs)
                    out.le.push_back(field(b, "le").is_number() ? field(b, "le").as_number()
                                                                : INFINITY);
                out.count.assign(bs.size(), 0.0);
            }
            for (std::size_t i = 0; i < bs.size(); ++i)
                out.count[i] += field(bs[i], "count").as_number();
            out.sum += field(series, "sum").as_number();
        }
    }
    return out;
}

Buckets delta(const Buckets& after, const Buckets& before) {
    Buckets d = after;
    for (std::size_t i = 0; i < d.count.size() && i < before.count.size(); ++i)
        d.count[i] -= before.count[i];
    d.sum -= before.sum;
    return d;
}

double total(const Buckets& b) {
    double n = 0.0;
    for (const double c : b.count) n += c;
    return n;
}

/// Bucket-interpolated quantile (linear inside the bucket, the +Inf bucket
/// clamped to the last finite bound) — only as good as the bucket edges.
double interpolated(const Buckets& b, double q) {
    const double n = total(b);
    if (n <= 0) return 0.0;
    double cumulative = 0.0;
    for (std::size_t i = 0; i < b.count.size(); ++i) {
        const double lower = i == 0 ? 0.0 : b.le[i - 1];
        if (cumulative + b.count[i] >= q * n && b.count[i] > 0) {
            if (!std::isfinite(b.le[i])) return lower;
            return lower + (b.le[i] - lower) * (q * n - cumulative) / b.count[i];
        }
        cumulative += b.count[i];
    }
    return b.le.size() > 1 ? b.le[b.le.size() - 2] : 0.0;
}

// ------------------------------------------------------------ the run

/// min(nproc, 4): the CPUs this process may run on, as `nproc` counts them.
std::size_t connection_count() {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int cores = ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
    return static_cast<std::size_t>(std::clamp(cores, 1, 4));
}

void in_process_layers(const std::vector<MixEntry>& mix, Tracer& tracer, RunResult& result) {
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < mix.size(); ++i) lines.push_back(request_line(i + 1, mix[i]));

    const Clock::time_point parse_start = Clock::now();
    {
        Scope span(tracer, "service.parse");
        for (const std::string& line : lines) (void)service::parse_request(line);
    }
    result.add("service.parse.us",
               ms_since(parse_start) * 1000.0 / static_cast<double>(lines.size()), "us");

    service::ServiceOptions options;
    options.cache_topologies = kCacheTopologies;
    service::Service svc(options);
    std::vector<double> handle_ms;
    for (std::size_t i = 0; i < std::min<std::size_t>(lines.size(), 300); ++i) {
        const Clock::time_point start = Clock::now();
        Scope span(tracer, "service.handle", i + 1);
        (void)svc.handle_line(lines[i]);
        handle_ms.push_back(ms_since(start));
    }
    const Summary handle = summarize(handle_ms);
    result.add("service.handle.p50_ms", handle.p50, "ms");
    result.add("service.handle.p99_ms", handle.p99, "ms");
    result.notes.push_back("service.handle (in-process, one thread): " + handle.describe("ms"));
}

} // namespace

RunResult run_serve_mixed(const RunOptions& opt) {
    const std::vector<MixEntry> mix = make_mix(opt.seed, 256);
    const std::vector<MixEntry> burst = make_burst(opt.seed);
    Daemon daemon(opt.cli_path, opt.work_dir + "/serve-" + std::to_string(::getpid()) + ".log");
    if (call(daemon.port(), "{\"id\":\"p\",\"method\":\"ping\"}").find("\"ok\"") ==
        std::string::npos)
        throw std::runtime_error("serve daemon did not answer ping");
    signal_ready();
    if (opt.setup_only) return {};

    RunResult result;
    Tracer tracer(opt.trace);
    References refs(tracer);
    const Clock::time_point run_start = Clock::now();
    const std::size_t connections = connection_count();
    OpenLoop loop(daemon.port(), connections, true);
    std::size_t cursor = 0;
    const auto at_nominal = [&](double seconds) {
        return take(mix, cursor, static_cast<std::size_t>(std::llround(kNominalRps * seconds)));
    };
    // Each phase is checked when it ends, between timed phases: the
    // in-process reference mappings never compete with the daemon.
    ScenarioCosts costs;
    ScenarioCosts unused;

    const Phase warmup = loop.run(at_nominal(1.0), kNominalRps, 0, tracer);
    (void)check_phase(warmup, refs, result, unused);

    // The measured run alternates kCycles slices of the nominal phase with
    // wall_s bursts, so that both figures sample the host over the whole
    // run. A burst is the fixed menu sent all at once on one connection,
    // which the daemon answers one request after another on one session
    // thread. The traced run has one nominal slice and no bursts.
    const std::size_t cycles = opt.trace ? 1 : kCycles;
    const double slice_s =
        opt.seconds * (opt.trace ? kTracedNominalShare : kNominalShare) / static_cast<double>(cycles);
    std::optional<OpenLoop> single;
    if (!opt.trace) single.emplace(daemon.port(), 1, true);
    Phase nominal;
    bool nominal_clean = true;
    std::vector<double> burst_s;
    const json::Value before = opt.trace ? scrape(daemon.port()) : json::Value{};
    json::Value after;
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
        const std::int32_t phase_span = tracer.open("harness.nominal");
        Phase slice = loop.run(at_nominal(slice_s), kNominalRps, 0, tracer);
        tracer.close(phase_span);
        if (opt.trace) after = scrape(daemon.port());
        nominal_clean = check_phase(slice, refs, result, costs) && nominal_clean;
        if (cycle == 0) {
            nominal = std::move(slice);
        } else {
            nominal.sent += slice.sent;
            nominal.missing += slice.missing;
            nominal.replies.insert(nominal.replies.end(), slice.replies.begin(),
                                   slice.replies.end());
            nominal.late_ms.insert(nominal.late_ms.end(), slice.late_ms.begin(),
                                   slice.late_ms.end());
        }
        if (opt.trace) continue;
        const Phase b = single->run(burst, std::numeric_limits<double>::infinity(), 0, tracer);
        (void)check_phase(b, refs, result, unused);
        burst_s.push_back(b.wall_s);
    }

    // The same load from a client that leaves delayed ACKs on, as most do.
    Phase delayed_ack;
    if (opt.trace) {
        OpenLoop plain(daemon.port(), connections, false);
        delayed_ack = plain.run(at_nominal(opt.seconds * kDelayedAckShare), kNominalRps, 0, tracer);
        (void)check_phase(delayed_ack, refs, result, unused);
    }

    // The knee: up the ladder from the nominal rate until a rung misses the
    // bar or the ladder's time is spent; the knee is the last rate that met it.
    double knee = 0.0;
    bool knee_bounded = false; ///< a rung above the knee missed the bar
    std::vector<Phase> probes;
    if (opt.trace) {
        knee_bounded = !meets_bar(nominal, nominal_clean);
        const Clock::time_point ladder_start = Clock::now();
        for (int rung = 1; !knee_bounded && ms_since(ladder_start) < opt.seconds * kLadderShare * 1000.0;
             ++rung) {
            knee = rung_rate(rung - 1);
            const double rate = rung_rate(rung);
            const double probe_s = std::max(kProbeMinS, kProbeRequests / rate);
            Phase probe = loop.run(
                take(mix, cursor, static_cast<std::size_t>(std::llround(rate * probe_s))), rate,
                static_cast<std::size_t>(3 * rate * kLatencyLimitMs / 1000.0), tracer);
            knee_bounded = !meets_bar(probe, check_phase(probe, refs, result, unused));
            probes.push_back(std::move(probe));
        }
        if (!knee_bounded && !probes.empty()) knee = probes.back().rate;
    }
    const double daemon_rss = peak_rss_mb(daemon.pid());
    daemon.stop();

    std::vector<double> distinct_costs;
    for (const auto& [scenario, cost] : costs) distinct_costs.push_back(cost);
    const Summary client = summarize(latencies(nominal));
    const Summary late = summarize(nominal.late_ms);
    result.notes.push_back("connections=" + std::to_string(connections) + " nominal " +
                           std::to_string(nominal.replies.size()) + " replies at " +
                           std::to_string(static_cast<int>(kNominalRps)) + " req/s");
    result.notes.push_back("client latency from scheduled send: " + client.describe("ms"));
    result.notes.push_back("generator lateness: " + late.describe("ms"));
    if (!burst_s.empty()) {
        std::ostringstream note;
        note << "bursts of " << burst.size() << " requests, seconds to answer each:";
        for (const double b : burst_s) note << ' ' << b;
        result.notes.push_back(note.str());
    }
    for (const Phase& p : probes) {
        std::ostringstream note;
        note << "knee probe " << p.rate << " req/s: sent=" << p.sent << " "
             << summarize(latencies(p)).describe("ms") << " backlog_growth=" << p.backlog_growth
             << (p.aborted ? " aborted" : "") << (holds(p, true) ? "" : " (does not hold)");
        result.notes.push_back(note.str());
    }

    if (!opt.trace) {
        // The mean, not the median: the host's speed drifts in spells of
        // seconds, and a median flips between spells where a mean blends them.
        double total_s = 0.0;
        for (const double b : burst_s) total_s += b;
        result.add("wall_s", total_s / static_cast<double>(burst_s.size()), "s");
        result.add("peak_rss_mb", daemon_rss, "MB");
        result.add("cost_geomean", geomean(distinct_costs), "hop.MB/s");
        result.add("p50_ms", client.p50, "ms");
        return result;
    }

    result.add("p99_ms", client.p99, "ms");
    result.add("knee_rps", knee, "req/s");
    if (!knee_bounded)
        result.notes.push_back("knee_rps is a lower bound: the ladder's time ran out first");
    const Summary delayed = summarize(latencies(delayed_ack));
    result.add("service.delayed_ack.p50_ms", delayed.p50, "ms");
    result.notes.push_back("client with delayed ACKs: " + delayed.describe("ms"));
    const Buckets server = delta(buckets(after, "nocmap_request_latency_ms", "map"),
                                 buckets(before, "nocmap_request_latency_ms", "map"));
    const Buckets scenario = delta(buckets(after, "nocmap_scenario_latency_ms"),
                                   buckets(before, "nocmap_scenario_latency_ms"));
    const Buckets batch = delta(buckets(after, "nocmap_batch_requests"),
                                buckets(before, "nocmap_batch_requests"));
    const double hits = counter(after, "nocmap_cache_hits_total") -
                        counter(before, "nocmap_cache_hits_total");
    const double misses = counter(after, "nocmap_cache_misses_total") -
                          counter(before, "nocmap_cache_misses_total");
    const double server_p50 = interpolated(server, 0.50);
    result.add("service.server.p50_ms", server_p50, "ms");
    result.add("service.server.p99_ms", interpolated(server, 0.99), "ms");
    result.add("service.scenario.p50_ms", interpolated(scenario, 0.50), "ms");
    result.add("service.batch.mean", total(batch) > 0 ? batch.sum / total(batch) : 0.0, "count");
    result.add("service.rejected",
               counter(after, "nocmap_requests_rejected_total") -
                   counter(before, "nocmap_requests_rejected_total"),
               "count");
    result.add("service.gap.p50_ms", client.p50 - server_p50, "ms");
    result.add("portfolio.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "ratio");
    result.add("portfolio.cache.lookups", hits + misses, "count");
    result.add("harness.gen_late.p99_ms", late.p99, "ms");
    result.add("harness.gen_late.max_ms", late.max, "ms");
    result.notes.push_back("service.server.*, service.scenario.p50_ms: bucket-interpolated from "
                           "the daemon's histograms, not exact");
    in_process_layers(mix, tracer, result);
    finish_trace(tracer, ms_since(run_start), opt, result);
    return result;
}

} // namespace perfbench
