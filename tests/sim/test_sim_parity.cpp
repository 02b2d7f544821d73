// Simulator parity pins: every case hashes the per-packet trace CSV and
// every SimStats field bit for bit, against digests recorded from the
// cycle-by-cycle simulator that steps every router every cycle. A change
// to the cycle loop (which routers it serves, when idle stretches are
// skipped, how link tokens catch up) must reproduce those digests exactly.
//
// The cases cover the paper apps at ample bandwidth (link rate above one
// flit per cycle) and at tight bandwidth (a fractional link rate, so idle
// routers wake with partly refilled token buckets), split flows, uniform
// and very bursty injection, a torus, shallow input buffers and one
// watchdog stall.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>

#include "apps/registry.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"
#include "sim/simulator.hpp"

namespace nocmap::sim {
namespace {

class Digest {
public:
    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void stats(const util::RunningStats& s) {
        u64(s.count());
        f64(s.mean());
        f64(s.min());
        f64(s.max());
        f64(s.variance());
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL; // FNV-1a 64
};

std::uint64_t stats_digest(const SimStats& s) {
    Digest d;
    d.u64(s.cycles_run);
    d.stats(s.packet_latency);
    d.u64(s.flows.size());
    for (const FlowStats& f : s.flows) {
        d.u64(static_cast<std::uint64_t>(f.flow));
        d.u64(f.packets_injected);
        d.u64(f.packets_ejected);
        d.stats(f.latency);
        d.stats(f.inter_arrival);
        d.stats(f.hops);
    }
    d.u64(s.link_utilization.size());
    for (const double u : s.link_utilization) d.f64(u);
    d.u64(s.packets_injected);
    d.u64(s.packets_ejected);
    d.u64(s.stalled ? 1 : 0);
    return d.value();
}

std::uint64_t trace_digest(const Simulator& sim) {
    std::ostringstream os;
    write_packet_trace(os, sim.packet_records());
    const std::string csv = os.str();
    Digest d;
    d.bytes(csv.data(), csv.size());
    return d.value();
}

enum class Fabric { Mesh, Torus };

noc::Topology fabric_for(const graph::CoreGraph& g, Fabric fabric, double capacity) {
    const noc::Topology mesh = noc::Topology::smallest_mesh_for(g.node_count(), capacity);
    if (fabric == Fabric::Mesh) return mesh;
    return noc::Topology::torus(mesh.width(), mesh.height(), capacity);
}

/// Single-path flows of the NMAP mapping on the ample fabric; the route
/// link ids carry over to the same fabric at any capacity.
std::vector<FlowSpec> single_path_flows(const graph::CoreGraph& g, Fabric fabric) {
    const noc::EvalContext ctx(fabric_for(g, fabric, 1e9));
    const auto mapped = nmap::map_with_single_path(g, ctx);
    const auto commodities = noc::build_commodities(g, mapped.mapping);
    const auto routing = nmap::route_single_min_paths(ctx, commodities);
    return make_single_path_flows(ctx.topology(), commodities, routing.routes);
}

/// Split flows of the exact-engine NMAP-split mapping at `capacity`.
std::vector<FlowSpec> split_flows(const graph::CoreGraph& g, double capacity) {
    const noc::EvalContext ctx(fabric_for(g, Fabric::Mesh, capacity));
    nmap::SplitOptions options;
    options.mcf_engine = nmap::McfEngine::Exact;
    const auto mapped = nmap::map_with_splitting(g, ctx, options);
    const auto commodities = noc::build_commodities(g, mapped.mapping);
    return make_split_flows(ctx.topology(), commodities, mapped.flows);
}

SimConfig window() {
    SimConfig cfg;
    cfg.warmup_cycles = 2'000;
    cfg.measure_cycles = 20'000;
    cfg.drain_cycles = 20'000;
    return cfg;
}

struct Pins {
    std::uint64_t stats;
    std::uint64_t trace;
};

SimStats expect_pins(const noc::Topology& topo, std::vector<FlowSpec> flows,
                     const SimConfig& cfg, Pins pins,
                     const std::function<bool()>& cancelled = {}) {
    Simulator sim(topo, std::move(flows), cfg);
    const SimStats stats = sim.run(cancelled);
    EXPECT_EQ(stats_digest(stats), pins.stats)
        << std::hex << "stats digest 0x" << stats_digest(stats);
    EXPECT_EQ(trace_digest(sim), pins.trace)
        << std::hex << "trace digest 0x" << trace_digest(sim);
    return stats;
}

struct AppCase {
    const char* app;
    Pins ample;
    Pins tight; ///< links at 1300 MB/s: 0.325 flits/cycle
};

/// Test names and ctest labels show the app, not the struct's bytes.
void PrintTo(const AppCase& c, std::ostream* os) { *os << c.app; }

class SimParityApps : public ::testing::TestWithParam<AppCase> {};

TEST_P(SimParityApps, AmpleBandwidth) {
    const auto g = apps::make_application(GetParam().app);
    expect_pins(fabric_for(g, Fabric::Mesh, 1e9), single_path_flows(g, Fabric::Mesh), window(),
                GetParam().ample);
}

TEST_P(SimParityApps, TightBandwidth) {
    const auto g = apps::make_application(GetParam().app);
    expect_pins(fabric_for(g, Fabric::Mesh, 1300.0), single_path_flows(g, Fabric::Mesh),
                window(), GetParam().tight);
}

INSTANTIATE_TEST_SUITE_P(
    PaperApps, SimParityApps,
    ::testing::Values(
        AppCase{"mpeg4", {0x36c8e83a571700d8ULL, 0x16456295bc43dd17ULL},
                {0x487b5fb1b4318b69ULL, 0xa93a8e5088ff0143ULL}},
        AppCase{"vopd", {0x9706316aaad92a77ULL, 0xc4659a99cc52f91bULL},
                {0x3d3b43c62496fa18ULL, 0x17cd93b96112b5dbULL}},
        AppCase{"pip", {0xa47a53e01ea11d6dULL, 0x92ca8f0da87d391ULL},
                {0xa996b7452beb31c8ULL, 0x9a0485f3a3a3f42cULL}},
        AppCase{"mwa", {0xc060bd4ea3b8609fULL, 0xb107a7b1ecfca9caULL},
                {0x3b26d79b3ea4667fULL, 0x13bc367fa392e264ULL}},
        AppCase{"mwag", {0xfeb056c1dbe4010aULL, 0xbcd63f0a2910b449ULL},
                {0xe93808e49854ad2fULL, 0x1ea70b2c9a6448c3ULL}},
        AppCase{"dsd", {0x3b53db1f95b1054dULL, 0x9c0727dff422d529ULL},
                {0x45e1b9142bf47f58ULL, 0x371d5397e13eb984ULL}},
        AppCase{"dsp", {0x897ffda24da86b39ULL, 0xdcbdb84abc3db39aULL},
                {0x5f0d6691021d5541ULL, 0x6668c65f66673f90ULL}}));

TEST(SimParity, SplitFlows) {
    const auto g = apps::make_application("vopd");
    expect_pins(fabric_for(g, Fabric::Mesh, 1e9), split_flows(g, 400.0), window(),
                {0x4955fc866157a6d5ULL, 0x7217897227290efdULL});
    // The same split routing on 1300 MB/s links (fractional link rate).
    expect_pins(fabric_for(g, Fabric::Mesh, 1300.0), split_flows(g, 400.0), window(),
                {0x6dcbd96e2433a424ULL, 0xb46dbd8ebba8de35ULL});
}

TEST(SimParity, UniformInjection) {
    const auto g = apps::make_application("mpeg4");
    SimConfig cfg = window();
    cfg.traffic.burstiness = 1.0;
    expect_pins(fabric_for(g, Fabric::Mesh, 1300.0), single_path_flows(g, Fabric::Mesh), cfg,
                {0x63ed4ca8526db798ULL, 0x65137b57e249296cULL});
}

TEST(SimParity, Burstiness64) {
    const auto g = apps::make_application("vopd");
    SimConfig cfg = window();
    cfg.traffic.burstiness = 64.0;
    expect_pins(fabric_for(g, Fabric::Mesh, 1300.0), single_path_flows(g, Fabric::Mesh), cfg,
                {0x7d5194263dc10d56ULL, 0x3c47a4fab1e6a05dULL});
}

TEST(SimParity, Torus) {
    const auto g = apps::make_application("vopd");
    expect_pins(fabric_for(g, Fabric::Torus, 1e9), single_path_flows(g, Fabric::Torus),
                window(), {0x55de47c993406f75ULL, 0x30744752a293c46aULL});
    expect_pins(fabric_for(g, Fabric::Torus, 1300.0), single_path_flows(g, Fabric::Torus),
                window(), {0x1b2cb338930dd43cULL, 0xe6e53f4ac0afd603ULL});
}

TEST(SimParity, ShallowInputBuffers) {
    const auto g = apps::make_application("mpeg4");
    SimConfig cfg = window();
    cfg.buffer_depth_flits = 2;
    expect_pins(fabric_for(g, Fabric::Mesh, 1300.0), single_path_flows(g, Fabric::Mesh), cfg,
                {0xc0f1af93d097a703ULL, 0xf6f3063d6fa32747ULL});
}

TEST(SimParity, WatchdogStall) {
    // 40 MB/s links carry one flit every 100 cycles: once the output
    // queues fill, no flit moves for longer than the 60-cycle watchdog.
    const auto g = apps::make_application("pip");
    SimConfig cfg = window();
    cfg.stall_watchdog_cycles = 60;
    const SimStats stats = expect_pins(fabric_for(g, Fabric::Mesh, 40.0),
                                       single_path_flows(g, Fabric::Mesh), cfg,
                                       {0x18ed3abe17322901ULL, 0x5c6ab40f8798207ULL});
    EXPECT_TRUE(stats.stalled);
}

TEST(SimParity, PollingHookThatNeverFiresChangesNothing) {
    const auto g = apps::make_application("vopd");
    std::size_t polls = 0;
    expect_pins(fabric_for(g, Fabric::Mesh, 1300.0), single_path_flows(g, Fabric::Mesh),
                window(), {0x3d3b43c62496fa18ULL, 0x17cd93b96112b5dbULL}, [&] {
                    ++polls;
                    return false;
                });
    // One poll per kCancelPollCycles simulated cycles at most.
    EXPECT_GT(polls, 0u);
    EXPECT_LE(polls, 42'000 / Simulator::kCancelPollCycles);
}

TEST(SimParity, CancelStopsTheRunAtTheNextPoll) {
    const auto g = apps::make_application("vopd");
    const SimConfig cfg = window();
    const noc::Topology topo = fabric_for(g, Fabric::Mesh, 1300.0); // outlives the simulator
    Simulator sim(topo, single_path_flows(g, Fabric::Mesh), cfg);
    std::size_t polls = 0;
    const SimStats stats = sim.run([&] {
        ++polls;
        return true;
    });
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(polls, 1u);
    EXPECT_GE(stats.cycles_run, Simulator::kCancelPollCycles);
    EXPECT_LT(stats.cycles_run, cfg.warmup_cycles + cfg.measure_cycles);
}

} // namespace
} // namespace nocmap::sim
