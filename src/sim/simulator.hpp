#pragma once
// Cycle-accurate wormhole NoC simulator.
//
// Substitute for the paper's SystemC + ×pipes cycle-accurate model: input-
// buffered wormhole routers with credit backpressure and a configurable
// switch delay (Table 3: 7 cycles), source-routed packets segmented into
// flits (64 B packets), NIs with weighted multipath distribution, and
// bursty ON/OFF traffic. Reproduces the contention mechanism behind
// Figure 5(c): single-path routing concentrates load and hits wormhole
// blocking as link bandwidth shrinks, split routing stays flat.
//
// The cycle loop is activity-driven but bit-identical to stepping every
// router every cycle. A router holding no flit (empty input and output
// queues) would only refill its token buckets in a cycle, so it is not
// served; when it next holds a flit, the refills it missed are replayed
// with the same per-cycle update before it is served. Served routers go
// in ascending tile order, because a router's link stage reads its
// downstream neighbours' buffer space within the cycle. While no flit is
// in flight at all, the loop jumps straight to the earliest generator
// emission (capped at the end of the measurement window).

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "noc/topology.hpp"
#include "sim/network_interface.hpp"
#include "sim/packet.hpp"
#include "sim/router.hpp"
#include "sim/traffic.hpp"
#include "util/stats.hpp"

namespace nocmap::sim {

struct SimConfig {
    double clock_ghz = 1.0;          ///< converts link MB/s into flits/cycle
    std::size_t flit_bytes = 4;
    std::size_t packet_bytes = 64;   ///< Table 3 packet size
    std::size_t buffer_depth_flits = 8;
    /// Switch output queue depth (×pipes switches are output-buffered); one
    /// packet by default so a stalled slow link does not block the crossbar.
    std::size_t output_buffer_depth_flits = 16;
    std::uint32_t hop_delay_cycles = 7; ///< Table 3 switch delay
    double local_port_flits_per_cycle = 1.0; ///< NI <-> router bandwidth
    std::uint64_t warmup_cycles = 10'000;
    std::uint64_t measure_cycles = 100'000;
    /// Extra cycles allowed for measured packets to drain after the window.
    std::uint64_t drain_cycles = 50'000;
    std::uint64_t seed = 42;
    TrafficConfig traffic{};
    /// Abort (stalled=true) when no flit moves for this many cycles while
    /// flits remain in flight — a wormhole deadlock detector.
    std::uint64_t stall_watchdog_cycles = 20'000;
};

struct FlowStats {
    FlowId flow = -1;
    std::uint64_t packets_injected = 0; ///< in the measurement window
    std::uint64_t packets_ejected = 0;
    util::RunningStats latency;         ///< cycles, creation -> tail ejection
    /// Time between deliveries of adjacent packets — the paper's jitter
    /// metric ("the time between the delivery of adjacent packets"). Its
    /// stddev is the jitter; NMAPTM's equal-hop splitting keeps it low.
    util::RunningStats inter_arrival;
    /// Hop count of delivered packets; a non-zero spread means the flow's
    /// packets took paths of different lengths (only possible for split
    /// traffic across non-minimal paths).
    util::RunningStats hops;

    double jitter() const { return inter_arrival.stddev(); }
};

struct SimStats {
    std::uint64_t cycles_run = 0;
    util::RunningStats packet_latency; ///< all measured packets
    std::vector<FlowStats> flows;
    std::vector<double> link_utilization; ///< fraction of link capacity used
    std::uint64_t packets_injected = 0;
    std::uint64_t packets_ejected = 0;
    bool stalled = false; ///< watchdog fired (deadlock / overload)
    bool cancelled = false; ///< the cancellation hook stopped the run early

    std::string summary() const;
};

class Simulator {
public:
    /// Flow specs must be validated against `topo` (constructor checks).
    Simulator(const noc::Topology& topo, std::vector<FlowSpec> flows,
              const SimConfig& config = {});

    /// Runs warmup + measurement (+ drain) and returns the statistics.
    /// `cancelled`, when set, is polled every kCancelPollCycles simulated
    /// cycles (an idle jump past a poll point polls too); once it returns
    /// true the run stops with SimStats::cancelled set.
    SimStats run(const std::function<bool()>& cancelled = {});

    static constexpr std::uint64_t kCancelPollCycles = 1024;

    const SimConfig& config() const noexcept { return config_; }

    /// All packets created during the run (inspect after run()); completed
    /// packets carry their ejection cycle and the route they travelled.
    std::span<const PacketRecord> packet_records() const noexcept { return packets_; }

private:
    struct Arrival {
        Flit flit;
        noc::LinkId link = noc::kInvalidLink; ///< input buffer to deliver to
    };

    void deliver_arrivals(std::uint64_t cycle);
    void inject_traffic(std::uint64_t cycle);
    bool serve_outputs(std::uint64_t cycle); ///< returns true if any flit moved
    bool serve_router(std::size_t tile, std::uint64_t cycle);
    void catch_up_tokens(std::size_t tile, std::uint64_t cycle);
    std::uint64_t next_emission_cycle() const;
    void complete_packet(PacketId id, std::uint64_t cycle);

    const noc::Topology& topo_;
    std::vector<FlowSpec> flows_;
    SimConfig config_;
    std::size_t flits_per_packet_ = 0;

    std::vector<Router> routers_;             ///< per tile
    std::vector<NetworkInterface> interfaces_; ///< per tile
    std::vector<PortIndex> local_port_of_flow_; ///< NI queue of each flow
    std::vector<PacketRecord> packets_;
    std::vector<std::vector<Arrival>> arrival_ring_; ///< [cycle % delay+1]
    std::uint64_t in_flight_flits_ = 0;
    /// Per router: flits in its input and output queues (0 = not served).
    std::vector<std::uint32_t> held_flits_;
    /// Per router: cycles [0, n) whose token refills are applied.
    std::vector<std::uint64_t> tokens_synced_;
    /// Per link: the input port it feeds at its downstream router.
    std::vector<PortIndex> link_input_port_;

    SimStats stats_;
    std::uint64_t measure_begin_ = 0;
    std::uint64_t measure_end_ = 0;
    std::uint64_t outstanding_measured_ = 0;
    std::vector<std::uint64_t> last_delivery_; ///< per flow, for jitter
};

/// Builds single-path flow specs from a routed single-path solution.
std::vector<FlowSpec> make_single_path_flows(const noc::Topology& topo,
                                             const std::vector<noc::Commodity>& commodities,
                                             const std::vector<noc::Route>& routes);

/// Builds multipath flow specs from an MCF flow matrix (split routing) via
/// path decomposition.
std::vector<FlowSpec> make_split_flows(const noc::Topology& topo,
                                       const std::vector<noc::Commodity>& commodities,
                                       const std::vector<std::vector<double>>& mcf_flows);

/// Writes a per-packet CSV trace (flow, created, ejected, latency, hops)
/// for offline analysis/plotting; incomplete packets get empty eject cells.
/// Throws std::runtime_error when the stream enters a failed state — a
/// silent partial trace would corrupt downstream analysis.
void write_packet_trace(std::ostream& os, std::span<const PacketRecord> packets);

/// File convenience: opens `path`, writes, and flushes. Throws
/// std::runtime_error when the file cannot be opened or the write fails.
void write_packet_trace(const std::string& path, std::span<const PacketRecord> packets);

} // namespace nocmap::sim
