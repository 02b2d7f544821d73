#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "lp/mcf.hpp"
#include "util/log.hpp"

namespace nocmap::sim {

namespace {

double link_rate_flits_per_cycle(double capacity_mbps, const SimConfig& config) {
    // MB/s -> bytes/cycle: MBps * 1e6 / (GHz * 1e9) = MBps / (1000 * GHz).
    const double bytes_per_cycle = capacity_mbps / (1000.0 * config.clock_ghz);
    return bytes_per_cycle / static_cast<double>(config.flit_bytes);
}

/// Applies `cycles` idle-cycle refills to `port`: exactly the per-cycle
/// `tokens += rate; if (tokens > 1) tokens = 1` of a port with nothing to
/// send, stopped at its fixed point 1. (A closed form min(1, t + k·rate)
/// rounds differently.)
void refill_idle(Router::OutputPort& port, std::uint64_t cycles) {
    for (; cycles > 0 && port.tokens < 1.0; --cycles) {
        port.tokens += port.rate;
        if (port.tokens > 1.0) port.tokens = 1.0;
    }
}

} // namespace

std::string SimStats::summary() const {
    std::ostringstream os;
    os << "cycles: " << cycles_run << ", packets " << packets_ejected << '/'
       << packets_injected << " ejected";
    if (stalled) os << " [STALLED]";
    os << ", avg latency " << packet_latency.mean() << " cy (max "
       << packet_latency.max() << ")";
    return os.str();
}

Simulator::Simulator(const noc::Topology& topo, std::vector<FlowSpec> flows,
                     const SimConfig& config)
    : topo_(topo), flows_(std::move(flows)), config_(config) {
    if (config_.flit_bytes == 0 || config_.packet_bytes < config_.flit_bytes)
        throw std::invalid_argument("Simulator: bad flit/packet sizes");
    if (config_.hop_delay_cycles == 0)
        throw std::invalid_argument("Simulator: hop delay must be >= 1 cycle");
    flits_per_packet_ = (config_.packet_bytes + config_.flit_bytes - 1) / config_.flit_bytes;

    for (const FlowSpec& flow : flows_) validate_flow_spec(topo_, flow);

    // Group flows by source tile first: each flow gets its own NI injection
    // queue (per-connection buffering, as in ×pipes NIs).
    util::Rng master(config_.seed);
    std::vector<std::vector<FlowId>> ids(topo_.tile_count());
    std::vector<std::vector<const FlowSpec*>> specs(topo_.tile_count());
    std::vector<std::vector<BurstyGenerator>> generators(topo_.tile_count());
    local_port_of_flow_.assign(flows_.size(), kLocalPort);
    for (std::size_t f = 0; f < flows_.size(); ++f) {
        const FlowSpec& flow = flows_[f];
        const auto tile = static_cast<std::size_t>(flow.commodity.src_tile);
        const double bytes_per_cycle =
            flow.commodity.value / (1000.0 * config_.clock_ghz);
        const double packets_per_cycle =
            bytes_per_cycle / static_cast<double>(config_.packet_bytes);
        if (packets_per_cycle >= 1.0)
            throw std::invalid_argument(
                "Simulator: flow injects >= 1 packet/cycle; raise clock or packet size");
        local_port_of_flow_[f] = static_cast<PortIndex>(ids[tile].size());
        ids[tile].push_back(static_cast<FlowId>(f));
        specs[tile].push_back(&flow);
        generators[tile].emplace_back(packets_per_cycle, config_.traffic, master.split());
    }

    // Routers with per-output serialization rates.
    routers_.reserve(topo_.tile_count());
    link_input_port_.assign(topo_.link_count(), kLocalPort);
    for (std::size_t t = 0; t < topo_.tile_count(); ++t) {
        routers_.emplace_back(topo_, static_cast<noc::TileId>(t), config_.buffer_depth_flits,
                              std::max<std::size_t>(1, ids[t].size()));
        Router& router = routers_.back();
        for (std::size_t i = 0; i < router.out_links().size(); ++i) {
            auto& port = router.output(i);
            port.rate =
                link_rate_flits_per_cycle(topo_.link(router.out_links()[i]).capacity, config_);
            port.buffer_capacity = config_.output_buffer_depth_flits;
        }
        router.ejection_port().rate = config_.local_port_flits_per_cycle;
        for (const noc::LinkId l : router.in_links())
            link_input_port_[static_cast<std::size_t>(l)] = router.port_of_in_link(l);
    }
    held_flits_.assign(topo_.tile_count(), 0);
    tokens_synced_.assign(topo_.tile_count(), 0);

    interfaces_.reserve(topo_.tile_count());
    for (std::size_t t = 0; t < topo_.tile_count(); ++t)
        interfaces_.emplace_back(static_cast<noc::TileId>(t), std::move(ids[t]),
                                 std::move(specs[t]), std::move(generators[t]));

    arrival_ring_.assign(config_.hop_delay_cycles + 1, {});

    stats_.flows.resize(flows_.size());
    for (std::size_t f = 0; f < flows_.size(); ++f)
        stats_.flows[f].flow = static_cast<FlowId>(f);
    last_delivery_.assign(flows_.size(), 0);
}

void Simulator::inject_traffic(std::uint64_t cycle) {
    for (auto& ni : interfaces_) {
        for (const auto& emission : ni.tick(cycle)) {
            const FlowSpec& flow = flows_[static_cast<std::size_t>(emission.flow)];
            PacketRecord record;
            record.flow = emission.flow;
            record.route = flow.paths[emission.path_index].first;
            record.size_flits = static_cast<std::uint32_t>(flits_per_packet_);
            record.created_cycle = cycle;
            packets_.push_back(std::move(record));
            const auto id = static_cast<PacketId>(packets_.size() - 1);

            const auto tile = static_cast<std::size_t>(ni.tile());
            Router& router = routers_[tile];
            auto& queue =
                router.input(local_port_of_flow_[static_cast<std::size_t>(emission.flow)])
                    .fifo;
            for (std::uint32_t i = 0; i < flits_per_packet_; ++i) {
                Flit flit;
                flit.packet = id;
                flit.hop = 0;
                flit.head = i == 0;
                flit.tail = i + 1 == flits_per_packet_;
                queue.push_back(flit);
                ++in_flight_flits_;
            }
            held_flits_[tile] += static_cast<std::uint32_t>(flits_per_packet_);
            const bool measured = cycle >= measure_begin_ && cycle < measure_end_;
            if (measured) {
                ++stats_.packets_injected;
                ++stats_.flows[static_cast<std::size_t>(emission.flow)].packets_injected;
                ++outstanding_measured_;
            }
        }
    }
}

void Simulator::deliver_arrivals(std::uint64_t cycle) {
    auto& bucket = arrival_ring_[cycle % arrival_ring_.size()];
    for (const Arrival& arrival : bucket) {
        const auto tile = static_cast<std::size_t>(topo_.link(arrival.link).dst);
        auto& buffer = routers_[tile].input(
            link_input_port_[static_cast<std::size_t>(arrival.link)]);
        if (buffer.reserved == 0)
            throw std::logic_error("Simulator: arrival without reservation");
        --buffer.reserved;
        buffer.fifo.push_back(arrival.flit);
        ++held_flits_[tile];
    }
    bucket.clear();
}

void Simulator::complete_packet(PacketId id, std::uint64_t cycle) {
    PacketRecord& record = packets_[static_cast<std::size_t>(id)];
    record.ejected_cycle = cycle;
    record.completed = true;
    const bool measured =
        record.created_cycle >= measure_begin_ && record.created_cycle < measure_end_;
    if (measured) {
        const auto latency = static_cast<double>(cycle - record.created_cycle);
        stats_.packet_latency.add(latency);
        auto& fs = stats_.flows[static_cast<std::size_t>(record.flow)];
        fs.latency.add(latency);
        fs.hops.add(static_cast<double>(record.route.size()));
        auto& last = last_delivery_[static_cast<std::size_t>(record.flow)];
        if (fs.packets_ejected > 0)
            fs.inter_arrival.add(static_cast<double>(cycle - last));
        last = cycle;
        ++fs.packets_ejected;
        ++stats_.packets_ejected;
        if (outstanding_measured_ > 0) --outstanding_measured_;
    }
}

bool Simulator::serve_outputs(std::uint64_t cycle) {
    // Ascending tile order, as when every router is stepped: a router's
    // link stage reads its downstream neighbours' buffer space. A router
    // holding no flit would only refill its tokens; catch_up_tokens()
    // replays those refills when it holds a flit again.
    bool moved = false;
    for (std::size_t t = 0; t < routers_.size(); ++t) {
        if (held_flits_[t] == 0) continue;
        catch_up_tokens(t, cycle);
        moved |= serve_router(t, cycle);
    }
    return moved;
}

void Simulator::catch_up_tokens(std::size_t tile, std::uint64_t cycle) {
    const std::uint64_t skipped = cycle - tokens_synced_[tile];
    tokens_synced_[tile] = cycle + 1;
    if (skipped == 0) return;
    Router& router = routers_[tile];
    for (std::size_t i = 0; i < router.out_links().size(); ++i)
        refill_idle(router.output(i), skipped);
    refill_idle(router.ejection_port(), skipped);
}

bool Simulator::serve_router(std::size_t tile, std::uint64_t cycle) {
    Router& router = routers_[tile];
    const std::size_t inputs = router.input_count();
    bool moved = false;

    // Picks the input feeding `port` this cycle: the wormhole owner
    // while a packet is in flight, otherwise round-robin over inputs
    // whose head-of-line flit is a head flit routed to `out_link`
    // (kInvalidLink = the ejection port).
    auto choose_input = [&](Router::OutputPort& port, noc::LinkId out_link) -> std::int32_t {
        if (port.owner != kNoOwner) {
            return router.input(port.owner).fifo.empty() ? kNoOwner : port.owner;
        }
        for (std::size_t step = 0; step < inputs; ++step) {
            const auto idx = static_cast<std::int32_t>((port.rr_next + step) % inputs);
            const auto& buffer = router.input(idx);
            if (buffer.fifo.empty()) continue;
            const Flit& flit = buffer.fifo.front();
            if (!flit.head) continue; // body of a parked packet
            const PacketRecord& record = packets_[static_cast<std::size_t>(flit.packet)];
            const bool wants_ejection = flit.hop >= record.route.size();
            if (out_link == noc::kInvalidLink) {
                if (!wants_ejection) continue;
            } else if (wants_ejection || record.route[flit.hop] != out_link) {
                continue;
            }
            port.rr_next = (static_cast<std::size_t>(idx) + 1) % inputs;
            return idx;
        }
        return kNoOwner;
    };

    const auto& out_links = router.out_links();
    for (std::size_t i = 0; i < out_links.size(); ++i) {
        const noc::LinkId l = out_links[i];
        auto& port = router.output(i);

        // Stage 1 — link transmission: drain the output buffer at the
        // link's serialization rate, subject to downstream credits.
        port.tokens += port.rate;
        if (port.tokens >= 1.0 && !port.buffer.empty()) {
            Router& downstream = routers_[static_cast<std::size_t>(topo_.link(l).dst)];
            auto& target = downstream.input(link_input_port_[static_cast<std::size_t>(l)]);
            while (port.tokens >= 1.0 && !port.buffer.empty() && target.has_space()) {
                const Flit flit = port.buffer.front();
                port.buffer.pop_front();
                ++target.reserved;
                arrival_ring_[(cycle + config_.hop_delay_cycles) % arrival_ring_.size()]
                    .push_back(Arrival{flit, l});
                port.tokens -= 1.0;
                ++port.flits_sent;
                --held_flits_[tile];
                moved = true;
            }
        }
        // An idle or blocked link cannot bank service credit beyond one
        // flit slot (clamping mid-backlog would quantize the link rate).
        if (port.tokens > 1.0) port.tokens = 1.0;

        // Stage 2 — crossbar: move one flit per cycle from the chosen
        // input into the output buffer (×pipes output buffering).
        if (port.has_space()) {
            const std::int32_t chosen = choose_input(port, l);
            if (chosen != kNoOwner) {
                auto& buffer = router.input(chosen);
                Flit flit = buffer.fifo.front();
                buffer.fifo.pop_front();
                ++flit.hop;
                port.buffer.push_back(flit);
                moved = true;
                if (flit.head) port.owner = chosen;
                if (flit.tail) port.owner = kNoOwner;
            }
        }
    }

    // Ejection port: consumes directly from the inputs at the local
    // port rate (the NI sink needs no output queue).
    auto& ejection = router.ejection_port();
    ejection.tokens += ejection.rate;
    while (ejection.tokens >= 1.0) {
        const std::int32_t chosen = choose_input(ejection, noc::kInvalidLink);
        if (chosen == kNoOwner) break;
        auto& buffer = router.input(chosen);
        const Flit flit = buffer.fifo.front();
        buffer.fifo.pop_front();
        if (flit.tail) complete_packet(flit.packet, cycle);
        ejection.tokens -= 1.0;
        ++ejection.flits_sent;
        --in_flight_flits_;
        --held_flits_[tile];
        moved = true;
        if (flit.head) ejection.owner = chosen;
        if (flit.tail) ejection.owner = kNoOwner;
    }
    if (ejection.tokens > 1.0) ejection.tokens = 1.0;
    return moved;
}

std::uint64_t Simulator::next_emission_cycle() const {
    double earliest = std::numeric_limits<double>::infinity();
    for (const NetworkInterface& ni : interfaces_)
        earliest = std::min(earliest, ni.next_emission_time());
    return earliest < static_cast<double>(measure_end_)
               ? static_cast<std::uint64_t>(std::floor(earliest))
               : measure_end_;
}

SimStats Simulator::run(const std::function<bool()>& cancelled) {
    measure_begin_ = config_.warmup_cycles;
    measure_end_ = config_.warmup_cycles + config_.measure_cycles;
    const std::uint64_t hard_end = measure_end_ + config_.drain_cycles;

    std::uint64_t last_movement = 0;
    std::uint64_t cycle = 0;
    std::uint64_t next_poll = kCancelPollCycles;
    for (; cycle < hard_end; ++cycle) {
        // With no flit in flight, every cycle before the next emission only
        // refills tokens (and the window's end exits the loop at once).
        if (in_flight_flits_ == 0 && cycle < measure_end_)
            cycle = std::max(cycle, next_emission_cycle());
        if (cancelled && cycle >= next_poll) {
            next_poll = cycle + kCancelPollCycles;
            if (cancelled()) {
                stats_.cancelled = true;
                break;
            }
        }
        deliver_arrivals(cycle);
        if (cycle < measure_end_) inject_traffic(cycle);
        const bool moved = serve_outputs(cycle);
        if (moved) last_movement = cycle;

        if (in_flight_flits_ > 0 &&
            cycle - last_movement > config_.stall_watchdog_cycles) {
            stats_.stalled = true;
            util::log_warn("sim") << "watchdog: no movement for "
                                  << (cycle - last_movement) << " cycles";
            break;
        }
        // Early exit once every measured packet drained.
        if (cycle >= measure_end_ && outstanding_measured_ == 0) break;
    }
    stats_.cycles_run = cycle;

    // Link utilization: flits actually sent vs. flits the link could carry.
    stats_.link_utilization.assign(topo_.link_count(), 0.0);
    for (const Router& router : routers_)
        for (std::size_t i = 0; i < router.out_links().size(); ++i) {
            const auto& port = router.output(i);
            const double capacity_flits = port.rate * static_cast<double>(cycle);
            if (capacity_flits > 0.0)
                stats_.link_utilization[static_cast<std::size_t>(router.out_links()[i])] =
                    static_cast<double>(port.flits_sent) / capacity_flits;
        }
    return stats_;
}

std::vector<FlowSpec> make_single_path_flows(const noc::Topology& topo,
                                             const std::vector<noc::Commodity>& commodities,
                                             const std::vector<noc::Route>& routes) {
    if (commodities.size() != routes.size())
        throw std::invalid_argument("make_single_path_flows: size mismatch");
    std::vector<FlowSpec> flows;
    flows.reserve(commodities.size());
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        FlowSpec flow;
        flow.commodity = commodities[k];
        flow.paths.emplace_back(routes[k], 1.0);
        validate_flow_spec(topo, flow);
        flows.push_back(std::move(flow));
    }
    return flows;
}

void write_packet_trace(std::ostream& os, std::span<const PacketRecord> packets) {
    os << "flow,created_cycle,ejected_cycle,latency_cycles,hops\n";
    for (const PacketRecord& p : packets) {
        os << p.flow << ',' << p.created_cycle << ',';
        if (p.completed)
            os << p.ejected_cycle << ',' << (p.ejected_cycle - p.created_cycle);
        else
            os << ',';
        os << ',' << p.route.size() << '\n';
    }
    if (!os)
        throw std::runtime_error("sim: packet trace write failed (stream error)");
}

void write_packet_trace(const std::string& path, std::span<const PacketRecord> packets) {
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("sim: cannot open packet trace file '" + path + "'");
    write_packet_trace(os, packets);
    os.flush();
    if (!os)
        throw std::runtime_error("sim: packet trace write to '" + path + "' failed");
}

std::vector<FlowSpec> make_split_flows(const noc::Topology& topo,
                                       const std::vector<noc::Commodity>& commodities,
                                       const std::vector<std::vector<double>>& mcf_flows) {
    if (commodities.size() != mcf_flows.size())
        throw std::invalid_argument("make_split_flows: size mismatch");
    std::vector<FlowSpec> flows;
    flows.reserve(commodities.size());
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        FlowSpec flow;
        flow.commodity = commodities[k];
        flow.paths = lp::decompose_into_paths(topo, commodities[k], mcf_flows[k]);
        validate_flow_spec(topo, flow);
        flows.push_back(std::move(flow));
    }
    return flows;
}

} // namespace nocmap::sim
