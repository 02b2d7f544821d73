#pragma once
// Network interface (NI): packetization and multipath distribution.
//
// Each tile's NI owns the traffic generators of the flows sourced there.
// When a flow emits a packet, the NI picks one of the flow's routes by
// smoothed weighted round-robin (deterministic, proportional to the MCF
// split weights) and enqueues the packet's flits into the router's local
// source queue.

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace nocmap::sim {

class NetworkInterface {
public:
    /// `flow_ids` index into the simulator's flow table; `specs[i]` and
    /// `generators[i]` describe flow_ids[i].
    NetworkInterface(noc::TileId tile, std::vector<FlowId> flow_ids,
                     std::vector<const FlowSpec*> specs,
                     std::vector<BurstyGenerator> generators);

    noc::TileId tile() const noexcept { return tile_; }

    struct Emission {
        FlowId flow = -1;
        std::size_t path_index = 0;
    };

    /// Advances the generators one cycle; returns the packets emitted now.
    std::vector<Emission> tick(std::uint64_t cycle);

    std::size_t flow_count() const noexcept { return flow_ids_.size(); }

    /// Earliest next_emit_time() over this NI's generators (+inf if none).
    double next_emission_time() const noexcept;

private:
    std::size_t choose_path(std::size_t flow_slot);

    noc::TileId tile_;
    std::vector<FlowId> flow_ids_;
    std::vector<const FlowSpec*> specs_;
    std::vector<BurstyGenerator> generators_;
    /// Smoothed weighted round-robin credit per flow per path.
    std::vector<std::vector<double>> wrr_credit_;
};

} // namespace nocmap::sim
