#pragma once
// Input-buffered wormhole router (×pipes-style switch).
//
// Each router has one input buffer per incoming link plus a local injection
// queue, and one output port per outgoing link plus the local ejection
// port. Wormhole flow control: a head flit allocates its output port, body
// flits follow on the same port, the tail flit releases it. Arbitration is
// round-robin among requesting inputs. Output ports serialize at the link's
// bandwidth via a token accumulator (fractional flits per cycle), and
// downstream buffer space is reserved before a flit leaves (credit-based
// backpressure).

#include <cstdint>
#include <deque>
#include <vector>

#include "noc/topology.hpp"
#include "sim/packet.hpp"

namespace nocmap::sim {

/// Input-port identifier inside one router: ports 0..local_queues-1 are the
/// NI's per-connection injection queues (×pipes NIs buffer each connection
/// separately, so flows of one core do not head-of-line block each other),
/// followed by the router's incoming links in topo.in_links() order.
using PortIndex = std::int32_t;
constexpr PortIndex kLocalPort = 0;
constexpr std::int32_t kNoOwner = -1;

class Router {
public:
    Router(const noc::Topology& topo, noc::TileId tile, std::size_t buffer_depth,
           std::size_t local_queues = 1);

    noc::TileId tile() const noexcept { return tile_; }
    std::size_t input_count() const noexcept { return inputs_.size(); }

    /// Per-input FIFO. The local port (index 0) is the NI's source queue and
    /// is unbounded; link ports are bounded by the configured depth.
    struct InputBuffer {
        std::deque<Flit> fifo;
        std::size_t reserved = 0; ///< in-flight flits already granted a slot
        std::size_t capacity = 0; ///< 0 = unbounded (local port)

        bool has_space() const {
            return capacity == 0 || fifo.size() + reserved < capacity;
        }
    };

    /// Per-output wormhole/arbitration/serialization state. ×pipes switches
    /// are output-buffered: the crossbar moves one flit per cycle from the
    /// owning input into `buffer`, and the link drains `buffer` at its
    /// serialization rate. This decouples an input's next packet from the
    /// previous packet's (slow) link — the mechanism that lets split
    /// traffic overlap a burst across several paths.
    struct OutputPort {
        std::int32_t owner = kNoOwner; ///< input currently holding the port
        std::size_t rr_next = 0;       ///< round-robin pointer
        double tokens = 0.0;           ///< link serialization accumulator
        double rate = 0.0;             ///< flits per cycle on the link
        std::uint64_t flits_sent = 0;  ///< utilization statistics
        std::deque<Flit> buffer;       ///< output queue toward the link
        std::size_t buffer_capacity = 0; ///< 0 = unbounded

        bool has_space() const {
            return buffer_capacity == 0 || buffer.size() < buffer_capacity;
        }
    };

    InputBuffer& input(PortIndex port) { return inputs_[static_cast<std::size_t>(port)]; }
    const InputBuffer& input(PortIndex port) const {
        return inputs_[static_cast<std::size_t>(port)];
    }
    std::size_t local_queue_count() const noexcept { return local_queues_; }
    /// Input port fed by incoming link `l`; throws if `l` does not end here.
    PortIndex port_of_in_link(noc::LinkId l) const;

    /// Output state of the i-th outgoing link, out_links()[i].
    OutputPort& output(std::size_t i) { return outputs_[i]; }
    const OutputPort& output(std::size_t i) const { return outputs_[i]; }
    OutputPort& ejection_port() { return ejection_; }

    /// All incoming link ids, aligned with ports 1..n.
    const std::vector<noc::LinkId>& in_links() const noexcept { return in_links_; }
    /// All outgoing link ids in topo.out_links() order, aligned with output(i).
    const std::vector<noc::LinkId>& out_links() const noexcept { return out_links_; }

    /// Total flits currently buffered (all inputs).
    std::size_t buffered_flits() const;

private:
    noc::TileId tile_;
    std::size_t local_queues_ = 1;
    std::vector<noc::LinkId> in_links_;
    std::vector<noc::LinkId> out_links_;
    std::vector<InputBuffer> inputs_;    ///< [0..local)=NI queues, then in_links_
    std::vector<OutputPort> outputs_;    ///< aligned with out_links_
    OutputPort ejection_;
};

} // namespace nocmap::sim
