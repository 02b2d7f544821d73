#include "sim/router.hpp"

#include <stdexcept>

namespace nocmap::sim {

Router::Router(const noc::Topology& topo, noc::TileId tile, std::size_t buffer_depth,
               std::size_t local_queues)
    : tile_(tile), local_queues_(std::max<std::size_t>(1, local_queues)) {
    for (const noc::LinkId l : topo.in_links(tile)) in_links_.push_back(l);
    for (const noc::LinkId l : topo.out_links(tile)) out_links_.push_back(l);

    inputs_.resize(in_links_.size() + local_queues_);
    for (std::size_t i = 0; i < local_queues_; ++i)
        inputs_[i].capacity = 0; // NI source queues: unbounded
    for (std::size_t i = local_queues_; i < inputs_.size(); ++i)
        inputs_[i].capacity = buffer_depth;
    outputs_.resize(out_links_.size());
}

PortIndex Router::port_of_in_link(noc::LinkId l) const {
    for (std::size_t i = 0; i < in_links_.size(); ++i)
        if (in_links_[i] == l) return static_cast<PortIndex>(i + local_queues_);
    throw std::invalid_argument("Router: link does not enter this router");
}

std::size_t Router::buffered_flits() const {
    std::size_t total = 0;
    for (const InputBuffer& buffer : inputs_) total += buffer.fifo.size();
    return total;
}

} // namespace nocmap::sim
