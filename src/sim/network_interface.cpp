#include "sim/network_interface.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace nocmap::sim {

NetworkInterface::NetworkInterface(noc::TileId tile, std::vector<FlowId> flow_ids,
                                   std::vector<const FlowSpec*> specs,
                                   std::vector<BurstyGenerator> generators)
    : tile_(tile), flow_ids_(std::move(flow_ids)), specs_(std::move(specs)),
      generators_(std::move(generators)) {
    if (flow_ids_.size() != specs_.size() || flow_ids_.size() != generators_.size())
        throw std::invalid_argument("NetworkInterface: table size mismatch");
    wrr_credit_.resize(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i)
        wrr_credit_[i].assign(specs_[i]->paths.size(), 0.0);
}

std::size_t NetworkInterface::choose_path(std::size_t flow_slot) {
    // Smoothed weighted round-robin: add each path's weight to its credit,
    // pick the largest credit, subtract 1 from the winner. Deterministic
    // and converges to the exact split ratios.
    auto& credit = wrr_credit_[flow_slot];
    const auto& paths = specs_[flow_slot]->paths;
    std::size_t winner = 0;
    double best = -1.0;
    for (std::size_t p = 0; p < paths.size(); ++p) {
        credit[p] += paths[p].second;
        if (credit[p] > best) {
            best = credit[p];
            winner = p;
        }
    }
    credit[winner] -= 1.0;
    return winner;
}

std::vector<NetworkInterface::Emission> NetworkInterface::tick(std::uint64_t cycle) {
    std::vector<Emission> emitted;
    for (std::size_t i = 0; i < generators_.size(); ++i) {
        if (!generators_[i].emits_at(cycle)) continue;
        Emission e;
        e.flow = flow_ids_[i];
        e.path_index = choose_path(i);
        emitted.push_back(e);
    }
    return emitted;
}

double NetworkInterface::next_emission_time() const noexcept {
    double earliest = std::numeric_limits<double>::infinity();
    for (const BurstyGenerator& generator : generators_)
        earliest = std::min(earliest, generator.next_emit_time());
    return earliest;
}

} // namespace nocmap::sim
