#pragma once
// Seeded random MCF instances shared by the differential tests: small
// fabrics of every kind, commodities that often share endpoints, and four
// capacity regimes from ample to overloaded.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "noc/commodity.hpp"
#include "noc/topology.hpp"
#include "util/rng.hpp"

namespace nocmap::lp {

enum class Capacity { Ample, Moderate, Tight, Overloaded };

struct Fabric {
    const char* name;
    noc::Topology (*make)(double capacity);
};

inline const Fabric kFabrics[] = {
    {"mesh4x4", [](double c) { return noc::Topology::mesh(4, 4, c); }},
    {"torus4x4", [](double c) { return noc::Topology::torus(4, 4, c); }},
    {"ring8", [](double c) { return noc::Topology::ring(8, c); }},
    {"hypercube4", [](double c) { return noc::Topology::hypercube(4, c); }},
};

/// Random commodities; about a third reuse an earlier commodity's source,
/// destination or both, so several commodities share endpoints.
inline std::vector<noc::Commodity> random_commodities(std::size_t tiles, std::size_t count,
                                                      util::Rng& rng) {
    std::vector<noc::Commodity> commodities;
    for (std::size_t k = 0; k < count; ++k) {
        noc::Commodity c;
        c.id = static_cast<std::int32_t>(k);
        c.src_core = c.id;
        c.dst_core = c.id + 100;
        c.value = 10.0 + static_cast<double>(rng.next_below(91));
        c.src_tile = static_cast<noc::TileId>(rng.next_below(tiles));
        c.dst_tile = static_cast<noc::TileId>(rng.next_below(tiles));
        if (k > 0 && rng.next_below(3) == 0) {
            const noc::Commodity& earlier = commodities[rng.next_below(k)];
            const auto share = rng.next_below(3);
            if (share != 1) c.src_tile = earlier.src_tile;
            if (share != 0) c.dst_tile = earlier.dst_tile;
        }
        while (c.dst_tile == c.src_tile)
            c.dst_tile = static_cast<noc::TileId>(rng.next_below(tiles));
        commodities.push_back(c);
    }
    return commodities;
}

/// Uniform link capacity for `regime`. Overloaded also raises the first
/// commodity to 5x that capacity: no fabric here has more than 4 links out
/// of a tile, so it cannot leave its source and MinFlow is infeasible.
inline double regime_capacity(Capacity regime, std::vector<noc::Commodity>& commodities) {
    double total = 0.0;
    double largest = 0.0;
    for (const auto& c : commodities) {
        total += c.value;
        largest = std::max(largest, c.value);
    }
    switch (regime) {
    case Capacity::Ample: break;
    case Capacity::Moderate: return total / 3.0;
    case Capacity::Tight: return largest * 0.6;
    case Capacity::Overloaded: {
        const double capacity = largest * 0.6;
        commodities.front().value = 5.0 * capacity;
        return capacity;
    }
    }
    return 1e5;
}

} // namespace nocmap::lp
