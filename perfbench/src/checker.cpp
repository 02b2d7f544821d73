#include "checker.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

namespace perfbench::check {

namespace {

bool close_rel(double a, double b, double rel) {
    return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string check_placement(const Instance& instance, const Answer& answer) {
    if (answer.tile_of_core.size() != instance.cores)
        return "placement covers " + std::to_string(answer.tile_of_core.size()) + " of " +
               std::to_string(instance.cores) + " cores";
    std::vector<char> used(instance.fabric.tiles, 0);
    for (std::size_t core = 0; core < answer.tile_of_core.size(); ++core) {
        const int tile = answer.tile_of_core[core];
        if (tile < 0 || static_cast<std::size_t>(tile) >= instance.fabric.tiles)
            return "core " + std::to_string(core) + " is on no tile";
        if (used[static_cast<std::size_t>(tile)])
            return "tile " + std::to_string(tile) + " holds two cores";
        used[static_cast<std::size_t>(tile)] = 1;
    }
    return "";
}

std::string check_loads(const Instance& instance, const std::vector<double>& loads) {
    if (loads.empty()) return "";
    if (loads.size() != instance.fabric.links.size()) return "loads do not cover every link";
    for (std::size_t l = 0; l < loads.size(); ++l) {
        const double cap = instance.fabric.links[l].capacity;
        if (loads[l] > cap * (1.0 + 1e-9) + 1e-9)
            return "link " + std::to_string(l) + " load exceeds its capacity";
    }
    return "";
}

std::string check_flows(const Instance& instance, const Answer& answer) {
    const Fabric& fabric = instance.fabric;
    if (answer.flows.size() != instance.demands.size()) return "flows do not cover every demand";
    std::vector<double> summed(fabric.links.size(), 0.0);
    double total = 0.0;
    std::vector<double> net(fabric.tiles);
    for (std::size_t k = 0; k < instance.demands.size(); ++k) {
        const Demand& d = instance.demands[k];
        const std::vector<double>& flow = answer.flows[k];
        if (flow.size() != fabric.links.size())
            return "flow vector of demand " + std::to_string(k) + " has the wrong length";
        std::fill(net.begin(), net.end(), 0.0);
        for (std::size_t l = 0; l < flow.size(); ++l) {
            if (flow[l] < -1e-9 * std::max(1.0, d.bandwidth))
                return "negative flow on link " + std::to_string(l);
            net[static_cast<std::size_t>(fabric.links[l].src)] += flow[l];
            net[static_cast<std::size_t>(fabric.links[l].dst)] -= flow[l];
            summed[l] += flow[l];
            total += flow[l];
        }
        const int src = answer.tile_of_core[static_cast<std::size_t>(d.src_core)];
        const int dst = answer.tile_of_core[static_cast<std::size_t>(d.dst_core)];
        for (std::size_t t = 0; t < fabric.tiles; ++t) {
            const double want = static_cast<int>(t) == src   ? d.bandwidth
                                : static_cast<int>(t) == dst ? -d.bandwidth
                                                             : 0.0;
            if (std::fabs(net[t] - want) > 1e-7 * std::max(1.0, d.bandwidth)) {
                std::ostringstream out;
                out << "demand " << k << " is not conserved at tile " << t << " (net " << net[t]
                    << ", expected " << want << ")";
                return out.str();
            }
        }
    }
    if (!answer.loads.empty()) {
        for (std::size_t l = 0; l < summed.size(); ++l)
            if (!close_rel(summed[l], answer.loads[l], 1e-9))
                return "link " + std::to_string(l) + " load differs from its summed flows";
    }
    if (!close_rel(total, answer.comm_cost, 1e-9)) {
        std::ostringstream out;
        out.precision(12);
        out << "total flow " << total << " differs from comm_cost " << answer.comm_cost;
        return out.str();
    }
    return "";
}

} // namespace

std::vector<std::vector<int>> hop_distances(const Fabric& fabric) {
    std::vector<std::vector<int>> out_adj(fabric.tiles);
    for (const Link& link : fabric.links)
        out_adj[static_cast<std::size_t>(link.src)].push_back(link.dst);
    std::vector<std::vector<int>> hops(fabric.tiles, std::vector<int>(fabric.tiles, -1));
    for (std::size_t s = 0; s < fabric.tiles; ++s) {
        std::deque<int> queue{static_cast<int>(s)};
        hops[s][s] = 0;
        while (!queue.empty()) {
            const int u = queue.front();
            queue.pop_front();
            for (const int v : out_adj[static_cast<std::size_t>(u)]) {
                if (hops[s][static_cast<std::size_t>(v)] >= 0) continue;
                hops[s][static_cast<std::size_t>(v)] = hops[s][static_cast<std::size_t>(u)] + 1;
                queue.push_back(v);
            }
        }
    }
    return hops;
}

double shortest_path_cost(const Instance& instance, const std::vector<int>& tile_of_core,
                          const std::vector<std::vector<int>>& hops) {
    double cost = 0.0;
    for (const Demand& d : instance.demands) {
        const int a = tile_of_core[static_cast<std::size_t>(d.src_core)];
        const int b = tile_of_core[static_cast<std::size_t>(d.dst_core)];
        cost += d.bandwidth * hops[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
    }
    return cost;
}

std::string verify(const Instance& instance, const Answer& answer, Routing routing,
                   const std::vector<std::vector<int>>& hops) {
    if (std::string why = check_placement(instance, answer); !why.empty()) return why;
    if (!answer.feasible) return "reported infeasible";
    if (!std::isfinite(answer.comm_cost)) return "comm_cost is not finite";
    if (std::string why = check_loads(instance, answer.loads); !why.empty()) return why;

    const double bound = shortest_path_cost(instance, answer.tile_of_core, hops);
    std::ostringstream out;
    out.precision(12);
    switch (routing) {
    case Routing::SinglePath:
        if (!close_rel(bound, answer.comm_cost, 1e-9)) {
            out << "comm_cost " << answer.comm_cost << " but the placement's hop cost is "
                << bound;
            return out.str();
        }
        return "";
    case Routing::SplitMinPaths:
    case Routing::SplitAllPaths:
        if (std::string why = check_flows(instance, answer); !why.empty()) return why;
        if (answer.comm_cost < bound * (1.0 - 1e-9)) {
            out << "comm_cost " << answer.comm_cost << " beats the shortest-path bound " << bound;
            return out.str();
        }
        if (routing == Routing::SplitMinPaths && !close_rel(bound, answer.comm_cost, 1e-9)) {
            out << "minimum-path split cost " << answer.comm_cost
                << " differs from the placement's hop cost " << bound;
            return out.str();
        }
        return "";
    }
    return "unknown routing";
}

} // namespace perfbench::check
