// Dense Frank–Wolfe MCF: the oracle for the production kernel.
//
// The Frank–Wolfe iteration of lp/mcf_approx in its plain form: every
// iteration runs one Dijkstra per commodity over a freshly built adjacency,
// blends every (commodity, link) entry and rebuilds the loads from the full
// flow matrix. The kernel skips searches and entries that cannot change a
// bit; it must reproduce this loop's flows, loads, objective and verdict
// exactly.

#include "fw_mcf_oracle.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace nocmap::lp {

namespace {

using Adjacency = std::vector<std::vector<std::pair<noc::LinkId, noc::TileId>>>;

Adjacency build_adjacency(const noc::Topology& topo, const std::vector<noc::LinkId>& links) {
    Adjacency out(topo.tile_count());
    for (const noc::LinkId l : links) {
        const noc::Link& link = topo.link(l);
        out[static_cast<std::size_t>(link.src)].emplace_back(l, link.dst);
    }
    return out;
}

std::vector<noc::LinkId> all_links(const noc::Topology& topo) {
    std::vector<noc::LinkId> links(topo.link_count());
    for (std::size_t l = 0; l < links.size(); ++l) links[l] = static_cast<noc::LinkId>(l);
    return links;
}

std::vector<noc::LinkId> cheapest_path(const Adjacency& out,
                                       const std::vector<double>& link_cost,
                                       noc::TileId src, noc::TileId dst) {
    const std::size_t n = out.size();
    std::vector<double> dist(n, std::numeric_limits<double>::infinity());
    std::vector<noc::LinkId> via(n, noc::kInvalidLink);
    std::vector<noc::TileId> prev(n, noc::kInvalidTile);
    using Entry = std::pair<double, noc::TileId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[static_cast<std::size_t>(src)] = 0.0;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > dist[static_cast<std::size_t>(u)]) continue;
        if (u == dst) break;
        for (const auto& [l, v] : out[static_cast<std::size_t>(u)]) {
            const double nd = d + link_cost[static_cast<std::size_t>(l)];
            if (nd < dist[static_cast<std::size_t>(v)]) {
                dist[static_cast<std::size_t>(v)] = nd;
                via[static_cast<std::size_t>(v)] = l;
                prev[static_cast<std::size_t>(v)] = u;
                heap.emplace(nd, v);
            }
        }
    }
    if (dist[static_cast<std::size_t>(dst)] == std::numeric_limits<double>::infinity())
        return {};
    std::vector<noc::LinkId> path;
    for (noc::TileId v = dst; v != src; v = prev[static_cast<std::size_t>(v)])
        path.push_back(via[static_cast<std::size_t>(v)]);
    std::reverse(path.begin(), path.end());
    return path;
}

} // namespace

McfResult solve_mcf_fw_oracle(const noc::Topology& topo,
                              const std::vector<noc::Commodity>& commodities,
                              const McfOptions& options) {
    const std::size_t link_count = topo.link_count();
    const std::size_t K = commodities.size();
    const bool all_paths = !options.quadrant_restricted;

    Adjacency shared;
    std::vector<Adjacency> per_commodity;
    if (all_paths) {
        shared = build_adjacency(topo, all_links(topo));
    } else {
        per_commodity.reserve(K);
        for (std::size_t k = 0; k < K; ++k)
            per_commodity.push_back(
                build_adjacency(topo, allowed_links(topo, commodities[k], true)));
    }
    const auto adj_of = [&](std::size_t k) -> const Adjacency& {
        return all_paths ? shared : per_commodity[k];
    };

    McfResult result;
    result.flows.assign(K, std::vector<double>(link_count, 0.0));
    result.loads.assign(link_count, 0.0);

    std::vector<double> unit_cost(link_count, 1.0);
    for (std::size_t k = 0; k < K; ++k) {
        const noc::Commodity& c = commodities[k];
        const auto path = cheapest_path(adj_of(k), unit_cost, c.src_tile, c.dst_tile);
        if (path.empty())
            throw std::logic_error("mcf_approx: commodity has no admissible path");
        for (const noc::LinkId l : path) {
            result.flows[k][static_cast<std::size_t>(l)] += c.value;
            result.loads[static_cast<std::size_t>(l)] += c.value;
        }
    }

    const double demand = std::max(1.0, noc::total_value(commodities));
    std::vector<double> link_cost(link_count, 0.0);

    const std::size_t iterations = std::max<std::size_t>(options.approx_iterations, 2);
    for (std::size_t t = 0; t < iterations; ++t) {
        const double peak = std::max(1e-12, noc::max_load(result.loads));
        for (std::size_t l = 0; l < link_count; ++l) {
            const double load = result.loads[l];
            const double cap = topo.link(static_cast<noc::LinkId>(l)).capacity;
            double cost = 0.0;
            switch (options.objective) {
            case McfObjective::MinSlack:
                cost = std::max(0.0, load - cap) / demand + 1e-4;
                break;
            case McfObjective::MinFlow:
                cost = 1.0 + 16.0 * std::max(0.0, load - cap) / cap;
                break;
            case McfObjective::MinMaxLoad: {
                const double ratio = load / peak;
                cost = ratio * ratio * ratio * ratio * ratio * ratio * ratio + 1e-4;
                break;
            }
            }
            link_cost[l] = cost;
        }

        const double step = 2.0 / static_cast<double>(t + 3);
        for (std::size_t k = 0; k < K; ++k) {
            const auto path = cheapest_path(adj_of(k), link_cost, commodities[k].src_tile,
                                            commodities[k].dst_tile);
            for (double& f : result.flows[k]) f *= (1.0 - step);
            for (const noc::LinkId l : path)
                result.flows[k][static_cast<std::size_t>(l)] +=
                    step * commodities[k].value;
        }
        std::fill(result.loads.begin(), result.loads.end(), 0.0);
        for (std::size_t k = 0; k < K; ++k)
            for (std::size_t l = 0; l < link_count; ++l)
                result.loads[l] += result.flows[k][l];
    }

    result.solved = true;
    result.status = LpStatus::Optimal;
    switch (options.objective) {
    case McfObjective::MinSlack:
        result.objective = noc::total_violation(topo, result.loads);
        result.feasible = result.objective <= 1e-6 * demand;
        break;
    case McfObjective::MinFlow:
        result.objective = noc::total_flow(result.loads);
        result.feasible = noc::satisfies_bandwidth(topo, result.loads, 1e-6 * demand);
        break;
    case McfObjective::MinMaxLoad:
        result.objective = noc::max_load(result.loads);
        result.feasible = true;
        break;
    }
    return result;
}

} // namespace nocmap::lp
