#include "lp/mcf_approx.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace nocmap::lp {

namespace {

using Slot = ApproxWorkspace::Slot;

/// Binds the workspace to `topo`: unless it already holds the routing graph
/// of a fabric with exactly these tiles and links (capacities play no part
/// in it), rebuilds the graph and drops every slot.
void bind(ApproxWorkspace& w, const noc::Topology& topo) {
    const std::size_t n = topo.tile_count();
    const auto links = topo.links();
    bool same = w.first.size() == n + 1 && w.link_ends.size() == links.size();
    for (std::size_t l = 0; same && l < links.size(); ++l)
        same = w.link_ends[l] == std::pair{links[l].src, links[l].dst};
    if (same) return;
    w.link_ends.clear();
    w.first.assign(n + 1, 0);
    for (const noc::Link& link : links) {
        w.link_ends.emplace_back(link.src, link.dst);
        ++w.first[static_cast<std::size_t>(link.src) + 1];
    }
    for (std::size_t u = 0; u < n; ++u) w.first[u + 1] += w.first[u];
    std::vector<std::uint32_t> cursor(w.first.begin(), w.first.end() - 1);
    w.arcs.resize(links.size());
    for (std::size_t l = 0; l < links.size(); ++l)
        w.arcs[cursor[static_cast<std::size_t>(links[l].src)]++] = {
            static_cast<noc::LinkId>(l), links[l].dst};
    w.slots.clear();
}

/// Dijkstra with per-link costs; writes the link sequence of a cheapest
/// src->dst path to `path` (empty if unreachable). Only tiles with
/// mask[t] != 0 are entered (mask == nullptr: all tiles). Each tile's arcs
/// are relaxed in link order and the heap is a binary min-heap over
/// (distance, tile) driven exactly like a std::priority_queue, so ties
/// break the same way on every call.
void cheapest_path(ApproxWorkspace& w, const char* mask, const std::vector<double>& link_cost,
                   noc::TileId src, noc::TileId dst, std::vector<noc::LinkId>& path) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::fill(w.dist.begin(), w.dist.end(), kInf);
    auto& heap = w.heap;
    heap.clear();
    const auto push = [&heap](double d, noc::TileId v) {
        heap.emplace_back(d, v);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    };
    w.dist[static_cast<std::size_t>(src)] = 0.0;
    push(0.0, src);
    while (!heap.empty()) {
        const auto [d, u] = heap.front();
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        heap.pop_back();
        if (d > w.dist[static_cast<std::size_t>(u)]) continue;
        if (u == dst) break;
        const std::uint32_t end = w.first[static_cast<std::size_t>(u) + 1];
        for (std::uint32_t i = w.first[static_cast<std::size_t>(u)]; i < end; ++i) {
            const auto [l, v] = w.arcs[i];
            if (mask != nullptr && mask[static_cast<std::size_t>(v)] == 0) continue;
            const double nd = d + link_cost[static_cast<std::size_t>(l)];
            if (nd < w.dist[static_cast<std::size_t>(v)]) {
                w.dist[static_cast<std::size_t>(v)] = nd;
                w.via[static_cast<std::size_t>(v)] = l;
                w.prev[static_cast<std::size_t>(v)] = u;
                push(nd, v);
            }
        }
    }
    path.clear();
    if (w.dist[static_cast<std::size_t>(dst)] == kInf) return;
    for (noc::TileId v = dst; v != src; v = w.prev[static_cast<std::size_t>(v)])
        path.push_back(w.via[static_cast<std::size_t>(v)]);
    std::reverse(path.begin(), path.end());
}

/// The kernel. `in_quadrant(t, a, b)` is the topology's or the context's
/// quadrant membership test (identical truth tables).
template <typename InQuadrant>
McfResult solve(const noc::Topology& topo, const std::vector<noc::Commodity>& commodities,
                const McfOptions& options, InQuadrant&& in_quadrant, ApproxWorkspace& w) {
    const std::size_t link_count = topo.link_count();
    const std::size_t n = topo.tile_count();
    const std::size_t K = commodities.size();
    const bool quadrant = options.quadrant_restricted;

    // Quadrant mode routes commodity k over the links with both ends in its
    // quadrant. Dijkstra only leaves tiles it entered, so masking the tile
    // an arc enters yields exactly those links, in the same order.
    bind(w, topo);
    w.slots.resize(K);
    if (quadrant) {
        for (std::size_t k = 0; k < K; ++k) {
            const noc::Commodity& c = commodities[k];
            Slot& s = w.slots[k];
            if (s.mask_src == c.src_tile && s.mask_dst == c.dst_tile) continue;
            s.mask.resize(n);
            for (std::size_t t = 0; t < n; ++t)
                s.mask[t] = in_quadrant(static_cast<noc::TileId>(t), c.src_tile, c.dst_tile);
            s.mask_src = c.src_tile;
            s.mask_dst = c.dst_tile;
        }
    }
    const auto mask_of = [&](std::size_t k) {
        return quadrant ? w.slots[k].mask.data() : nullptr;
    };
    w.dist.resize(n);
    w.via.resize(n);
    w.prev.resize(n);
    w.mark.assign(link_count, 0);

    McfResult result;
    result.flows.assign(K, std::vector<double>(link_count, 0.0));
    result.loads.assign(link_count, 0.0);

    // Initial assignment: hop-count shortest paths, i.e. cheapest paths
    // under unit costs. A slot keeps its path from the previous solve when
    // that was computed under unit costs too, in the same routing mode,
    // between the same endpoints. Each commodity's support starts as its
    // path.
    w.cost.assign(link_count, 1.0);
    const bool unit_paths = w.quadrant_paths == quadrant &&
                            w.path_cost.size() == link_count &&
                            std::memcmp(w.cost.data(), w.path_cost.data(),
                                        link_count * sizeof(double)) == 0;
    if (!unit_paths) {
        for (Slot& s : w.slots) s.path_src = s.path_dst = noc::kInvalidTile;
        w.path_cost.swap(w.cost);
        w.quadrant_paths = quadrant;
    }
    for (std::size_t k = 0; k < K; ++k) {
        const noc::Commodity& c = commodities[k];
        Slot& s = w.slots[k];
        if (s.path_src != c.src_tile || s.path_dst != c.dst_tile) {
            s.path_src = s.path_dst = noc::kInvalidTile;
            cheapest_path(w, mask_of(k), w.path_cost, c.src_tile, c.dst_tile, s.path);
            ++result.path_searches;
            if (s.path.empty())
                throw std::logic_error("mcf_approx: commodity has no admissible path");
            s.path_src = c.src_tile;
            s.path_dst = c.dst_tile;
        }
        for (const noc::LinkId l : s.path) {
            result.flows[k][static_cast<std::size_t>(l)] += c.value;
            result.loads[static_cast<std::size_t>(l)] += c.value;
        }
        s.support.assign(s.path.begin(), s.path.end());
    }

    const double demand = std::max(1.0, noc::total_value(commodities));
    const auto links = topo.links();
    w.cost.resize(link_count);
    std::size_t stamp = 0;

    const std::size_t iterations = std::max<std::size_t>(options.approx_iterations, 2);
    for (std::size_t t = 0; t < iterations; ++t) {
        // Derivative of the objective's potential at the current loads.
        const double peak = options.objective == McfObjective::MinMaxLoad
                                ? std::max(1e-12, noc::max_load(result.loads))
                                : 0.0;
        for (std::size_t l = 0; l < link_count; ++l) {
            const double load = result.loads[l];
            const double cap = links[l].capacity;
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
                // d/dload of (load/peak)^8, scaled; +epsilon prefers short paths.
                cost = ratio * ratio * ratio * ratio * ratio * ratio * ratio + 1e-4;
                break;
            }
            }
            w.cost[l] = cost;
        }
        // Under bitwise-equal costs every commodity's latest path is still
        // its cheapest path, so the searches are skipped.
        const bool recompute = std::memcmp(w.cost.data(), w.path_cost.data(),
                                           link_count * sizeof(double)) != 0;
        if (recompute) w.path_cost.swap(w.cost);

        const double step = 2.0 / static_cast<double>(t + 3);
        for (std::size_t k = 0; k < K; ++k) {
            Slot& s = w.slots[k];
            if (recompute) {
                cheapest_path(w, mask_of(k), w.path_cost, commodities[k].src_tile,
                              commodities[k].dst_tile, s.path);
                ++result.path_searches;
            }
            // Blend this commodity's flow toward the all-or-nothing path.
            // Links off the support hold 0, and 0 * (1 - step) == 0.
            auto& flow = result.flows[k];
            ++stamp;
            for (const noc::LinkId l : s.support) {
                flow[static_cast<std::size_t>(l)] *= (1.0 - step);
                w.mark[static_cast<std::size_t>(l)] = stamp;
            }
            for (const noc::LinkId l : s.path) {
                flow[static_cast<std::size_t>(l)] += step * commodities[k].value;
                if (w.mark[static_cast<std::size_t>(l)] != stamp) {
                    w.mark[static_cast<std::size_t>(l)] = stamp;
                    s.support.push_back(l);
                }
            }
        }
        // Recompute aggregate loads from scratch (avoids drift). Each link
        // still sums its commodities in k order; the skipped terms are the
        // zeros off each support, and x + 0.0 == x.
        std::fill(result.loads.begin(), result.loads.end(), 0.0);
        for (std::size_t k = 0; k < K; ++k)
            for (const noc::LinkId l : w.slots[k].support)
                result.loads[static_cast<std::size_t>(l)] +=
                    result.flows[k][static_cast<std::size_t>(l)];
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
        result.feasible = noc::satisfies_bandwidth(topo, result.loads,
                                                   1e-6 * demand);
        break;
    case McfObjective::MinMaxLoad:
        result.objective = noc::max_load(result.loads);
        result.feasible = true;
        break;
    }
    return result;
}

} // namespace

McfResult solve_mcf_approx(const noc::Topology& topo,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options) {
    ApproxWorkspace workspace;
    return solve(
        topo, commodities, options,
        [&topo](noc::TileId t, noc::TileId a, noc::TileId b) {
            return topo.in_quadrant(t, a, b);
        },
        workspace);
}

McfResult solve_mcf_approx(const noc::EvalContext& ctx,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options, ApproxWorkspace* workspace) {
    ApproxWorkspace local;
    return solve(
        ctx.topology(), commodities, options,
        [&ctx](noc::TileId t, noc::TileId a, noc::TileId b) {
            return ctx.in_quadrant(t, a, b);
        },
        workspace != nullptr ? *workspace : local);
}

} // namespace nocmap::lp
