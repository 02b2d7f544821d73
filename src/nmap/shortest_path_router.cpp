#include "nmap/shortest_path_router.hpp"

#include <algorithm>

#include "nmap/result.hpp"
#include "noc/min_path.hpp"

namespace nocmap::nmap {

SinglePathRouting route_single_min_paths(const noc::EvalContext& ctx,
                                         const std::vector<noc::Commodity>& commodities) {
    const noc::Topology& fabric = ctx.topology();
    SinglePathRouting result;
    result.routes.assign(commodities.size(), {});
    result.loads.assign(fabric.link_count(), 0.0);

    // Route in decreasing-value order (paper: "sort commodities in D with
    // decreasing comm costs"); remember original slots.
    noc::MinPathScratch scratch;
    for (const std::size_t slot : noc::routing_order(commodities)) {
        const noc::Commodity& c = commodities[slot];
        noc::Route route = noc::least_congested_min_path(
            ctx, c.src_tile, c.dst_tile,
            [&](noc::LinkId l) { return result.loads[static_cast<std::size_t>(l)]; },
            scratch);
        for (const noc::LinkId l : route)
            result.loads[static_cast<std::size_t>(l)] += c.value;
        result.routes[slot] = std::move(route);
    }

    result.max_load = noc::max_load(result.loads);
    result.feasible = noc::satisfies_bandwidth(fabric, result.loads);
    result.cost = result.feasible ? noc::communication_cost(ctx, commodities) : kMaxValue;
    return result;
}

SinglePathRouting evaluate_mapping(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                                   const noc::Mapping& mapping) {
    return route_single_min_paths(ctx, noc::build_commodities(graph, mapping));
}

MappingResult scored_result(const graph::CoreGraph& graph, const noc::EvalContext& ctx,
                            noc::Mapping mapping, std::size_t evaluations) {
    SinglePathRouting routed = evaluate_mapping(graph, ctx, mapping);
    MappingResult result;
    result.mapping = std::move(mapping);
    result.comm_cost = routed.cost;
    result.feasible = routed.feasible;
    result.loads = std::move(routed.loads);
    result.evaluations = evaluations;
    return result;
}

} // namespace nocmap::nmap
