#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "apps/registry.hpp"
#include "engine/mapper.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/split.hpp"
#include "noc/commodity.hpp"
#include "noc/evaluation.hpp"
#include "util/csv.hpp"

namespace nocmap::bench {

noc::Topology ample_mesh_for(const graph::CoreGraph& graph) {
    return noc::Topology::smallest_mesh_for(graph.node_count(), kAmpleCapacity);
}

double mapping_cost(const graph::CoreGraph& graph, const noc::Topology& topo,
                    const noc::Mapping& mapping) {
    return noc::communication_cost(topo, noc::build_commodities(graph, mapping));
}

double dimension_ordered_bandwidth(const graph::CoreGraph& graph, const noc::Topology& topo,
                                   const noc::Mapping& mapping) {
    return noc::max_load(noc::xy_loads(topo, noc::build_commodities(graph, mapping)));
}

double min_path_bandwidth(const graph::CoreGraph& graph, const noc::Topology& topo,
                          const noc::Mapping& mapping) {
    const auto routed = nmap::route_single_min_paths(noc::EvalContext::borrow(topo),
                                                     noc::build_commodities(graph, mapping));
    return routed.max_load;
}

double split_bandwidth(const graph::CoreGraph& graph, const noc::Topology& topo,
                       const noc::Mapping& mapping, bool quadrant) {
    lp::McfOptions opt;
    opt.objective = lp::McfObjective::MinMaxLoad;
    opt.quadrant_restricted = quadrant;
    const auto result =
        lp::solve_mcf(topo, noc::build_commodities(graph, mapping), opt);
    return result.objective;
}

double best_split_bandwidth(const graph::CoreGraph& graph, const noc::Topology& topo,
                            const noc::Mapping& nmap_mapping, bool quadrant) {
    const double rerouted = split_bandwidth(graph, topo, nmap_mapping, quadrant);
    nmap::SplitOptions opt;
    opt.mode = quadrant ? nmap::SplitMode::MinPaths : nmap::SplitMode::AllPaths;
    opt.optimize_bandwidth = true;
    const auto searched = nmap::map_with_splitting(graph, noc::EvalContext::borrow(topo), opt);
    return std::min(rerouted, noc::max_load(searched.loads));
}

std::vector<Fig3Row> run_fig3_costs() {
    // The four algorithms of Figure 3 resolved through engine::registry()
    // (the registry's pbb entry uses the paper's capped-queue options).
    std::vector<Fig3Row> rows;
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const noc::EvalContext ctx(ample_mesh_for(g));
        Fig3Row row;
        row.app = info.name;
        row.pmap = engine::map_by_name("pmap", g, ctx).comm_cost;
        row.gmap = engine::map_by_name("gmap", g, ctx).comm_cost;
        row.pbb = engine::map_by_name("pbb", g, ctx).comm_cost;
        row.nmap = engine::map_by_name("nmap", g, ctx).comm_cost;
        rows.push_back(row);
    }
    return rows;
}

void try_write_csv(const std::string& path, const std::vector<std::string>& header,
                   const std::vector<std::vector<std::string>>& rows) {
    try {
        util::write_csv_file(path, header, rows);
        std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "[bench] CSV not written: %s\n", e.what());
    }
}

} // namespace nocmap::bench
