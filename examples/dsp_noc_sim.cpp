// Full design flow for the paper's DSP filter (Section 7.2): map with NMAP,
// generate the NoC netlist, and run the cycle-accurate wormhole simulation
// under both routing regimes.
//
//   $ ./dsp_noc_sim [link_GBps]      (default 1.4)

#include <cstdlib>
#include <iostream>

#include "apps/dsp_filter.hpp"
#include "lp/mcf.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "sim/netlist.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
    using namespace nocmap;

    double link_gbps = 1.4;
    if (argc > 1) link_gbps = std::atof(argv[1]);
    if (link_gbps <= 0.0) {
        std::cerr << "usage: dsp_noc_sim [link_GBps > 0]\n";
        return 1;
    }

    const auto dsp = apps::make_dsp_filter();
    auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);

    // Map and route.
    const auto mapped = nmap::map_with_single_path(dsp, ctx);
    const auto commodities = noc::build_commodities(dsp, mapped.mapping);
    const auto routed = nmap::route_single_min_paths(ctx, commodities);
    const auto single_flows = sim::make_single_path_flows(topo, commodities, routed.routes);

    lp::McfOptions mcf;
    mcf.objective = lp::McfObjective::MinMaxLoad;
    const auto split = lp::solve_mcf(topo, commodities, mcf);
    const auto split_flows = sim::make_split_flows(topo, commodities, split.flows);

    std::cout << "DSP mapping (3x2 mesh):\n" << mapped.mapping.to_string(dsp, topo);
    std::cout << "single-path peak link load: " << routed.max_load << " MB/s\n";
    std::cout << "split-traffic peak link load: " << split.objective << " MB/s\n\n";

    // Netlist (xpipesCompiler substitute).
    sim::NetlistConfig ncfg;
    ncfg.design_name = "dsp_filter_noc";
    std::cout << sim::netlist_to_string(dsp, topo, mapped.mapping, split_flows, ncfg)
              << '\n';

    // Cycle-accurate simulation at the requested link bandwidth.
    topo.set_uniform_capacity(link_gbps * 1000.0);
    sim::SimConfig cfg;
    cfg.warmup_cycles = 20'000;
    cfg.measure_cycles = 100'000;
    cfg.drain_cycles = 100'000;

    sim::Simulator minp(topo, single_flows, cfg);
    const auto minp_stats = minp.run();
    std::cout << "Minp  @ " << link_gbps << " GB/s: " << minp_stats.summary() << '\n';

    sim::Simulator splitter(topo, split_flows, cfg);
    const auto split_stats = splitter.run();
    std::cout << "Split @ " << link_gbps << " GB/s: " << split_stats.summary() << '\n';

    if (!minp_stats.stalled && !split_stats.stalled)
        std::cout << "latency ratio minp/split: "
                  << minp_stats.packet_latency.mean() / split_stats.packet_latency.mean()
                  << "x\n";
    return 0;
}
