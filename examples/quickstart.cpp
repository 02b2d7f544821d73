// Quickstart: define a small application, map it onto a mesh NoC with NMAP,
// and inspect the result.
//
//   $ ./quickstart

#include <iostream>

#include "graph/core_graph.hpp"
#include "nmap/result.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"
#include "noc/eval_context.hpp"

int main() {
    using namespace nocmap;

    // 1. Describe the application as a core graph: vertices are IP cores,
    //    directed edges carry the average bandwidth in MB/s.
    graph::CoreGraph app("camera_pipeline");
    app.add_node("sensor");
    app.add_node("denoise");
    app.add_node("tonemap");
    app.add_node("encoder");
    app.add_node("memory");
    app.add_edge("sensor", "denoise", 400);
    app.add_edge("denoise", "tonemap", 400);
    app.add_edge("tonemap", "encoder", 300);
    app.add_edge("encoder", "memory", 120);
    app.add_edge("memory", "denoise", 80);

    // 2. Pick a NoC fabric: a 3x2 mesh with 450 MB/s links. The mappers
    //    run on an evaluation context (the fabric's precomputed distance
    //    tables); a borrowed one reads the topology in place, so the
    //    capacity change below is visible through it.
    auto topo = noc::Topology::mesh(3, 2, 450.0);
    const auto ctx = noc::EvalContext::borrow(topo);

    // 3. Run NMAP with single minimum-path routing.
    const auto single = nmap::map_with_single_path(app, ctx);
    std::cout << "=== NMAP, single minimum-path routing ===\n"
              << describe(single, app, ctx) << '\n';

    // 4. If the link budget were tighter, split-traffic routing relaxes the
    //    bandwidth requirement. Drop the links to 300 MB/s:
    topo.set_uniform_capacity(300.0);
    const auto single_tight = nmap::map_with_single_path(app, ctx);
    std::cout << "=== 300 MB/s links, single-path ===\nfeasible: "
              << (single_tight.feasible ? "yes" : "no") << '\n';

    nmap::SplitOptions split_opt;
    split_opt.mode = nmap::SplitMode::AllPaths;
    const auto split = nmap::map_with_splitting(app, ctx, split_opt);
    std::cout << "=== 300 MB/s links, split-traffic (NMAPTA) ===\n"
              << describe(split, app, ctx);
    return 0;
}
