// Self-test of the independent result checker: genuine results pass, and
// a result with one tampered flow, two swapped tiles or a doubled-up tile
// fails. Exits 0 when every expectation holds.
//
//   .bench_build/perfbench_selftest   (python3 perfbench/run.py --self-test)

#include <iostream>
#include <string>

#include "apps/registry.hpp"
#include "engine/mapper.hpp"
#include "harness.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
    if (!ok) ++failures;
}

engine::MappingResult map(const std::string& algo, const graph::CoreGraph& graph,
                          const noc::Topology& topo) {
    engine::MapRequest request;
    request.graph = &graph;
    request.topology = &topo;
    return engine::registry().run(algo, request).take_or_throw();
}

} // namespace

int main() {
    const graph::CoreGraph graph = apps::make_application("vopd");
    const noc::Topology topo = noc::Topology::smallest_mesh_for(graph.node_count(), 1e9);
    const check::Instance instance = to_instance(graph, topo);
    const auto hops = check::hop_distances(instance.fabric);

    // Single-path result: genuine, then two cores' tiles swapped.
    const check::Answer single = to_answer(map("nmap", graph, topo));
    expect(check::verify(instance, single, check::Routing::SinglePath, hops).empty(),
           "genuine nmap result passes");
    bool swapped_caught = false;
    for (std::size_t a = 0; a < single.tile_of_core.size() && !swapped_caught; ++a)
        for (std::size_t b = a + 1; b < single.tile_of_core.size() && !swapped_caught; ++b) {
            check::Answer tampered = single;
            std::swap(tampered.tile_of_core[a], tampered.tile_of_core[b]);
            if (check::shortest_path_cost(instance, tampered.tile_of_core, hops) ==
                single.comm_cost)
                continue; // a cost-neutral swap is not a tampered result
            swapped_caught =
                !check::verify(instance, tampered, check::Routing::SinglePath, hops).empty();
            expect(swapped_caught, "two swapped tiles fail the cost recomputation");
        }
    expect(swapped_caught, "a cost-changing swap exists and is caught");

    check::Answer doubled = single;
    doubled.tile_of_core[1] = doubled.tile_of_core[0];
    expect(!check::verify(instance, doubled, check::Routing::SinglePath, hops).empty(),
           "two cores on one tile fail the injectivity check");

    // Split result: genuine, then one flow value tampered.
    for (const std::string algo : {"nmap-split", "nmap-tm"}) {
        const check::Routing routing = routing_of(algo);
        const check::Answer split = to_answer(map(algo, graph, topo));
        expect(check::verify(instance, split, routing, hops).empty(),
               "genuine " + algo + " result passes");
        check::Answer tampered = split;
        for (double& f : tampered.flows[0])
            if (f > 0) {
                f *= 0.5;
                break;
            }
        expect(!check::verify(instance, tampered, routing, hops).empty(),
               algo + " with one tampered flow fails");
        check::Answer costly = split;
        costly.comm_cost *= 1.0 + 1e-6;
        expect(!check::verify(instance, costly, routing, hops).empty(),
               algo + " with comm_cost off by 1e-6 fails");
    }

    std::cout << (failures == 0 ? "checker self-test passed\n" : "checker self-test FAILED\n");
    return failures == 0 ? 0 : 1;
}
