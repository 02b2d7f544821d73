#include "harness.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "apps/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {

void RunResult::count(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
}

void signal_ready() { std::cout << "ready" << std::endl; }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    // splitmix64 over the pair.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

graph::CoreGraph normalized_synthetic(std::size_t nodes, std::size_t edges, std::uint64_t seed,
                                      double total_bandwidth) {
    apps::SyntheticSpec spec;
    spec.nodes = nodes;
    spec.edges = edges;
    spec.seed = seed % 1'000'000'007ull + 1;
    const graph::CoreGraph raw = apps::synthetic(spec);
    const double scale = total_bandwidth / raw.total_bandwidth();
    graph::CoreGraph out(spec.canonical_name());
    for (std::size_t v = 0; v < raw.node_count(); ++v)
        out.add_node(raw.label(static_cast<graph::NodeId>(v)));
    for (const graph::CoreEdge& e : raw.edges()) out.add_edge(e.src, e.dst, e.bandwidth * scale);
    return out;
}

check::Instance to_instance(const graph::CoreGraph& graph, const noc::Topology& topo) {
    check::Instance instance;
    instance.cores = graph.node_count();
    for (const graph::CoreEdge& e : graph.edges())
        instance.demands.push_back({static_cast<int>(e.src), static_cast<int>(e.dst), e.bandwidth});
    instance.fabric.tiles = topo.tile_count();
    for (const noc::Link& link : topo.links())
        instance.fabric.links.push_back({static_cast<int>(link.src), static_cast<int>(link.dst),
                                         link.capacity});
    return instance;
}

check::Answer to_answer(const engine::MappingResult& result) {
    check::Answer answer;
    for (std::size_t core = 0; core < result.mapping.core_count(); ++core) {
        const auto id = static_cast<graph::NodeId>(core);
        answer.tile_of_core.push_back(
            result.mapping.is_placed(id) ? static_cast<int>(result.mapping.tile_of(id)) : -1);
    }
    answer.comm_cost = result.comm_cost;
    answer.feasible = result.feasible;
    answer.loads = result.loads;
    answer.flows = result.flows;
    return answer;
}

check::Routing routing_of(const std::string& algo) {
    if (algo == "nmap-split") return check::Routing::SplitAllPaths;
    if (algo == "nmap-tm") return check::Routing::SplitMinPaths;
    return check::Routing::SinglePath;
}

double peak_rss_mb(int pid) {
    std::ifstream status(pid == 0 ? std::string("/proc/self/status")
                                  : "/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) != 0) continue;
        std::istringstream fields(line.substr(6));
        double kb = 0.0;
        fields >> kb;
        return kb / 1024.0;
    }
    return 0.0;
}

void finish_trace(const Tracer& tracer, double wall_ms, const RunOptions& opt, RunResult& result) {
    for (const auto& [layer, ms] : tracer.self_ms_by_layer())
        result.add("self." + layer + ".ms", ms, "ms");
    const auto spans = static_cast<double>(tracer.spans().size());
    result.add("trace.spans", spans, "count");
    result.add("harness.trace_overhead_frac", spans * Tracer::span_cost_ns() / 1e6 / wall_ms,
               "ratio");
    tracer.write_json(opt.trace_path);
    result.notes.push_back("trace: " + std::to_string(tracer.spans().size()) +
                           " spans written to " + opt.trace_path);
}

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

} // namespace perfbench
