#pragma once
// Shared pieces of the benchmark binary: run options, the result record
// every workload fills, input generation from the workload seed, and the
// adapters that hand library results to the independent checker as plain
// data.

#include <cstdint>
#include <string>
#include <vector>

#include "checker.hpp"
#include "engine/mapping_result.hpp"
#include "graph/core_graph.hpp"
#include "noc/topology.hpp"
#include "trace.hpp"

namespace perfbench {

// The library's layers by their short names (engine::, noc::, lp::, ...).
using namespace nocmap;

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;   ///< build inputs, signal ready, tear down, exit
    std::string trace_path;    ///< where the traced run writes its spans
    std::string work_dir = ".";  ///< working files (the daemon's log)
    std::string cli_path;      ///< the nocmap_cli binary (serve-mixed)
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few failure messages
    std::vector<Metric> metrics;
    std::vector<std::string> notes; ///< human-readable detail lines

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /// Counts one checked operation; a non-empty `why` is a failure.
    void count(const std::string& why);
};

/// Signals the end of set-up to the parent process (one "ready" line on
/// stdout, flushed) — setup_s is measured from process start to this line.
void signal_ready();

/// Deterministic 64-bit mix of (seed, stream) — every generated input
/// draws its own seed from this, so adding an input never shifts another.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// A synth:nodes=N,edges=E graph drawn from `seed`, with its bandwidths
/// rescaled so the total demand is `total_bandwidth` MB/s. Fixing the total
/// keeps cost comparable across seeds: what varies is the graph's shape.
graph::CoreGraph normalized_synthetic(std::size_t nodes, std::size_t edges, std::uint64_t seed,
                                      double total_bandwidth);

/// Plain-data views for the checker.
check::Instance to_instance(const graph::CoreGraph& graph, const noc::Topology& topo);
check::Answer to_answer(const engine::MappingResult& result);
check::Routing routing_of(const std::string& algo);

/// Peak resident set (VmHWM) of process `pid` in MB; 0 for this process.
double peak_rss_mb(int pid = 0);

double ms_since(Clock::time_point start);

} // namespace perfbench
