#pragma once
// The benchmark's workloads. Each builds its inputs from the seed, signals
// ready (the end of set-up), then measures — or, with RunOptions::trace,
// makes the traced run that yields the per-layer metrics.

#include "harness.hpp"

namespace perfbench {

RunResult run_split_allpaths(const RunOptions& opt);
RunResult run_mapping_suite(const RunOptions& opt);
RunResult run_serve_mixed(const RunOptions& opt);

/// Ends a traced run: per-layer self times, the span count, the tracing
/// overhead (spans x measured per-span cost, over the run's wall time),
/// and the span dump at opt.trace_path.
void finish_trace(const Tracer& tracer, double wall_ms, const RunOptions& opt, RunResult& result);

} // namespace perfbench
