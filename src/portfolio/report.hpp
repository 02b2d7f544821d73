#pragma once
// portfolio::report — render a finished portfolio run as a machine-readable
// JSON document (CI artifact) or a human-readable table.

#include <iosfwd>
#include <string>
#include <vector>

#include "portfolio/runner.hpp"

namespace nocmap::portfolio {

struct JsonOptions {
    /// Append the cache's counters when given.
    const TopologyCache* cache = nullptr;
    /// Per-scenario elapsed_ms fields. Off = the deterministic document:
    /// equal inputs produce equal bytes (what the serve daemon returns and
    /// `--json-stable` writes, so CI can diff the two).
    bool timings = true;
};

/// Writes the full run as JSON: scenario records (grid order), the
/// best-first scenario ranking, the per-fabric ranking, and — per
/// `options` — cache counters and per-scenario timings. Non-finite
/// numbers (infeasible scores) are emitted as null.
void write_json(std::ostream& os, const std::vector<ScenarioResult>& results,
                const std::vector<TopologyRanking>& topology_ranking,
                const JsonOptions& options = {});

std::string to_json(const std::vector<ScenarioResult>& results,
                    const std::vector<TopologyRanking>& topology_ranking,
                    const JsonOptions& options = {});

/// Prints the scenario table (best-first) and the fabric ranking.
void print_report(std::ostream& os, const std::vector<ScenarioResult>& results,
                  const std::vector<TopologyRanking>& topology_ranking);

} // namespace nocmap::portfolio
