#pragma once
// Exact order statistics over raw samples.
//
// Every percentile the benchmark reports comes from the full sample vector
// (nearest-rank definition), never from histogram buckets: a bucketed p99
// can only ever read a bucket edge. Each summary carries its sample count
// and the highest percentile that still has at least ten samples beyond
// it, so a reader can tell which tail figures are supported by data.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `samples` (the mean of the two middle values for even n).
double median(std::vector<double> samples);

/// Geometric mean of strictly positive values; NaN when empty or when a
/// value is not positive.
double geomean(const std::vector<double>& values);

struct Summary {
    std::size_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
    /// Highest of {50, 90, 95, 99, 99.9} percentiles with >= 10 samples
    /// beyond it (0 when even the median lacks that support).
    double supported_pct = 0.0;
    double supported_value = 0.0;

    /// "n=1200 p50=3.1 p95=20.5 p99=40.2 (p99 supported)" — the human-readable form.
    std::string describe(const std::string& unit) const;
};

Summary summarize(const std::vector<double>& samples);

} // namespace perfbench
