#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

} // namespace

double median(std::vector<double> samples) {
    if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double geomean(const std::vector<double>& values) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    double log_sum = 0.0;
    for (const double v : values) {
        if (!(v > 0.0)) return std::numeric_limits<double>::quiet_NaN();
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

Summary summarize(const std::vector<double>& samples) {
    Summary s;
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    s.count = sorted.size();
    if (sorted.empty()) return s;
    s.p50 = nearest_rank(sorted, 0.50);
    s.p95 = nearest_rank(sorted, 0.95);
    s.p99 = nearest_rank(sorted, 0.99);
    s.max = sorted.back();
    for (const double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
        if (sorted.size() - std::min(rank, sorted.size()) < 10) break;
        s.supported_pct = pct;
        s.supported_value = nearest_rank(sorted, pct / 100.0);
    }
    return s;
}

std::string Summary::describe(const std::string& unit) const {
    std::ostringstream out;
    out << "n=" << count << " p50=" << p50 << unit << " p95=" << p95 << unit << " p99=" << p99
        << unit
        << " max=" << max << unit;
    if (supported_pct > 0.0)
        out << " (highest supported: p" << supported_pct << "=" << supported_value << unit
            << ")";
    else
        out << " (too few samples for any supported percentile)";
    return out.str();
}

} // namespace perfbench
