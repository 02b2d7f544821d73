#pragma once
// Bursty traffic generation.
//
// The paper's Figure 5(c) traffic is "bursty in nature": even when average
// bandwidth constraints are met, bursts cause contention. We model each
// flow as an ON/OFF source: inside a burst, packets are emitted back to
// back at `burstiness`× the average rate; bursts have geometrically
// distributed lengths; OFF gaps restore the long-run average rate.

#include <cstdint>

#include "util/rng.hpp"

namespace nocmap::sim {

struct TrafficConfig {
    double burstiness = 4.0;         ///< peak rate / average rate (>1)
    double mean_burst_packets = 8.0; ///< geometric mean burst length
};

/// Deterministic (seeded) ON/OFF packet-arrival process for one flow.
class BurstyGenerator {
public:
    /// `packets_per_cycle` is the long-run average emission rate
    /// (flow bytes-per-cycle / packet size). Must be > 0 and < 1.
    BurstyGenerator(double packets_per_cycle, const TrafficConfig& config,
                    util::Rng rng);

    /// Number of packets this flow emits at `cycle` (0 or 1; the average
    /// rate is < 1 packet/cycle). Must be called with strictly increasing
    /// cycles.
    bool emits_at(std::uint64_t cycle);

    double average_rate() const noexcept { return rate_; }

    /// Fractional time of the next emission: emits_at() stays false for
    /// every cycle before floor(next_emit_time()) and is true at it.
    double next_emit_time() const noexcept { return next_emit_; }

private:
    void schedule_next();

    double rate_;
    double peak_spacing_;  ///< cycles between packets inside a burst
    double off_mean_;      ///< mean OFF gap in cycles
    double mean_burst_;
    util::Rng rng_;
    double next_emit_ = 0.0;       ///< fractional next emission time
    std::uint64_t burst_left_ = 0; ///< packets remaining in current burst
};

} // namespace nocmap::sim
