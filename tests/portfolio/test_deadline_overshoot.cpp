// Deadline overshoot of the two loops that used to ignore the request's
// cancellation hook: PBB's node expansions and the simulated evaluation's
// cycle loop. Each case runs far longer than its budget when unbounded; with
// the hook polled inside the loop the typed deadline error must arrive
// within max(50 ms, 10% of the budget) of the deadline.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "apps/registry.hpp"
#include "portfolio/runner.hpp"

namespace nocmap::portfolio {
namespace {

/// Runs one scenario with `deadline_ms` and returns the wall time it took,
/// after checking that it failed with the typed deadline error.
std::chrono::steady_clock::duration run_expecting_deadline(Scenario scenario,
                                                           std::int64_t deadline_ms) {
    scenario.deadline_ms = deadline_ms;
    PortfolioRunner runner;
    const auto start = std::chrono::steady_clock::now();
    const auto results = runner.run({scenario});
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(results.size(), 1u);
    if (!results.empty()) {
        EXPECT_FALSE(results[0].ok);
        EXPECT_EQ(results[0].error_code, "deadline-exceeded");
    }
    return elapsed;
}

void expect_within_overshoot(std::chrono::steady_clock::duration elapsed,
                             std::int64_t deadline_ms) {
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__)
    // The overshoot bound is a Release-build promise; sanitizer and debug
    // builds run the same loops several times slower.
    const std::int64_t overshoot_ms = std::max<std::int64_t>(50, deadline_ms / 10);
    EXPECT_LT(elapsed, std::chrono::milliseconds(deadline_ms + overshoot_ms));
#else
    (void)elapsed;
    (void)deadline_ms;
#endif
}

TEST(DeadlineOvershoot, PbbPollsEveryExpansion) {
    // About 2 s unbounded: 200000 expansions on a 64-tile mesh.
    Scenario scenario;
    scenario.app = "synth";
    scenario.graph = std::make_shared<const graph::CoreGraph>(
        apps::load_graph_or_application("synth:nodes=64,edges=110,seed=1"));
    scenario.mapper = "pbb";
    expect_within_overshoot(run_expecting_deadline(scenario, 10), 10);
}

TEST(DeadlineOvershoot, SimulatedEvaluationPollsTheCycleLoop) {
    // nmap maps synth128 in about 30 ms; the simulated evaluation of a
    // 1,000,000-cycle window then takes over 5 s unbounded.
    Scenario scenario;
    scenario.app = "synth";
    scenario.graph = std::make_shared<const graph::CoreGraph>(
        apps::load_graph_or_application("synth:nodes=128,edges=230,seed=1"));
    scenario.mapper = "nmap";
    scenario.eval.set_assignment("eval=simulated");
    scenario.eval.set_assignment("sim_cycles=1000000");
    expect_within_overshoot(run_expecting_deadline(scenario, 50), 50);
}

} // namespace
} // namespace nocmap::portfolio
