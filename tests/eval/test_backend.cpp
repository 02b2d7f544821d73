#include "eval/backend.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "apps/synthetic.hpp"
#include "nmap/single_path.hpp"
#include "noc/eval_context.hpp"
#include "noc/topology.hpp"

namespace nocmap::eval {
namespace {

engine::Params params_of(std::initializer_list<const char*> assignments) {
    engine::Params p;
    for (const char* a : assignments) p.set_assignment(a);
    return p;
}

TEST(EvalBackend, RegistryListsBothBackends) {
    const auto names = backend_names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "analytic");
    EXPECT_EQ(names[1], "simulated");
    EXPECT_NE(find_backend("analytic"), nullptr);
    EXPECT_NE(find_backend("simulated"), nullptr);
    EXPECT_EQ(find_backend("systemc"), nullptr);
}

TEST(EvalBackend, ValidateRejectsBadSpecs) {
    EXPECT_FALSE(validate_spec({}).has_value());
    EXPECT_FALSE(validate_spec(params_of({"eval=simulated", "sim_cycles=5000"})).has_value());
    EXPECT_TRUE(validate_spec(params_of({"eval=systemc"})).has_value());
    EXPECT_TRUE(validate_spec(params_of({"simulate=yes"})).has_value());
    EXPECT_TRUE(validate_spec(params_of({"sim_cycles=10"})).has_value());
    EXPECT_TRUE(validate_spec(params_of({"burstiness=0.5"})).has_value());
    EXPECT_TRUE(validate_spec(params_of({"refine=always"})).has_value());
}

TEST(EvalBackend, ParseSpecReadsEveryKnob) {
    const EvalSpec spec = parse_spec(params_of(
        {"eval=simulated", "refine=sim", "refine_trials=3", "sim_cycles=5000",
         "sim_warmup=100", "sim_seed=9", "injection=uniform", "burstiness=2.5"}));
    EXPECT_EQ(spec.backend, "simulated");
    EXPECT_TRUE(spec.simulated());
    EXPECT_TRUE(spec.refine_sim);
    EXPECT_EQ(spec.refine_trials, 3);
    EXPECT_EQ(spec.sim_cycles, 5000);
    EXPECT_EQ(spec.sim_warmup, 100);
    EXPECT_EQ(spec.sim_seed, 9u);
    EXPECT_EQ(spec.injection, "uniform");
    EXPECT_DOUBLE_EQ(spec.burstiness, 2.5);
    const EvalSpec defaults = parse_spec({});
    EXPECT_EQ(defaults.backend, "analytic");
    EXPECT_FALSE(defaults.simulated());
    EXPECT_FALSE(defaults.refine_sim);
}

TEST(EvalBackend, AnalyticReportsTheMapperResultUntouched) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 3, 1e9));
    auto result = nmap::map_with_single_path(g, ctx);
    ASSERT_TRUE(result.feasible);
    const auto before = result.mapping;
    const double cost = result.comm_cost;

    const Evaluation e = apply(g, ctx, result, parse_spec({}));
    EXPECT_DOUBLE_EQ(e.comm_cost, cost);
    EXPECT_TRUE(e.feasible);
    EXPECT_FALSE(e.sim.present);
    EXPECT_TRUE(result.mapping == before);
    EXPECT_DOUBLE_EQ(result.comm_cost, cost);
}

TEST(EvalBackend, SimulatedEvaluationIsDeterministic) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 3, 1e9));
    auto result = nmap::map_with_single_path(g, ctx);
    ASSERT_TRUE(result.feasible);

    EvalSpec spec;
    spec.backend = "simulated";
    spec.sim_cycles = 4000;
    spec.sim_warmup = 500;
    const Evaluation a = apply(g, ctx, result, spec);
    const Evaluation b = apply(g, ctx, result, spec);
    ASSERT_TRUE(a.sim.present);
    EXPECT_TRUE(a.sim.measured()) << a.sim.note;
    EXPECT_GT(a.sim.packets, 0u);
    EXPECT_GT(a.sim.p99_latency_cycles, 0.0);
    EXPECT_GE(a.sim.p99_latency_cycles, a.sim.p50_latency_cycles);
    EXPECT_EQ(a.sim, b.sim); // bit-exact repeat, same seed

    spec.sim_seed = 43; // a different traffic seed must actually matter
    const Evaluation c = apply(g, ctx, result, spec);
    EXPECT_FALSE(a.sim == c.sim);
}

TEST(EvalBackend, UnusableMappingsDegradeToANote) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 3, 1e9));
    EvalSpec spec;
    spec.backend = "simulated";

    engine::MappingResult infeasible; // default: infeasible, empty mapping
    const Evaluation e = apply(g, ctx, infeasible, spec);
    ASSERT_TRUE(e.sim.present);
    EXPECT_FALSE(e.sim.measured());
    EXPECT_FALSE(e.sim.note.empty());
}

TEST(EvalBackend, RefineIsDeterministicAndKeepsFeasibility) {
    const auto g = apps::synthetic("synth:nodes=12,edges=20,seed=3");
    const noc::EvalContext ctx(noc::Topology::mesh(4, 4, 1e9));
    const auto seed_result = nmap::map_with_single_path(g, ctx);
    ASSERT_TRUE(seed_result.feasible);

    EvalSpec spec;
    spec.backend = "simulated";
    spec.refine_sim = true;
    spec.refine_trials = 5;
    spec.sim_cycles = 3000;
    spec.sim_warmup = 300;

    auto a = seed_result;
    auto b = seed_result;
    const RefineOutcome oa = refine_with_sim(g, ctx, a, spec);
    const RefineOutcome ob = refine_with_sim(g, ctx, b, spec);
    EXPECT_EQ(oa.trials, ob.trials);
    EXPECT_EQ(oa.accepted, ob.accepted);
    EXPECT_TRUE(a.mapping == b.mapping);
    EXPECT_DOUBLE_EQ(a.comm_cost, b.comm_cost);
    EXPECT_TRUE(a.feasible); // refinement never trades feasibility away
}

TEST(EvalBackend, RefineHonoursTheCancellationHook) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 3, 1e9));
    auto result = nmap::map_with_single_path(g, ctx);
    ASSERT_TRUE(result.feasible);
    const auto before = result.mapping;

    EvalSpec spec;
    spec.backend = "simulated";
    spec.refine_sim = true;
    spec.refine_trials = 8;
    const RefineOutcome outcome =
        refine_with_sim(g, ctx, result, spec, [] { return true; });
    EXPECT_EQ(outcome.trials, 0u);
    EXPECT_TRUE(result.mapping == before);
}

} // namespace
} // namespace nocmap::eval
