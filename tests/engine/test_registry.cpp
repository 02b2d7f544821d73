#include "engine/mapper.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "baselines/annealing.hpp"
#include "baselines/exhaustive.hpp"
#include "baselines/gmap.hpp"
#include "baselines/pbb.hpp"
#include "baselines/pmap.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"

namespace nocmap::engine {
namespace {

const char* const kAllNames[] = {"nmap", "nmap-split", "nmap-tm", "pmap",
                                 "gmap", "pbb",        "sa",      "exhaustive"};

TEST(Registry, AllEightAlgorithmsAreRegistered) {
    for (const char* name : kAllNames) {
        EXPECT_TRUE(registry().contains(name)) << name;
        const auto mapper = registry().create(name);
        ASSERT_NE(mapper, nullptr) << name;
        EXPECT_EQ(mapper->info().name, name);
        EXPECT_FALSE(mapper->info().description.empty()) << name;
    }
    EXPECT_EQ(registry().names().size(), std::size(kAllNames));
}

TEST(Registry, UnknownNameThrowsListingValidNames) {
    try {
        registry().create("definitely-not-a-mapper");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("definitely-not-a-mapper"), std::string::npos);
        for (const char* name : kAllNames)
            EXPECT_NE(message.find(name), std::string::npos) << name;
    }
}

TEST(Registry, RejectsDuplicateAndEmptyRegistration) {
    Registry r;
    r.add({"x", "a mapper"}, [] { return std::unique_ptr<Mapper>(); });
    EXPECT_THROW(r.add({"x", "again"}, [] { return std::unique_ptr<Mapper>(); }),
                 std::invalid_argument);
    EXPECT_THROW(r.add({"", "anonymous"}, [] { return std::unique_ptr<Mapper>(); }),
                 std::invalid_argument);
    EXPECT_THROW(r.add({"y", "null factory"}, Registry::Factory{}), std::invalid_argument);
}

/// Smoke test: every registered algorithm maps the small pip application;
/// the swap/constructive ones also map vopd. The exhaustive mapper's
/// search-space guard must refuse vopd (16 cores) instead of hanging.
TEST(Registry, EveryAlgorithmMapsPip) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    for (const std::string& name : registry().names()) {
        const MappingResult result = map_by_name(name, g, ctx);
        EXPECT_TRUE(result.mapping.is_complete()) << name;
        EXPECT_NO_THROW(result.mapping.validate()) << name;
        EXPECT_TRUE(result.feasible) << name;
        EXPECT_GE(result.comm_cost, g.total_bandwidth() - 1e-9) << name;
    }
}

TEST(Registry, EveryNonExhaustiveAlgorithmMapsVopd) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    for (const std::string& name : registry().names()) {
        if (name == "exhaustive") {
            EXPECT_THROW(map_by_name(name, g, ctx), std::invalid_argument);
            continue;
        }
        const MappingResult result = map_by_name(name, g, ctx);
        EXPECT_TRUE(result.mapping.is_complete()) << name;
        EXPECT_TRUE(result.feasible) << name;
    }
}

/// Acceptance criterion of the engine refactor: by-name construction yields
/// the same final communication cost (and mapping) as calling the
/// algorithm's own entry point, on vopd and mpeg4.
TEST(Registry, ByNameResultsMatchDirectCallsOnVopdAndMpeg4) {
    for (const char* app : {"vopd", "mpeg4"}) {
        const auto g = apps::make_application(app);
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));

        const auto check = [&](const char* name, const MappingResult& direct) {
            const MappingResult via_registry = map_by_name(name, g, ctx);
            EXPECT_EQ(via_registry.mapping, direct.mapping) << app << ' ' << name;
            EXPECT_DOUBLE_EQ(via_registry.comm_cost, direct.comm_cost)
                << app << ' ' << name;
        };

        check("nmap", nmap::map_with_single_path(g, ctx));
        nmap::SplitOptions ta;
        ta.mode = nmap::SplitMode::AllPaths;
        check("nmap-split", nmap::map_with_splitting(g, ctx, ta));
        nmap::SplitOptions tm;
        tm.mode = nmap::SplitMode::MinPaths;
        check("nmap-tm", nmap::map_with_splitting(g, ctx, tm));
        check("pmap", baselines::pmap_map(g, ctx));
        check("gmap", baselines::gmap_map(g, ctx));
        check("pbb", baselines::pbb_map(g, ctx));
        check("sa", baselines::annealing_map(g, ctx));
    }
}

TEST(Registry, ExhaustiveMatchesDirectCallOnPip) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    const auto direct = baselines::exhaustive_map(g, ctx);
    const auto via_registry = map_by_name("exhaustive", g, ctx);
    EXPECT_EQ(via_registry.mapping, direct.mapping);
    EXPECT_DOUBLE_EQ(via_registry.comm_cost, direct.comm_cost);
    // The optimum is a lower bound for every other registered algorithm.
    for (const std::string& name : registry().names())
        EXPECT_GE(map_by_name(name, g, ctx).comm_cost, direct.comm_cost - 1e-9) << name;
}

// ------------------------------------------------- typed request/outcome API

MapRequest request_for(const graph::CoreGraph& g, const noc::EvalContext& ctx) {
    MapRequest request;
    request.graph = &g;
    request.context = &ctx;
    return request;
}

TEST(MapApi, EveryMapperPublishesItsParamSpecs) {
    // The knob-bearing algorithms must publish a schema; the constructive
    // baselines legitimately have none. Specs are sorted by name (the
    // --describe-algo and golden-fixture order) and carry a doc line.
    for (const std::string& name : registry().names()) {
        const MapperDescription description = registry().describe(name);
        EXPECT_EQ(description.info.name, name);
        const bool parameterless = name == "pmap" || name == "gmap";
        EXPECT_EQ(description.params.empty(), parameterless) << name;
        for (std::size_t i = 0; i < description.params.size(); ++i) {
            EXPECT_FALSE(description.params[i].doc.empty()) << name;
            if (i > 0) {
                EXPECT_LT(description.params[i - 1].name, description.params[i].name)
                    << name;
            }
        }
    }
}

TEST(MapApi, UnknownKeyIsRejectedByAllEightMappers) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    for (const std::string& name : registry().names()) {
        MapRequest request = request_for(g, ctx);
        request.params.set_assignment("definitely_not_a_knob=1");
        const MapOutcome outcome = run_by_name(name, request);
        ASSERT_FALSE(outcome.ok()) << name;
        EXPECT_EQ(outcome.error().code, MapErrorCode::UnknownParam) << name;
        EXPECT_EQ(outcome.error().param, "definitely_not_a_knob") << name;
    }
}

TEST(MapApi, OutOfRangeAndIllTypedValuesAreRejectedPerSpec) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    const auto expect_code = [&](const char* mapper, const char* assignment,
                                 MapErrorCode code) {
        MapRequest request = request_for(g, ctx);
        request.params.set_assignment(assignment);
        const MapOutcome outcome = run_by_name(mapper, request);
        ASSERT_FALSE(outcome.ok()) << mapper << " " << assignment;
        EXPECT_EQ(outcome.error().code, code) << mapper << " " << assignment;
    };
    expect_code("nmap", "sweeps=0", MapErrorCode::ParamOutOfRange);
    expect_code("nmap", "eval=warp-speed", MapErrorCode::ParamOutOfRange);
    expect_code("nmap", "threads=x", MapErrorCode::InvalidParamValue);
    expect_code("nmap-split", "approx_iterations=0", MapErrorCode::ParamOutOfRange);
    expect_code("nmap-split", "warm_start=7", MapErrorCode::InvalidParamValue);
    expect_code("nmap-split", "mcf_engine=auto", MapErrorCode::ParamOutOfRange);
    expect_code("nmap-tm", "sweeps=-1", MapErrorCode::ParamOutOfRange);
    expect_code("pbb", "queue_capacity=-5", MapErrorCode::ParamOutOfRange);
    expect_code("pbb", "max_expansions=soon", MapErrorCode::InvalidParamValue);
    expect_code("sa", "cooling=1.5", MapErrorCode::ParamOutOfRange);
    expect_code("sa", "initial_acceptance=0", MapErrorCode::ParamOutOfRange);
    expect_code("exhaustive", "max_placements=0", MapErrorCode::ParamOutOfRange);
}

TEST(MapApi, DefaultsOnlyRequestsMatchTheCompatShims) {
    // An empty Params set must decode to the default Options structs:
    // defaults-only requests stay bit-identical to map_by_name().
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    for (const std::string& name : registry().names()) {
        const MapOutcome outcome = run_by_name(name, request_for(g, ctx));
        ASSERT_TRUE(outcome.ok()) << name;
        const MappingResult direct = map_by_name(name, g, ctx);
        EXPECT_EQ(outcome.result().mapping, direct.mapping) << name;
        EXPECT_DOUBLE_EQ(outcome.result().comm_cost, direct.comm_cost) << name;
    }
}

TEST(MapApi, NonDefaultKnobsReachTheAlgorithm) {
    const auto g = apps::make_application("vopd");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    // A naive-eval run must equal the default ledger run bit for bit (same
    // algorithm, different scoring machinery)...
    MapRequest naive = request_for(g, ctx);
    naive.params.set_assignment("eval=naive");
    const MapOutcome naive_outcome = run_by_name("nmap", naive);
    ASSERT_TRUE(naive_outcome.ok());
    const MappingResult defaults = map_by_name("nmap", g, ctx);
    EXPECT_EQ(naive_outcome.result().mapping, defaults.mapping);
    EXPECT_DOUBLE_EQ(naive_outcome.result().comm_cost, defaults.comm_cost);
    // ...and extra sweeps may only improve the cost (and here provably run:
    // the evaluation counter grows).
    MapRequest more_sweeps = request_for(g, ctx);
    more_sweeps.params.set_assignment("sweeps=3");
    const MapOutcome swept = run_by_name("nmap", more_sweeps);
    ASSERT_TRUE(swept.ok());
    EXPECT_LE(swept.result().comm_cost, defaults.comm_cost + 1e-9);
    EXPECT_GT(swept.result().evaluations, defaults.evaluations);
}

TEST(MapApi, TopologyOnlyRequestsRunOnABorrowedContext) {
    // A caller holding only a Topology sets MapRequest::topology; the
    // registry borrows one context over it, so every mapper returns exactly
    // what the context request returns.
    const auto g = apps::make_application("pip");
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const noc::EvalContext ctx(topo);
    for (const std::string& name : registry().names()) {
        MapRequest request;
        request.graph = &g;
        request.topology = &topo;
        const MapOutcome via_topology = registry().run(name, request);
        const MapOutcome via_context = registry().run(name, request_for(g, ctx));
        ASSERT_TRUE(via_topology.ok()) << name;
        ASSERT_TRUE(via_context.ok()) << name;
        EXPECT_EQ(via_topology.result().mapping, via_context.result().mapping) << name;
        EXPECT_EQ(via_topology.result().comm_cost, via_context.result().comm_cost) << name;
        EXPECT_EQ(via_topology.result().loads, via_context.result().loads) << name;
    }
    // Neither set: a typed error, never a dereference.
    MapRequest empty;
    empty.graph = &g;
    const MapOutcome none = registry().run("nmap", empty);
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.error().code, MapErrorCode::Internal);
}

TEST(MapApi, UnknownMapperIsATypedOutcome) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    const MapOutcome outcome = run_by_name("definitely-not-a-mapper", request_for(g, ctx));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, MapErrorCode::UnknownMapper);
    EXPECT_NE(outcome.error().message.find("nmap"), std::string::npos);
}

TEST(MapApi, ExhaustiveGuardAndImpossibleInstancesAreTypedErrors) {
    const auto vopd = apps::make_application("vopd"); // 16 cores
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(vopd.node_count(), 1e9));
    const MapOutcome guard = run_by_name("exhaustive", request_for(vopd, ctx));
    ASSERT_FALSE(guard.ok());
    EXPECT_EQ(guard.error().code, MapErrorCode::SearchSpaceExceeded);
    EXPECT_EQ(guard.error().param, "max_placements");

    // Raising the guard is honoured (and validated): the small dsp-filter
    // instance runs under an explicit budget.
    const auto dsp = apps::make_application("dsp");
    const noc::EvalContext small(noc::Topology::smallest_mesh_for(dsp.node_count(), 1e9));
    MapRequest roomy = request_for(dsp, small);
    roomy.params.set_assignment("max_placements=900000");
    EXPECT_TRUE(run_by_name("exhaustive", roomy).ok());

    // |V| > |U| is an unsupported instance for every mapper, never a throw.
    const noc::EvalContext tiny(noc::Topology::mesh(2, 2, 1e9));
    for (const std::string& name : registry().names()) {
        const MapOutcome outcome = run_by_name(name, request_for(vopd, tiny));
        ASSERT_FALSE(outcome.ok()) << name;
        EXPECT_EQ(outcome.error().code, MapErrorCode::UnsupportedInstance) << name;
    }
}

TEST(MapApi, PreStartCancellationIsATypedError) {
    const auto g = apps::make_application("pip");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    MapRequest request = request_for(g, ctx);
    request.cancelled = [] { return true; };
    const MapOutcome outcome = run_by_name("nmap", request);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, MapErrorCode::Cancelled);
}

TEST(MapApi, DescribeJsonIsDeterministicAndComplete) {
    const std::string a = describe_json(registry().describe("sa"));
    const std::string b = describe_json(registry().describe("sa"));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"name\": \"sa\""), std::string::npos);
    EXPECT_NE(a.find("\"cooling\""), std::string::npos);
    EXPECT_NE(a.find("\"min\": 0.01"), std::string::npos);
    // Parameterless mappers still describe (empty params array).
    EXPECT_NE(describe_json(registry().describe("gmap")).find("\"params\": []"),
              std::string::npos);
}

// ------------------------------------------------------------ seed plumbing

TEST(MapApi, FixedSeedRunsAreDeterministicAndSeedParamOutranksField) {
    const auto g = apps::make_application("mpeg4");
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));

    MapRequest seeded = request_for(g, ctx);
    seeded.seed = 1234;
    const MapOutcome first = run_by_name("sa", seeded);
    const MapOutcome second = run_by_name("sa", seeded);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    // Run-to-run determinism for a fixed seed.
    EXPECT_EQ(first.result().mapping, second.result().mapping);
    EXPECT_DOUBLE_EQ(first.result().comm_cost, second.result().comm_cost);
    EXPECT_EQ(first.result().evaluations, second.result().evaluations);

    // The explicit "seed" param addresses the same RNG and outranks the
    // request field.
    MapRequest param_seeded = request_for(g, ctx);
    param_seeded.seed = 999; // must lose against the param below
    param_seeded.params.set_assignment("seed=1234");
    const MapOutcome via_param = run_by_name("sa", param_seeded);
    ASSERT_TRUE(via_param.ok());
    EXPECT_EQ(via_param.result().mapping, first.result().mapping);

    // Seed 0 (unset) means the algorithm default — bit-identical to the
    // map_by_name() run.
    const MapOutcome unseeded = run_by_name("sa", request_for(g, ctx));
    const MappingResult shim = map_by_name("sa", g, ctx);
    ASSERT_TRUE(unseeded.ok());
    EXPECT_EQ(unseeded.result().mapping, shim.mapping);
}

} // namespace
} // namespace nocmap::engine
