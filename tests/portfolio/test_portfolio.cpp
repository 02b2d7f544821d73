#include "portfolio/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>

#include "apps/registry.hpp"
#include "engine/mapper.hpp"
#include "portfolio/report.hpp"
#include "portfolio/scenario.hpp"
#include "portfolio/topology_cache.hpp"

namespace nocmap::portfolio {
namespace {

std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> two_apps() {
    return {{"vopd", std::make_shared<const graph::CoreGraph>(apps::make_application("vopd"))},
            {"mpeg4",
             std::make_shared<const graph::CoreGraph>(apps::make_application("mpeg4"))}};
}

TEST(TopologySpec, ParsesVariantsAndSizes) {
    EXPECT_EQ(TopologySpec::parse("mesh").variant, "mesh");
    EXPECT_EQ(TopologySpec::parse("Mesh:4x3").width, 4);
    EXPECT_EQ(TopologySpec::parse("mesh:4x3").height, 3);
    EXPECT_EQ(TopologySpec::parse("torus:5x4").variant, "torus");
    EXPECT_EQ(TopologySpec::parse("ring:12").tiles, 12u);
    EXPECT_EQ(TopologySpec::parse("hypercube:4").dimension, 4u);
    EXPECT_THROW(TopologySpec::parse("blob"), std::invalid_argument);
    EXPECT_THROW(TopologySpec::parse("mesh:4"), std::invalid_argument);
    EXPECT_THROW(TopologySpec::parse("ring:x"), std::invalid_argument);
    EXPECT_EQ(parse_topology_list("mesh, torus:4x4 ,ring").size(), 3u);
    EXPECT_THROW(parse_topology_list(" , "), std::invalid_argument);
}

TEST(TopologySpec, AutoSizingMatchesBuildAndKeys) {
    for (const char* text : {"mesh", "torus", "ring", "hypercube"}) {
        const auto spec = TopologySpec::parse(text);
        for (const std::size_t cores : {4u, 12u, 16u}) {
            const auto topo = spec.build(cores);
            EXPECT_GE(topo.tile_count(), cores) << text;
            // The key names the resolved fabric: building twice from the
            // same key must agree on size.
            EXPECT_EQ(spec.cache_key(cores), spec.cache_key(cores));
        }
    }
    // Auto mesh resolves exactly like Topology::smallest_mesh_for.
    const auto topo = TopologySpec::parse("mesh").build(12);
    const auto reference = noc::Topology::smallest_mesh_for(12, 1e9);
    EXPECT_EQ(topo.width(), reference.width());
    EXPECT_EQ(topo.height(), reference.height());
}

TEST(TopologyCache, SharesContextsAcrossAppsWithEqualFabrics) {
    TopologyCache cache;
    const auto spec = TopologySpec::parse("hypercube");
    // vopd (16 cores) and mpeg4 (12 cores) both resolve to hypercube:4.
    const auto a = cache.get(spec, 16);
    const auto b = cache.get(spec, 12);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    // A different capacity is a different fabric.
    TopologySpec other = spec;
    other.capacity = 500.0;
    EXPECT_NE(cache.get(other, 16).get(), a.get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST(PortfolioRunner, GridOrderAndMetadata) {
    const auto grid =
        make_grid(two_apps(), parse_topology_list("mesh,torus,hypercube"), "gmap");
    ASSERT_EQ(grid.size(), 6u);
    PortfolioRunner runner;
    const auto results = runner.run(grid);
    ASSERT_EQ(results.size(), 6u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].app, grid[i].app);
        EXPECT_EQ(results[i].mapper, "gmap");
        EXPECT_TRUE(results[i].ok) << results[i].error;
        EXPECT_GT(results[i].tiles, 0u);
        EXPECT_GT(results[i].area_mm2, 0.0);
    }
    // 2 apps × 3 specs but vopd/mpeg4 share the hypercube fabric.
    EXPECT_EQ(runner.cache().size(), 5u);
    EXPECT_EQ(runner.cache().hits(), 1u);
}

TEST(PortfolioRunner, DeterministicAcrossThreadCounts) {
    const auto grid =
        make_grid(two_apps(), parse_topology_list("mesh,torus,ring,hypercube"), "nmap");
    PortfolioOptions serial;
    serial.threads = 1;
    PortfolioOptions parallel;
    parallel.threads = 4;
    const auto a = PortfolioRunner(serial).run(grid);
    const auto b = PortfolioRunner(parallel).run(grid);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].result.mapping, b[i].result.mapping) << a[i].name;
        EXPECT_DOUBLE_EQ(a[i].result.comm_cost, b[i].result.comm_cost);
        EXPECT_DOUBLE_EQ(a[i].energy_mw, b[i].energy_mw);
        EXPECT_DOUBLE_EQ(a[i].scalar_score, b[i].scalar_score);
    }
    EXPECT_EQ(PortfolioRunner::ranking(a), PortfolioRunner::ranking(b));
    const auto ta = PortfolioRunner::rank_topologies(a);
    const auto tb = PortfolioRunner::rank_topologies(b);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].topology, tb[i].topology);
        EXPECT_DOUBLE_EQ(ta[i].mean_score, tb[i].mean_score);
    }
}

TEST(PortfolioRunner, ScalarizationRanksFeasibleScenariosFirst) {
    const auto grid = make_grid(two_apps(), parse_topology_list("mesh,torus"), "nmap");
    PortfolioRunner runner;
    const auto results = runner.run(grid);
    const auto order = PortfolioRunner::ranking(results);
    double last = 0.0;
    for (const std::size_t i : order) {
        EXPECT_GE(results[i].scalar_score, last);
        last = results[i].scalar_score;
        if (results[i].ok && results[i].result.feasible) {
            // Each normalized term is >= 1, so the score floors at the
            // weight sum (3.0 with default unit weights).
            EXPECT_GE(results[i].scalar_score, 3.0);
            EXPECT_TRUE(std::isfinite(results[i].scalar_score));
        }
    }
}

TEST(PortfolioRunner, ParamCarryingScenariosAreDeterministicAcrossThreadCounts) {
    // Non-default knobs (seeded SA) through the grid: every thread count
    // must return the identical result vector, and the params must
    // demonstrably reach the algorithm (same seed twice == identical,
    // matching a direct seeded run).
    engine::Params params;
    params.set_assignment("seed=77");
    params.set_assignment("cooling=0.9");
    const auto grid = make_grid(two_apps(), parse_topology_list("mesh,torus,hypercube"),
                                "sa", params, 0);
    ASSERT_EQ(grid.size(), 6u);
    for (const Scenario& s : grid) EXPECT_EQ(s.params.print(), "cooling=0.9,seed=77");

    std::vector<std::vector<ScenarioResult>> runs;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        PortfolioOptions options;
        options.threads = threads;
        runs.push_back(PortfolioRunner(options).run(grid));
    }
    for (std::size_t t = 1; t < runs.size(); ++t) {
        ASSERT_EQ(runs[t].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i) {
            ASSERT_TRUE(runs[t][i].ok) << runs[t][i].error;
            EXPECT_EQ(runs[t][i].result.mapping, runs[0][i].result.mapping)
                << runs[0][i].name;
            EXPECT_DOUBLE_EQ(runs[t][i].result.comm_cost, runs[0][i].result.comm_cost);
            EXPECT_DOUBLE_EQ(runs[t][i].scalar_score, runs[0][i].scalar_score);
        }
    }

    // The knobs reached the mapper: a direct request with the same params
    // reproduces scenario 0 exactly.
    const auto& first = runs[0][0];
    const auto& scenario = grid[first.index];
    engine::MapRequest request;
    request.graph = scenario.graph.get();
    const noc::EvalContext ctx(scenario.topology.build(scenario.graph->node_count()));
    request.context = &ctx;
    request.params = params;
    engine::MapOutcome direct = engine::run_by_name("sa", request);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(direct.result().mapping, first.result.mapping);
}

TEST(PortfolioRunner, ParamErrorsAreStructuredPerScenario) {
    engine::Params params;
    params.set_assignment("no_such_knob=1");
    const auto grid = make_grid(two_apps(), parse_topology_list("mesh"), "nmap", params);
    const auto results = PortfolioRunner().run(grid);
    ASSERT_EQ(results.size(), 2u);
    for (const auto& r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.error_code, "unknown-param");
        EXPECT_NE(r.error.find("no_such_knob"), std::string::npos);
    }
    // The structured code lands in the JSON document (failed rows only).
    const auto json = to_json(results, PortfolioRunner::rank_topologies(results));
    EXPECT_NE(json.find("\"error_code\": \"unknown-param\""), std::string::npos);
}

TEST(PortfolioRunner, MapperFailureIsCapturedNotThrown) {
    auto grid = make_grid(two_apps(), parse_topology_list("mesh"), "no-such-mapper");
    PortfolioRunner runner;
    const auto results = runner.run(grid);
    for (const auto& r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("no-such-mapper"), std::string::npos);
        EXPECT_FALSE(std::isfinite(r.scalar_score));
    }
}

TEST(PortfolioReport, JsonContainsScenariosRankingAndCacheStats) {
    const auto grid = make_grid(two_apps(), parse_topology_list("mesh,hypercube"), "gmap");
    PortfolioRunner runner;
    const auto results = runner.run(grid);
    const auto ranking = PortfolioRunner::rank_topologies(results);
    const auto json = to_json(results, ranking, JsonOptions{&runner.cache()});
    EXPECT_NE(json.find("\"scenarios\""), std::string::npos);
    EXPECT_NE(json.find("\"ranking\""), std::string::npos);
    EXPECT_NE(json.find("\"topology_ranking\""), std::string::npos);
    EXPECT_NE(json.find("\"cache\""), std::string::npos);
    EXPECT_NE(json.find("\"app\": \"vopd\""), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos); // non-finite -> null
    std::ostringstream table;
    print_report(table, results, ranking);
    EXPECT_NE(table.str().find("Topology portfolio ranking"), std::string::npos);
}

TEST(PortfolioRunner, ContextRunsMatchColdRuns) {
    // The cached, context-threaded portfolio path must reproduce the plain
    // per-run path bit-for-bit (the amortization bench's correctness leg).
    const auto grid = make_grid(two_apps(), parse_topology_list("mesh,torus,ring"), "nmap");
    PortfolioRunner runner;
    const auto results = runner.run(grid);
    for (const auto& r : results) {
        ASSERT_TRUE(r.ok) << r.error;
        const auto& scenario = grid[r.index];
        const auto topo = scenario.topology.build(scenario.graph->node_count());
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto cold = engine::map_by_name(scenario.mapper, *scenario.graph, ctx);
        EXPECT_EQ(cold.mapping, r.result.mapping) << r.name;
        EXPECT_DOUBLE_EQ(cold.comm_cost, r.result.comm_cost) << r.name;
        EXPECT_EQ(cold.feasible, r.result.feasible);
    }
}

} // namespace
} // namespace nocmap::portfolio
