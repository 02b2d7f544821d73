// Golden regression numbers.
//
// Every algorithm in this repository is deterministic, so the headline
// figures of the reproduced tables are locked down here. If an intentional
// algorithm change shifts them, update EXPERIMENTS.md together with these
// constants — that is the point of the test.

#include <gtest/gtest.h>

#include <ostream>

#include "apps/registry.hpp"
#include "engine/mapper.hpp"
#include "lp/certified_mcf.hpp"
#include "lp/mcf.hpp"
#include "nmap/initialize.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"

namespace nocmap {
namespace {

struct GoldenCost {
    const char* app;
    double nmap;
    double gmap;
    double pmap;
    double pbb;
    double sa;
    double nmap_split; ///< MCF2 objective of the polished split mapping
    double nmap_tm;
};

// Print a case as its app name. The default printer dumps the param's bytes,
// which hold the app string's address and so change from run to run; the
// printed value is part of the test name ctest discovers.
void PrintTo(const GoldenCost& golden, std::ostream* os) { *os << golden.app; }

class GoldenCosts : public ::testing::TestWithParam<GoldenCost> {};

TEST_P(GoldenCosts, Figure3Values) {
    const auto& golden = GetParam();
    const auto g = apps::make_application(golden.app);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    const auto cost = [&](const char* algo) {
        return engine::map_by_name(algo, g, ctx).comm_cost;
    };
    EXPECT_DOUBLE_EQ(cost("nmap"), golden.nmap);
    EXPECT_DOUBLE_EQ(cost("gmap"), golden.gmap);
    EXPECT_DOUBLE_EQ(cost("pmap"), golden.pmap);
    EXPECT_DOUBLE_EQ(cost("pbb"), golden.pbb);
    EXPECT_DOUBLE_EQ(cost("sa"), golden.sa);
    EXPECT_DOUBLE_EQ(cost("nmap-split"), golden.nmap_split);
    EXPECT_DOUBLE_EQ(cost("nmap-tm"), golden.nmap_tm);
}

// app, nmap, gmap, pmap, pbb, sa, nmap-split, nmap-tm (registry defaults).
INSTANTIATE_TEST_SUITE_P(
    Apps, GoldenCosts,
    ::testing::Values(GoldenCost{"mpeg4", 5070, 5390, 6040, 4570, 4570, 5070, 5070},
                      GoldenCost{"vopd", 5235, 6539, 4579, 4451, 4451, 5235, 5235},
                      GoldenCost{"pip", 576, 704, 576, 544, 544, 576, 576},
                      GoldenCost{"mwa", 1248, 1760, 1536, 1216, 1184, 1248, 1248},
                      GoldenCost{"mwag", 1792, 2304, 2080, 1696, 1696, 1792, 1792},
                      GoldenCost{"dsd", 1696, 2496, 1728, 1568, 1568, 1696, 1696}));

TEST(GoldenNumbers, VopdSplitBandwidth) {
    const auto g = apps::make_application("vopd");
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto nm = nmap::map_with_single_path(g, ctx);
    EXPECT_DOUBLE_EQ(noc::max_load(nm.loads), 500.0);
    const auto d = noc::build_commodities(g, nm.mapping);
    lp::McfOptions ta;
    ta.objective = lp::McfObjective::MinMaxLoad;
    EXPECT_NEAR(lp::solve_certified(topo, d, ta).objective, 308.667, 0.01);
}

TEST(GoldenNumbers, DspDesign) {
    const auto g = apps::make_application("dsp");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 2, 1e9));
    const auto nm = nmap::map_with_single_path(g, ctx);
    EXPECT_DOUBLE_EQ(nm.comm_cost, 2600.0);
    EXPECT_DOUBLE_EQ(noc::max_load(nm.loads), 600.0);
}

TEST(GoldenNumbers, InitializeCosts) {
    // The constructive phase alone (ablation_search's "init" column).
    const struct {
        const char* app;
        double cost;
    } expected[] = {{"mpeg4", 5210}, {"vopd", 5484}, {"pip", 608},
                    {"mwa", 1376},   {"mwag", 1920}, {"dsd", 1728}};
    for (const auto& e : expected) {
        const auto g = apps::make_application(e.app);
        const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
        const auto mapping = nmap::initial_mapping(g, topo);
        EXPECT_DOUBLE_EQ(noc::communication_cost(topo, noc::build_commodities(g, mapping)),
                         e.cost)
            << e.app;
    }
}

} // namespace
} // namespace nocmap
