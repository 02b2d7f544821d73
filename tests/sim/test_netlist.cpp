#include "sim/netlist.hpp"

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "nmap/shortest_path_router.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"
#include "noc/commodity.hpp"
#include "sim/simulator.hpp"

namespace nocmap::sim {
namespace {

struct Design {
    graph::CoreGraph graph = apps::make_application("dsp");
    noc::Topology topo = noc::Topology::mesh(3, 2, 1e9);
    nmap::MappingResult result;
    std::vector<noc::Commodity> commodities;
    std::vector<FlowSpec> flows;

    Design() {
        const auto ctx = noc::EvalContext::borrow(topo);
        result = nmap::map_with_single_path(graph, ctx);
        commodities = noc::build_commodities(graph, result.mapping);
        const auto routed = nmap::route_single_min_paths(ctx, commodities);
        flows = make_single_path_flows(topo, commodities, routed.routes);
    }
};

TEST(Netlist, ContainsAllComponents) {
    Design d;
    const auto text = netlist_to_string(d.graph, d.topo, d.result.mapping, d.flows);
    // 6 routers, 6 NIs, 14 links, 8 flows.
    for (int r = 0; r < 6; ++r)
        EXPECT_NE(text.find("router r" + std::to_string(r) + " "), std::string::npos);
    EXPECT_NE(text.find("ni ni0"), std::string::npos);
    EXPECT_NE(text.find("core arm"), std::string::npos);
    EXPECT_NE(text.find("link l0"), std::string::npos);
    EXPECT_NE(text.find("flow f7"), std::string::npos);
    EXPECT_NE(text.find("fabric mesh 3x2"), std::string::npos);
}

TEST(Netlist, EveryFlowListsItsPaths) {
    Design d;
    const auto text = netlist_to_string(d.graph, d.topo, d.result.mapping, d.flows);
    std::size_t path_lines = 0;
    std::size_t pos = 0;
    while ((pos = text.find("  path w=", pos)) != std::string::npos) {
        ++path_lines;
        ++pos;
    }
    std::size_t expected = 0;
    for (const auto& f : d.flows) expected += f.paths.size();
    EXPECT_EQ(path_lines, expected);
}

TEST(Netlist, SplitTablesStayUnderTenPercentOfBufferBits) {
    // The paper's overhead argument: routing tables < 10% of buffer bits.
    Design d;
    nmap::SplitOptions opt;
    const auto split = nmap::map_with_splitting(d.graph, noc::EvalContext::borrow(d.topo), opt);
    ASSERT_TRUE(split.feasible);
    const auto commodities = noc::build_commodities(d.graph, split.mapping);
    const auto flows = make_split_flows(d.topo, commodities, split.flows);
    const auto [table_bits, buffer_bits] = routing_table_overhead(d.topo, flows);
    EXPECT_GT(table_bits, 0u);
    EXPECT_LT(static_cast<double>(table_bits), 0.10 * static_cast<double>(buffer_bits));
}

class NetlistOverheadSweep : public ::testing::TestWithParam<const char*> {};

// The paper's Section-6 argument quantified across every application: the
// split routing tables stay below 10% of the network buffer bits.
TEST_P(NetlistOverheadSweep, SplitTablesUnderTenPercent) {
    const auto g = apps::make_application(GetParam());
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto mapped = nmap::map_with_single_path(g, ctx);
    ASSERT_TRUE(mapped.feasible);
    const auto d = noc::build_commodities(g, mapped.mapping);
    lp::McfOptions mcf;
    mcf.objective = lp::McfObjective::MinMaxLoad;
    const auto split = lp::solve_mcf(topo, d, mcf);
    ASSERT_TRUE(split.solved);
    const auto flows = make_split_flows(topo, d, split.flows);
    const auto [table_bits, buffer_bits] = routing_table_overhead(topo, flows);
    EXPECT_LT(static_cast<double>(table_bits), 0.10 * static_cast<double>(buffer_bits))
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Apps, NetlistOverheadSweep,
                         ::testing::Values("mpeg4", "vopd", "pip", "mwa", "mwag",
                                           "dsd", "dsp"));

TEST(Netlist, DesignNamePropagates) {
    Design d;
    NetlistConfig cfg;
    cfg.design_name = "dsp_filter_noc";
    const auto text =
        netlist_to_string(d.graph, d.topo, d.result.mapping, d.flows, cfg);
    EXPECT_EQ(text.rfind("design dsp_filter_noc", 0), 0u);
}

} // namespace
} // namespace nocmap::sim
