// Qualitative properties the paper's evaluation rests on. These are the
// "shape" claims of Figures 3/4 and Tables 1/2, asserted as invariants.

#include <gtest/gtest.h>

#include "apps/registry.hpp"
#include "baselines/gmap.hpp"
#include "baselines/pbb.hpp"
#include "baselines/pmap.hpp"
#include "graph/random_graph.hpp"
#include "lp/mcf.hpp"
#include "nmap/single_path.hpp"
#include "nmap/split.hpp"
#include "noc/commodity.hpp"

namespace nocmap {
namespace {

class VideoAppSweep : public ::testing::TestWithParam<const char*> {};

// Figure 3 shape, per app: NMAP never loses to GMAP and is never far from
// the better constructive baseline (PMAP can win on individual pipelines;
// the aggregate ordering is asserted separately below).
TEST_P(VideoAppSweep, NmapBeatsOrMatchesConstructiveBaselines) {
    const auto g = apps::make_application(GetParam());
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
    const double nmap_cost = nmap::map_with_single_path(g, ctx).comm_cost;
    const double pmap_cost = baselines::pmap_map(g, ctx).comm_cost;
    const double gmap_cost = baselines::gmap_map(g, ctx).comm_cost;
    EXPECT_LE(nmap_cost, gmap_cost + 1e-9);
    EXPECT_LE(nmap_cost, std::min(pmap_cost, gmap_cost) * 1.20);
}

// Figure 3 shape, aggregate: over the six applications NMAP is strictly
// cheaper than both PMAP and GMAP in total.
TEST(PaperProperties, NmapBeatsBaselinesInAggregate) {
    double nmap_total = 0.0, pmap_total = 0.0, gmap_total = 0.0;
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(g.node_count(), 1e9));
        nmap_total += nmap::map_with_single_path(g, ctx).comm_cost;
        pmap_total += baselines::pmap_map(g, ctx).comm_cost;
        gmap_total += baselines::gmap_map(g, ctx).comm_cost;
    }
    EXPECT_LT(nmap_total, pmap_total);
    EXPECT_LT(nmap_total, gmap_total);
}

// Figure 4 shape: for a fixed NMAP mapping, min-path routing needs no more
// bandwidth than dimension-ordered, quadrant splitting (TM) no more than
// min-path, and full splitting (TA) no more than TM.
TEST_P(VideoAppSweep, BandwidthOrderingAcrossRoutingModes) {
    const auto g = apps::make_application(GetParam());
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = nmap::map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, result.mapping);

    const double minpath_bw = noc::max_load(result.loads);

    lp::McfOptions tm;
    tm.objective = lp::McfObjective::MinMaxLoad;
    tm.quadrant_restricted = true;
    const double tm_bw = lp::solve_mcf(topo, d, tm).objective;

    lp::McfOptions ta = tm;
    ta.quadrant_restricted = false;
    const double ta_bw = lp::solve_mcf(topo, d, ta).objective;

    EXPECT_LE(tm_bw, minpath_bw + 1e-6) << "TM must not need more BW than min-path";
    EXPECT_LE(ta_bw, tm_bw + 1e-6) << "TA must not need more BW than TM";
    EXPECT_GT(ta_bw, 0.0);
}

// The split savings the paper reports (Table 1, bwr ~2x) must be visible:
// TA needs strictly less bandwidth than single-path on these apps.
TEST_P(VideoAppSweep, SplittingStrictlyReducesBandwidth) {
    const auto g = apps::make_application(GetParam());
    const auto topo = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto result = nmap::map_with_single_path(g, ctx);
    const auto d = noc::build_commodities(g, result.mapping);
    lp::McfOptions ta;
    ta.objective = lp::McfObjective::MinMaxLoad;
    const double ta_bw = lp::solve_mcf(topo, d, ta).objective;
    EXPECT_LT(ta_bw, noc::max_load(result.loads) * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Apps, VideoAppSweep,
                         ::testing::Values("mpeg4", "vopd", "pip", "mwa", "mwag",
                                           "dsd"));

// Table 2 shape: with a capped queue, PBB does not beat NMAP on larger
// random graphs (NMAP's swap search explores more of the space).
TEST(PaperProperties, NmapCompetitiveWithCappedPbbOnRandomGraphs) {
    graph::RandomGraphConfig cfg;
    cfg.core_count = 25;
    cfg.seed = 1;
    const auto g = generate_random_core_graph(cfg);
    const noc::EvalContext ctx(noc::Topology::smallest_mesh_for(cfg.core_count, 1e9));
    const auto nmap_result = nmap::map_with_single_path(g, ctx);
    baselines::PbbOptions pbb_opt;
    pbb_opt.queue_capacity = 2000;
    pbb_opt.max_expansions = 20000;
    const auto pbb_result = baselines::pbb_map(g, ctx, pbb_opt);
    EXPECT_LE(nmap_result.comm_cost, pbb_result.comm_cost * 1.05);
}

// On the small DSP design PBB (exact) and NMAP agree closely — the paper's
// "for small number of cores, PBB gives good performance, comparable to
// NMAP" observation, seen from the other side.
TEST(PaperProperties, SmallDesignsNearOptimal) {
    const auto g = apps::make_application("dsp");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 2, 1e9));
    baselines::PbbOptions exact;
    exact.queue_capacity = 0;
    exact.max_expansions = 0;
    const auto optimum = baselines::pbb_map(g, ctx, exact);
    const auto heuristic = nmap::map_with_single_path(g, ctx);
    EXPECT_LE(heuristic.comm_cost, optimum.comm_cost * 1.10);
}

// Table 3 shape: the DSP design needs 600 MB/s links with single-path
// routing (the heavy flows) but only ~200 MB/s when traffic is split.
TEST(PaperProperties, DspMinBandwidthSingleVsSplit) {
    const auto g = apps::make_application("dsp");
    const auto topo = noc::Topology::mesh(3, 2, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    const auto single = nmap::map_with_single_path(g, ctx);
    EXPECT_NEAR(noc::max_load(single.loads), 600.0, 1e-6);

    const auto d = noc::build_commodities(g, single.mapping);
    lp::McfOptions ta;
    ta.objective = lp::McfObjective::MinMaxLoad;
    const double split_bw = lp::solve_mcf(topo, d, ta).objective;
    EXPECT_LT(split_bw, 400.0);
    EXPECT_GE(split_bw, 200.0 - 1e-6);
}

// Jitter argument for NMAPTM: quadrant-restricted flows use only minimal
// paths, so every packet of a commodity sees the same hop count.
TEST(PaperProperties, QuadrantSplitKeepsHopCountUniform) {
    const auto g = apps::make_application("vopd");
    const auto topo = noc::Topology::mesh(4, 4, 1e9);
    const auto ctx = noc::EvalContext::borrow(topo);
    nmap::SplitOptions opt;
    opt.mode = nmap::SplitMode::MinPaths;
    const auto result = nmap::map_with_splitting(g, ctx, opt);
    ASSERT_TRUE(result.feasible);
    const auto d = noc::build_commodities(g, result.mapping);
    // Total flow equals Eq.7 cost exactly => all used paths are minimal.
    EXPECT_NEAR(result.comm_cost, noc::communication_cost(topo, d),
                1e-6 * result.comm_cost + 1e-6);
}

} // namespace
} // namespace nocmap
