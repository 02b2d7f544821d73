// Certificates of the exact MCF engine: verify_mcf_certificate accepts what
// the engine produces and rejects tampered duals, flows and verdicts.

#include <gtest/gtest.h>

#include "certified_mcf.hpp"

namespace nocmap::lp {
namespace {

noc::Commodity make_commodity(std::int32_t id, noc::TileId src, noc::TileId dst,
                              double value) {
    noc::Commodity c;
    c.id = id;
    c.src_core = id;
    c.dst_core = id + 100;
    c.src_tile = src;
    c.dst_tile = dst;
    c.value = value;
    return c;
}

/// Three commodities crossing a 3x3 mesh of 60-capacity links: MinFlow has
/// to detour, so several capacity rows are tight and their duals nonzero.
struct Congested {
    noc::Topology topo = noc::Topology::mesh(3, 3, 60.0);
    std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(2, 0), 70.0),
        make_commodity(1, topo.tile_at(0, 1), topo.tile_at(2, 1), 50.0),
        make_commodity(2, topo.tile_at(0, 2), topo.tile_at(2, 2), 20.0)};
    McfOptions options;
    Congested() { options.objective = McfObjective::MinFlow; }
};

TEST(McfCertificate, PerturbedDualIsRejected) {
    const Congested inst;
    const McfResult r = solve_certified(inst.topo, inst.d, inst.options);
    ASSERT_TRUE(r.feasible);
    ASSERT_TRUE(r.certificate.present);

    // Raising a demand dual makes some path price out.
    McfResult raised = r;
    raised.certificate.demand_duals[0] += 1e-3;
    EXPECT_FALSE(verify_mcf_certificate(inst.topo, inst.d, inst.options, raised));

    // Lowering it keeps every path priced in but opens a duality gap.
    McfResult lowered = r;
    lowered.certificate.demand_duals[0] -= 1e-3;
    const CertificateVerdict gap =
        verify_mcf_certificate(inst.topo, inst.d, inst.options, lowered);
    EXPECT_FALSE(gap);
    EXPECT_NE(gap.reason.find("gap"), std::string::npos) << gap.reason;

    // A tight link's dual moved: gap (or a priced-out path) again.
    std::size_t tight = r.certificate.link_duals.size();
    for (std::size_t l = 0; l < r.certificate.link_duals.size(); ++l)
        if (r.certificate.link_duals[l] < -1e-6) tight = l;
    ASSERT_LT(tight, r.certificate.link_duals.size()) << "instance has no tight link";
    McfResult shifted = r;
    shifted.certificate.link_duals[tight] *= 0.5;
    EXPECT_FALSE(verify_mcf_certificate(inst.topo, inst.d, inst.options, shifted));

    // A positive link dual is dual infeasible on a <= row.
    McfResult positive = r;
    positive.certificate.link_duals[0] = 1.0;
    EXPECT_FALSE(verify_mcf_certificate(inst.topo, inst.d, inst.options, positive));
}

TEST(McfCertificate, TamperedFlowsAreRejected) {
    const Congested inst;
    const McfResult r = solve_certified(inst.topo, inst.d, inst.options);
    McfResult moved = r;
    moved.flows[0][0] += 1.0;
    moved.loads[0] += 1.0;
    EXPECT_FALSE(verify_mcf_certificate(inst.topo, inst.d, inst.options, moved));
    McfResult unbalanced = r;
    unbalanced.loads[1] += 1.0;
    EXPECT_FALSE(verify_mcf_certificate(inst.topo, inst.d, inst.options, unbalanced));
}

TEST(McfCertificate, QuadrantFlowOutsideTheQuadrantIsRejected) {
    const auto topo = noc::Topology::mesh(3, 3, 1e9);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 0), 10.0)};
    McfOptions options;
    options.objective = McfObjective::MinMaxLoad;
    options.quadrant_restricted = true;
    const McfResult r = solve_certified(topo, d, options);
    // The same flows checked as all-paths pass; re-checked against a
    // different quadrant (another destination) they leave it.
    auto other = d;
    other[0].dst_tile = topo.tile_at(0, 1);
    EXPECT_FALSE(verify_mcf_certificate(topo, other, options, r));
}

TEST(McfCertificate, InfeasibleMinFlowCarriesAFarkasCertificate) {
    // 150 out of a corner whose two outgoing links carry 60 each.
    const auto topo = noc::Topology::mesh(2, 2, 60.0);
    const std::vector<noc::Commodity> d{
        make_commodity(0, topo.tile_at(0, 0), topo.tile_at(1, 1), 150.0)};
    McfOptions options;
    options.objective = McfObjective::MinFlow;
    const McfResult r = solve_certified(topo, d, options);
    EXPECT_FALSE(r.solved);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.status, LpStatus::Infeasible);
    EXPECT_TRUE(r.certificate.proves_infeasible);

    McfResult weakened = r;
    weakened.certificate.demand_duals[0] = 0.0;
    EXPECT_FALSE(verify_mcf_certificate(topo, d, options, weakened));
    // The same verdict claimed for MinSlack (always feasible) is rejected.
    McfOptions slack = options;
    slack.objective = McfObjective::MinSlack;
    EXPECT_FALSE(verify_mcf_certificate(topo, d, slack, r));
}

TEST(McfCertificate, ApproximateAnswersCarryNone) {
    const Congested inst;
    McfOptions approx = inst.options;
    approx.use_exact_lp = false;
    const McfResult r = solve_mcf(inst.topo, inst.d, approx);
    const CertificateVerdict verdict = verify_mcf_certificate(inst.topo, inst.d, approx, r);
    EXPECT_FALSE(verdict);
    EXPECT_EQ(verdict.reason, "result carries no certificate");
}

TEST(McfCertificate, CancelledSolveReturnsUnsolved) {
    const Congested inst;
    McfOptions options = inst.options;
    std::size_t polls = 0;
    options.cancel = [&polls] { return ++polls > 1; };
    const McfResult r = solve_mcf(inst.topo, inst.d, options);
    EXPECT_FALSE(r.solved);
    EXPECT_FALSE(r.feasible);
    EXPECT_EQ(r.status, LpStatus::Cancelled);
    EXPECT_EQ(polls, 2u); // one poll per pricing round, stopped at the second
    EXPECT_FALSE(verify_mcf_certificate(inst.topo, inst.d, options, r));
}

} // namespace
} // namespace nocmap::lp
