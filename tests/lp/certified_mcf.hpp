#pragma once
// Test helper: an exact MCF solve whose certificate is verified on the spot.

#include <gtest/gtest.h>

#include <vector>

#include "lp/mcf.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::lp {

/// solve_mcf with the exact engine, plus an EXPECT that the result's
/// certificate verifies (optimality, or infeasibility for MinFlow).
inline McfResult solve_certified(const noc::Topology& topo,
                                 const std::vector<noc::Commodity>& commodities,
                                 const McfOptions& options) {
    McfResult result = solve_mcf(topo, commodities, options);
    const CertificateVerdict verdict =
        verify_mcf_certificate(topo, commodities, options, result);
    EXPECT_TRUE(verdict.ok) << verdict.reason;
    return result;
}

inline McfResult solve_certified(const noc::EvalContext& ctx,
                                 const std::vector<noc::Commodity>& commodities,
                                 const McfOptions& options) {
    McfResult result = solve_mcf(ctx, commodities, options);
    const CertificateVerdict verdict =
        verify_mcf_certificate(ctx.topology(), commodities, options, result);
    EXPECT_TRUE(verdict.ok) << verdict.reason;
    return result;
}

} // namespace nocmap::lp
