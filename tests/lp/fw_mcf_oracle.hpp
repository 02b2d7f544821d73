#pragma once
// Dense Frank–Wolfe MCF, kept as the bit-identity oracle of the production
// kernel in lp/mcf_approx (see fw_mcf_oracle.cpp).

#include <vector>

#include "lp/mcf.hpp"

namespace nocmap::lp {

/// Runs the Frank–Wolfe iteration of solve_mcf_approx in its dense form:
/// one Dijkstra per commodity per iteration and a full (commodities x
/// links) blend and load rebuild.
McfResult solve_mcf_fw_oracle(const noc::Topology& topo,
                              const std::vector<noc::Commodity>& commodities,
                              const McfOptions& options);

} // namespace nocmap::lp
