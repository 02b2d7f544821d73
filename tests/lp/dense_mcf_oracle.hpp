#pragma once
// Dense arc-form MCF solver, kept as the oracle the column-generation
// engine is diffed against (see dense_mcf_oracle.cpp).

#include <vector>

#include "lp/mcf.hpp"

namespace nocmap::lp {

/// Solves the program `options` selects (objective, quadrant mode) over the
/// dense arc formulation. Same McfResult semantics as solve_mcf's exact
/// engine, without a certificate.
McfResult solve_mcf_dense(const noc::Topology& topo,
                          const std::vector<noc::Commodity>& commodities,
                          const McfOptions& options);

} // namespace nocmap::lp
