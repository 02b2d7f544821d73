#pragma once
// GMAP — the greedy mapping algorithm the paper compares against ("the
// algorithm for UBC calculation in [8]", Hu & Marculescu, ASP-DAC 2003).
//
// Reconstruction (reference code unavailable): cores are ordered once by
// decreasing total communication demand; each core in that static order is
// placed on the free tile minimizing the partial Equation-7 cost to the
// cores already placed (the first core goes to a maximum-degree tile).
// The difference from NMAP's initialize() is the static order — GMAP does
// not re-select the next core by its communication with the mapped set.

#include "graph/core_graph.hpp"
#include "nmap/result.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::baselines {

/// Runs GMAP and scores the mapping with NMAP's single-minimum-path
/// router (cost = Eq. 7, feasibility = Inequality 3). Placement distances
/// and the scoring re-route read the context's flat tables.
nmap::MappingResult gmap_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx);

/// The raw greedy placement (no routing evaluation) — used by PBB as its
/// initial incumbent.
noc::Mapping gmap_placement(const graph::CoreGraph& graph, const noc::EvalContext& ctx);

} // namespace nocmap::baselines
