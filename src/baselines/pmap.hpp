#pragma once
// PMAP — the two-phase cluster mapping algorithm of Koziris et al.
// ("An Efficient Algorithm for the Physical Mapping of Clustered Task
// Graphs onto Multiprocessor Architectures", EuroPDP 2000), the parallel-
// processing baseline the paper compares against.
//
// Reconstruction (reference code unavailable). PMAP first clusters the task
// graph to one cluster per processor; for the paper's experiments each core
// is already one cluster (|V| <= |U|), so phase 1 is the identity. Phase 2
// performs nearest-neighbour physical mapping:
//
//   * the cluster with the largest total communication is seeded on
//     processor 0 (PMAP targets generic multiprocessor enumerations and has
//     no notion of mesh centrality);
//   * repeatedly, the unmapped cluster with the *heaviest single edge* to a
//     mapped cluster is placed on the free processor closest to that
//     partner (BFS ring around the partner's tile).
//
// Unlike NMAP's initialize()/GMAP, placement only considers the heaviest
// partner — not the weighted distance to all mapped partners — which is why
// PMAP trails the other algorithms in the paper's Figure 3.

#include "graph/core_graph.hpp"
#include "nmap/result.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::baselines {

/// Runs PMAP and scores the mapping with NMAP's single-minimum-path router;
/// distances and the scoring re-route read the context's flat tables.
nmap::MappingResult pmap_map(const graph::CoreGraph& graph, const noc::EvalContext& ctx);
/// The raw placement (no routing evaluation).
noc::Mapping pmap_placement(const graph::CoreGraph& graph, const noc::EvalContext& ctx);

} // namespace nocmap::baselines
