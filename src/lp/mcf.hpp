#pragma once
// Multi-commodity-flow formulations of the paper (Section 6).
//
//  * MinSlack  — MCF1 (Eq. 8): minimize total capacity violation.
//  * MinFlow   — MCF2 (Eq. 9): minimize total routed flow subject to link
//                capacities (equals bandwidth-weighted hop count).
//  * MinMaxLoad — auxiliary program: minimize the uniform link bandwidth
//                needed to carry all traffic (the Figure 4 metric for the
//                split-routing series NMAPTM / NMAPTA).
//
// Each can be restricted to the source–destination quadrant of every
// commodity (Eq. 10) — split across *minimum* paths only (the "TM" mode,
// equal hop delay, low jitter) — or allowed to use all paths ("TA").
//
// Two engines: the exact LP, solved by column generation over paths
// (lp/mcf_colgen, a small restricted master on lp/simplex), and a fast
// Frank–Wolfe approximation (lp/mcf_approx) used inside NMAP's
// pairwise-swap loop.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "lp/simplex.hpp"
#include "noc/commodity.hpp"
#include "noc/eval_context.hpp"
#include "noc/evaluation.hpp"
#include "noc/topology.hpp"

namespace nocmap::lp {

enum class McfObjective {
    MinSlack,   ///< MCF1
    MinFlow,    ///< MCF2
    MinMaxLoad, ///< min uniform capacity
};

struct McfOptions {
    McfObjective objective = McfObjective::MinFlow;
    /// Eq. 10: flow variables restricted to each commodity's quadrant.
    bool quadrant_restricted = false;
    /// Exact LP by column generation (true) or Frank–Wolfe approximation
    /// (false).
    bool use_exact_lp = true;
    /// Iterations for the approximate engine.
    std::size_t approx_iterations = 48;
    /// Reuse solver state across consecutive solves of perturbed instances.
    /// Exact engine only, and only through an McfSolver: column generation
    /// is then seeded with the previous optima's paths (ColumnPool). Off by
    /// default — the warm solves converge to the same objectives but may
    /// pick different cost-equal optima, so the default results stay
    /// bit-identical to the one-shot engine. The Frank–Wolfe engine ignores
    /// it.
    bool warm_start = false;
    SimplexOptions simplex{};
    /// Cooperative cancellation of the exact engine, polled once per
    /// pricing round; a cancelled solve returns unsolved with status
    /// LpStatus::Cancelled.
    std::function<bool()> cancel;
};

/// Dual certificate of an exact solve, checked by verify_mcf_certificate.
/// For an optimal result the duals give every allowed path of commodity k a
/// non-negative reduced cost (its weight under link weights flow_cost - y_l,
/// minus demand_duals[k]) and their objective equals the primal one. For an
/// infeasible MinFlow result they are phase-1 duals with a positive
/// objective, a lower bound on the unroutable demand.
struct McfCertificate {
    bool present = false;
    bool proves_infeasible = false;
    std::vector<double> demand_duals; ///< u_k, one per commodity
    std::vector<double> link_duals;   ///< y_l <= 0, one per link
};

struct McfResult {
    bool solved = false;   ///< engine completed (LP optimal / FW converged)
    bool feasible = false; ///< bandwidth constraints satisfiable
    /// MinSlack: Σ slack; MinFlow: Σ flow; MinMaxLoad: max load.
    double objective = 0.0;
    noc::LinkLoads loads;                   ///< aggregate per-link traffic
    std::vector<std::vector<double>> flows; ///< [commodity][link] traffic
    LpStatus status = LpStatus::IterationLimit;
    /// Frank–Wolfe engine: shortest-path searches run (one per commodity for
    /// the initial assignment, plus one per commodity for every iteration
    /// whose link costs changed). 0 from the exact engine.
    std::size_t path_searches = 0;
    /// Filled by the exact engine (and for the empty instance); absent from
    /// Frank–Wolfe answers.
    McfCertificate certificate;
};

/// Solves the selected MCF program for a fixed mapping (commodities already
/// carry tile endpoints).
McfResult solve_mcf(const noc::Topology& topo, const std::vector<noc::Commodity>& commodities,
                    const McfOptions& options = {});

/// Context-threaded variant: quadrant membership comes from the context's
/// distance table instead of per-call topology arithmetic. Produces the
/// identical program (EvalContext::in_quadrant ≡ Topology::in_quadrant) and
/// therefore bit-identical results.
McfResult solve_mcf(const noc::EvalContext& ctx, const std::vector<noc::Commodity>& commodities,
                    const McfOptions& options = {});

/// Links commodity k may use: all links, or (quadrant mode) links whose
/// both endpoints lie in the quadrant of (src_tile, dst_tile).
std::vector<noc::LinkId> allowed_links(const noc::Topology& topo, const noc::Commodity& c,
                                       bool quadrant_restricted);
std::vector<noc::LinkId> allowed_links(const noc::EvalContext& ctx, const noc::Commodity& c,
                                       bool quadrant_restricted);

/// Scratch of the Frank–Wolfe engine (lp/mcf_approx), reusable across
/// solves (McfSolver carries one). What outlives a solve is the routing
/// graph, the quadrant masks and each commodity slot's latest path with
/// the link costs it was computed under. Dijkstra is a pure function of
/// (graph, mask, costs, source, destination), the graph depends only on the
/// fabric's links and a mask only on its commodity's endpoints, so a result
/// never depends on what earlier solves left here; a solve on a fabric
/// with other links drops it all.
struct ApproxWorkspace {
    /// Per commodity k.
    struct Slot {
        /// Quadrant mode: 1 for the tiles of the quadrant of
        /// (mask_src, mask_dst), the tiles its flow may visit.
        std::vector<char> mask;
        noc::TileId mask_src = noc::kInvalidTile;
        noc::TileId mask_dst = noc::kInvalidTile;
        /// Latest cheapest path, computed under path_cost from path_src to
        /// path_dst (kInvalidTile: none).
        std::vector<noc::LinkId> path;
        noc::TileId path_src = noc::kInvalidTile;
        noc::TileId path_dst = noc::kInvalidTile;
        /// Flow support: the links this solve's flow has used, each once.
        std::vector<noc::LinkId> support;
    };
    /// (src, dst) of every link of the fabric; tile u's out-arcs
    /// (link, next tile) are arcs[first[u] .. first[u + 1]), in link order.
    std::vector<std::pair<noc::TileId, noc::TileId>> link_ends;
    std::vector<std::uint32_t> first;
    std::vector<std::pair<noc::LinkId, noc::TileId>> arcs;
    std::vector<Slot> slots;
    bool quadrant_paths = false; ///< routing mode the slots' paths were computed in
    /// Link costs the slots' paths were computed under, and this
    /// iteration's.
    std::vector<double> path_cost;
    std::vector<double> cost;
    /// Per link: stamp of the latest commodity whose support listed it.
    std::vector<std::size_t> mark;
    /// Dijkstra buffers.
    std::vector<double> dist;
    std::vector<noc::LinkId> via;
    std::vector<noc::TileId> prev;
    std::vector<std::pair<double, noc::TileId>> heap;
};

/// Column pool of the exact engine, carried across solves by McfSolver's
/// warm exact mode: for each (source tile, destination tile) pair, the
/// paths that carried flow in the latest optimum with those endpoints.
/// Allowed paths depend only on the endpoints, so they seed any later
/// commodity with the same pair.
struct ColumnPool {
    /// Paths of the pair (src, dst) at src * tile_count + dst.
    std::vector<std::vector<noc::Route>> paths;
    std::size_t seeded = 0; ///< commodities seeded from the pool so far

    std::vector<noc::Route>& paths_of(const noc::Commodity& c, std::size_t tile_count) {
        paths.resize(tile_count * tile_count);
        return paths[static_cast<std::size_t>(c.src_tile) * tile_count +
                     static_cast<std::size_t>(c.dst_tile)];
    }
};

/// Persistent MCF engine for a chain of per-candidate instances — the swap
/// sweeps of the split mappers solve the same program over and over with
/// only the commodity tile endpoints moving. The solver keeps:
///
///   * exact engine, all-paths mode, warm_start: a ColumnPool. A swap moves only the
///     commodities touching the two tiles; every other commodity starts
///     its column generation from the paths of the previous optimum
///     instead of a fresh min-hop seed, so congested candidates need fewer
///     pricing rounds;
///   * approximate engine: an ApproxWorkspace (routing graphs, the
///     unmoved commodities' min-hop paths and scratch buffers; results
///     stay bit-identical to one-shot solves, with or without warm_start);
///   * exact engine, quadrant mode: no state; every candidate is solved
///     cold (the documented fallback).
///
/// The caller must keep the EvalContext alive for the solver's lifetime.
/// Without warm_start the exact engine simply forwards to solve_mcf().
class McfSolver {
public:
    McfSolver(const noc::EvalContext& ctx, McfOptions options);

    /// Solves for the given commodity endpoints (any commodity count).
    McfResult solve(const std::vector<noc::Commodity>& commodities);

    struct Stats {
        std::size_t solves = 0;
        std::size_t pool_seeded = 0; ///< commodities seeded from the column pool
    };
    const Stats& stats() const noexcept { return stats_; }

private:
    const noc::EvalContext& ctx_;
    McfOptions options_;
    ApproxWorkspace approx_;
    ColumnPool pool_;
    Stats stats_;
};

struct CertificateVerdict {
    bool ok = false;
    std::string reason; ///< why the certificate was rejected; empty when ok
    explicit operator bool() const noexcept { return ok; }
};

/// Independently checks an exact result against its certificate:
///   * the arc flows use only allowed links, conserve flow (Eq. 5/6), sum
///     to the loads and respect the capacities (MinFlow) or the reported
///     slack / bandwidth (MinSlack / MinMaxLoad);
///   * one more pricing pass over all commodities finds no path with
///     reduced cost below -eps * max(1, |u_k|), and the auxiliary columns
///     (slack, z) and link duals are dual feasible;
///   * primal and dual objectives match within 1e-9 relative.
/// An infeasibility certificate must instead give a positive phase-1 dual
/// objective under the same pricing check.
CertificateVerdict verify_mcf_certificate(const noc::Topology& topo,
                                          const std::vector<noc::Commodity>& commodities,
                                          const McfOptions& options, const McfResult& result,
                                          double eps = 1e-7);

/// Verifies Eq. 5/6 flow conservation of a per-commodity flow matrix;
/// returns the largest violation found (0 for a perfect solution).
double max_conservation_violation(const noc::Topology& topo,
                                  const std::vector<noc::Commodity>& commodities,
                                  const std::vector<std::vector<double>>& flows);

/// Decomposes one commodity's fractional link flow into weighted paths
/// (weights sum to ~1 after normalization) — this is how the split-traffic
/// solution becomes the NoC's multipath routing tables. Tiny residuals and
/// flow cycles below `eps` (relative to the commodity value) are discarded.
std::vector<std::pair<noc::Route, double>> decompose_into_paths(
    const noc::Topology& topo, const noc::Commodity& commodity,
    const std::vector<double>& flow, double eps = 1e-6);

} // namespace nocmap::lp
