#include "lp/mcf.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "lp/mcf_approx.hpp"
#include "lp/mcf_colgen.hpp"

namespace nocmap::lp {

namespace {

/// Per-commodity allowed-link lists; `InQuadrant` is either the topology's
/// or the context's membership test (identical truth tables).
template <typename InQuadrant>
std::vector<noc::LinkId> allowed_links_impl(const noc::Topology& topo,
                                            const noc::Commodity& c,
                                            bool quadrant_restricted,
                                            InQuadrant&& in_quadrant) {
    std::vector<noc::LinkId> links;
    if (!quadrant_restricted) {
        links.resize(topo.link_count());
        for (std::size_t l = 0; l < topo.link_count(); ++l)
            links[l] = static_cast<noc::LinkId>(l);
        return links;
    }
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
        const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
        if (in_quadrant(link.src, c.src_tile, c.dst_tile) &&
            in_quadrant(link.dst, c.src_tile, c.dst_tile))
            links.push_back(static_cast<noc::LinkId>(l));
    }
    return links;
}

template <typename AllowedOf>
std::vector<std::vector<noc::LinkId>> allowed_per_commodity(
    const std::vector<noc::Commodity>& commodities, AllowedOf&& allowed_of) {
    std::vector<std::vector<noc::LinkId>> allowed;
    allowed.reserve(commodities.size());
    for (const noc::Commodity& c : commodities) allowed.push_back(allowed_of(c));
    return allowed;
}

} // namespace

std::vector<noc::LinkId> allowed_links(const noc::Topology& topo, const noc::Commodity& c,
                                       bool quadrant_restricted) {
    return allowed_links_impl(topo, c, quadrant_restricted,
                              [&topo](noc::TileId t, noc::TileId a, noc::TileId b) {
                                  return topo.in_quadrant(t, a, b);
                              });
}

std::vector<noc::LinkId> allowed_links(const noc::EvalContext& ctx, const noc::Commodity& c,
                                       bool quadrant_restricted) {
    return allowed_links_impl(ctx.topology(), c, quadrant_restricted,
                              [&ctx](noc::TileId t, noc::TileId a, noc::TileId b) {
                                  return ctx.in_quadrant(t, a, b);
                              });
}

double max_conservation_violation(const noc::Topology& topo,
                                  const std::vector<noc::Commodity>& commodities,
                                  const std::vector<std::vector<double>>& flows) {
    if (flows.size() != commodities.size())
        throw std::invalid_argument("max_conservation_violation: size mismatch");
    double worst = 0.0;
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        const noc::Commodity& c = commodities[k];
        for (std::size_t node = 0; node < topo.tile_count(); ++node) {
            const auto u = static_cast<noc::TileId>(node);
            double net = 0.0;
            for (const noc::LinkId l : topo.out_links(u))
                net += flows[k][static_cast<std::size_t>(l)];
            for (const noc::LinkId l : topo.in_links(u))
                net -= flows[k][static_cast<std::size_t>(l)];
            double expected = 0.0;
            if (u == c.src_tile) expected = c.value;
            else if (u == c.dst_tile) expected = -c.value;
            worst = std::max(worst, std::abs(net - expected));
        }
    }
    return worst;
}

std::vector<std::pair<noc::Route, double>> decompose_into_paths(
    const noc::Topology& topo, const noc::Commodity& commodity,
    const std::vector<double>& flow, double eps) {
    if (flow.size() != topo.link_count())
        throw std::invalid_argument("decompose_into_paths: flow vector size mismatch");
    std::vector<double> residual = flow;
    const double threshold = std::max(eps, eps * commodity.value);

    std::vector<std::pair<noc::Route, double>> paths;
    double extracted = 0.0;
    // Greedy path stripping: follow the largest-residual outgoing link from
    // src to dst; the min along the path is one path weight. Cycles in the
    // residual (possible only up to the LP regularizer) make a step revisit
    // a node; a visited-guard aborts that extraction.
    for (int guard = 0; guard < 256 && extracted < commodity.value * (1.0 - 1e-4); ++guard) {
        std::vector<char> visited(topo.tile_count(), 0);
        noc::Route route;
        noc::TileId at = commodity.src_tile;
        visited[static_cast<std::size_t>(at)] = 1;
        bool reached = at == commodity.dst_tile;
        while (!reached) {
            noc::LinkId best = noc::kInvalidLink;
            double best_flow = threshold;
            for (const noc::LinkId l : topo.out_links(at)) {
                if (residual[static_cast<std::size_t>(l)] > best_flow &&
                    !visited[static_cast<std::size_t>(topo.link(l).dst)]) {
                    best_flow = residual[static_cast<std::size_t>(l)];
                    best = l;
                }
            }
            if (best == noc::kInvalidLink) break;
            route.push_back(best);
            at = topo.link(best).dst;
            visited[static_cast<std::size_t>(at)] = 1;
            reached = at == commodity.dst_tile;
        }
        if (!reached) break;
        double weight = commodity.value;
        for (const noc::LinkId l : route)
            weight = std::min(weight, residual[static_cast<std::size_t>(l)]);
        if (weight <= threshold) break;
        for (const noc::LinkId l : route) residual[static_cast<std::size_t>(l)] -= weight;
        paths.emplace_back(std::move(route), weight);
        extracted += weight;
    }

    if (paths.empty())
        throw std::logic_error("decompose_into_paths: no path carries flow for commodity");
    // Normalize to fractions of the commodity value.
    double total = 0.0;
    for (const auto& [route, weight] : paths) total += weight;
    for (auto& [route, weight] : paths) weight /= total;
    return paths;
}

namespace {

McfResult empty_instance_result(const noc::Topology& topo) {
    McfResult empty;
    empty.solved = true;
    empty.feasible = true;
    empty.status = LpStatus::Optimal;
    empty.loads.assign(topo.link_count(), 0.0);
    empty.certificate.present = true;
    empty.certificate.link_duals.assign(topo.link_count(), 0.0);
    return empty;
}

} // namespace

McfResult solve_mcf(const noc::Topology& topo, const std::vector<noc::Commodity>& commodities,
                    const McfOptions& options) {
    if (commodities.empty()) return empty_instance_result(topo);
    if (options.use_exact_lp) {
        if (!options.quadrant_restricted)
            return solve_mcf_colgen(topo, commodities, options, nullptr);
        const auto allowed = allowed_per_commodity(commodities, [&](const noc::Commodity& c) {
            return allowed_links(topo, c, true);
        });
        return solve_mcf_colgen(topo, commodities, options, &allowed);
    }
    return solve_mcf_approx(topo, commodities, options);
}

McfResult solve_mcf(const noc::EvalContext& ctx, const std::vector<noc::Commodity>& commodities,
                    const McfOptions& options) {
    const noc::Topology& topo = ctx.topology();
    if (commodities.empty()) return empty_instance_result(topo);
    if (!options.use_exact_lp) return solve_mcf_approx(ctx, commodities, options);
    if (!options.quadrant_restricted)
        return solve_mcf_colgen(topo, commodities, options, nullptr);
    const auto allowed = allowed_per_commodity(commodities, [&](const noc::Commodity& c) {
        return allowed_links(ctx, c, true);
    });
    return solve_mcf_colgen(topo, commodities, options, &allowed);
}

// ----------------------------------------------------------------- McfSolver

McfSolver::McfSolver(const noc::EvalContext& ctx, McfOptions options)
    : ctx_(ctx), options_(std::move(options)) {}

McfResult McfSolver::solve(const std::vector<noc::Commodity>& commodities) {
    ++stats_.solves;
    const noc::Topology& topo = ctx_.topology();
    if (commodities.empty()) return empty_instance_result(topo);
    if (!options_.use_exact_lp) return solve_mcf_approx(ctx_, commodities, options_, &approx_);
    if (!options_.warm_start || options_.quadrant_restricted)
        return solve_mcf(ctx_, commodities, options_);
    McfResult result = solve_mcf_colgen(topo, commodities, options_, nullptr, &pool_);
    stats_.pool_seeded = pool_.seeded;
    return result;
}

} // namespace nocmap::lp
