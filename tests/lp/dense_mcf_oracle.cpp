// Dense arc-form MCF: the test oracle for the column-generation engine.
//
// One flow variable per (commodity, allowed link), one conservation row per
// (commodity, non-destination tile), one capacity row per link, solved cold
// by lp::solve_lp. This was the production exact engine before column
// generation; its tableau grows as (commodities x links) columns, so it is
// only fit for the <= 16-tile instances the differential tests use.

#include "dense_mcf_oracle.hpp"

#include <stdexcept>
#include <string>

#include "lp/mcf_colgen.hpp"

namespace nocmap::lp {

namespace {

McfResult extract(const noc::Topology& topo, const std::vector<noc::Commodity>& commodities,
                  const McfOptions& options, const LpSolution& lp,
                  const std::vector<std::vector<std::int32_t>>& var_of,
                  const std::vector<std::int32_t>& slack_var, std::int32_t z_var) {
    const std::size_t link_count = topo.link_count();
    McfResult result;
    result.status = lp.status;
    result.solved = lp.status == LpStatus::Optimal;
    result.loads.assign(link_count, 0.0);
    result.flows.assign(commodities.size(), std::vector<double>(link_count, 0.0));
    if (!result.solved) {
        // MinFlow with tight capacities can be genuinely infeasible; that is
        // a meaningful answer, not an error.
        result.feasible = false;
        return result;
    }

    for (std::size_t k = 0; k < commodities.size(); ++k)
        for (std::size_t l = 0; l < link_count; ++l) {
            const std::int32_t v = var_of[k][l];
            if (v < 0) continue;
            const double flow = lp.x[static_cast<std::size_t>(v)];
            result.flows[k][l] = flow;
            result.loads[l] += flow;
        }

    switch (options.objective) {
    case McfObjective::MinSlack: {
        double slack_total = 0.0;
        for (std::size_t l = 0; l < link_count; ++l)
            slack_total += lp.x[static_cast<std::size_t>(slack_var[l])];
        result.objective = slack_total;
        result.feasible = slack_total <= 1e-6 * std::max(1.0, noc::total_value(commodities));
        break;
    }
    case McfObjective::MinFlow:
        result.objective = noc::total_flow(result.loads);
        result.feasible = true;
        break;
    case McfObjective::MinMaxLoad:
        result.objective = lp.x[static_cast<std::size_t>(z_var)];
        result.feasible = true;
        break;
    }
    return result;
}

} // namespace

McfResult solve_mcf_dense(const noc::Topology& topo,
                          const std::vector<noc::Commodity>& commodities,
                          const McfOptions& options) {
    if (commodities.empty()) return solve_mcf(topo, commodities, options);
    std::vector<std::vector<noc::LinkId>> allowed;
    for (const noc::Commodity& c : commodities)
        allowed.push_back(allowed_links(topo, c, options.quadrant_restricted));
    const std::size_t link_count = topo.link_count();
    LpProblem problem;
    // var_of[k][link] = LP variable id, or -1 when the link is not allowed
    // for commodity k.
    std::vector<std::vector<std::int32_t>> var_of(commodities.size(),
                                                  std::vector<std::int32_t>(link_count, -1));

    const double flow_cost = flow_cost_of(options.objective);

    // Flow variables.
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        for (const noc::LinkId l : allowed[k]) {
            var_of[k][static_cast<std::size_t>(l)] = problem.add_variable(flow_cost);
        }
    }

    // Slack / min-max auxiliaries.
    std::vector<std::int32_t> slack_var; // MinSlack: one per link
    std::int32_t z_var = -1;             // MinMaxLoad
    if (options.objective == McfObjective::MinSlack) {
        slack_var.assign(link_count, -1);
        for (std::size_t l = 0; l < link_count; ++l)
            slack_var[l] = problem.add_variable(1.0, "s" + std::to_string(l));
    } else if (options.objective == McfObjective::MinMaxLoad) {
        z_var = problem.add_variable(1.0, "z");
    }

    // Flow conservation (Eq. 5/6) per commodity and node; the destination
    // row is the negated sum of the others and is dropped to reduce
    // degeneracy.
    for (std::size_t k = 0; k < commodities.size(); ++k) {
        const noc::Commodity& c = commodities[k];
        for (std::size_t node = 0; node < topo.tile_count(); ++node) {
            const auto u = static_cast<noc::TileId>(node);
            if (u == c.dst_tile) continue;
            std::vector<std::pair<std::int32_t, double>> terms;
            for (const noc::LinkId l : topo.out_links(u)) {
                const std::int32_t v = var_of[k][static_cast<std::size_t>(l)];
                if (v >= 0) terms.emplace_back(v, 1.0);
            }
            for (const noc::LinkId l : topo.in_links(u)) {
                const std::int32_t v = var_of[k][static_cast<std::size_t>(l)];
                if (v >= 0) terms.emplace_back(v, -1.0);
            }
            const double rhs = (u == c.src_tile) ? c.value : 0.0;
            if (terms.empty()) {
                if (rhs != 0.0)
                    throw std::logic_error("MCF: source has no allowed outgoing links");
                continue;
            }
            problem.add_constraint(std::move(terms), Relation::Equal, rhs);
        }
    }

    // Capacity rows (Inequality 3, with the objective-specific auxiliary).
    for (std::size_t l = 0; l < link_count; ++l) {
        std::vector<std::pair<std::int32_t, double>> terms;
        for (std::size_t k = 0; k < commodities.size(); ++k) {
            const std::int32_t v = var_of[k][l];
            if (v >= 0) terms.emplace_back(v, 1.0);
        }
        if (terms.empty()) continue;
        switch (options.objective) {
        case McfObjective::MinSlack:
            terms.emplace_back(slack_var[l], -1.0);
            problem.add_constraint(std::move(terms), Relation::LessEqual,
                                   topo.link(static_cast<noc::LinkId>(l)).capacity);
            break;
        case McfObjective::MinFlow:
            problem.add_constraint(std::move(terms), Relation::LessEqual,
                                   topo.link(static_cast<noc::LinkId>(l)).capacity);
            break;
        case McfObjective::MinMaxLoad:
            terms.emplace_back(z_var, -1.0);
            problem.add_constraint(std::move(terms), Relation::LessEqual, 0.0);
            break;
        }
    }

    const LpSolution lp = solve_lp(problem, options.simplex);
    return extract(topo, commodities, options, lp, var_of, slack_var, z_var);
}

} // namespace nocmap::lp
