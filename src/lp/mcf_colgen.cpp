#include "lp/mcf_colgen.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <string>

namespace nocmap::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A priced path enters the pool when its reduced cost is below
/// -kPricingTolerance * max(1, |demand dual|).
constexpr double kPricingTolerance = 1e-9;

/// Cap on pricing rounds per phase. Every round adds a path not yet in the
/// pool and the path sets are finite, so the loop ends without it; the cap
/// only bounds a loop that numerical trouble keeps from converging.
constexpr std::size_t kMaxRounds = 4096;

/// Cheapest src->dst path of a commodity over its allowed links (Dijkstra;
/// the weights are non-negative). `allowed` null means every link.
class PathPricer {
public:
    PathPricer(const noc::Topology& topo, const std::vector<std::vector<noc::LinkId>>* allowed)
        : topo_(topo), dist_(topo.tile_count()), via_(topo.tile_count()) {
        if (!allowed) return;
        allowed_.assign(allowed->size(), std::vector<char>(topo.link_count(), 0));
        for (std::size_t k = 0; k < allowed->size(); ++k)
            for (const noc::LinkId l : (*allowed)[k])
                allowed_[k][static_cast<std::size_t>(l)] = 1;
    }

    /// Weight of the cheapest allowed path of commodity k under `weight`,
    /// infinity when its destination is unreachable; the links land in
    /// `path`, source first.
    double shortest(std::size_t k, const noc::Commodity& c, const std::vector<double>& weight,
                    std::vector<noc::LinkId>& path) {
        using Entry = std::pair<double, noc::TileId>;
        std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
        std::fill(dist_.begin(), dist_.end(), kInf);
        std::fill(via_.begin(), via_.end(), noc::kInvalidLink);
        const char* allowed = allowed_.empty() ? nullptr : allowed_[k].data();
        dist_[static_cast<std::size_t>(c.src_tile)] = 0.0;
        heap.emplace(0.0, c.src_tile);
        while (!heap.empty()) {
            const auto [d, u] = heap.top();
            heap.pop();
            if (d > dist_[static_cast<std::size_t>(u)]) continue;
            if (u == c.dst_tile) break;
            for (const noc::LinkId l : topo_.out_links(u)) {
                if (allowed && !allowed[static_cast<std::size_t>(l)]) continue;
                const auto v = static_cast<std::size_t>(topo_.link(l).dst);
                const double nd = d + weight[static_cast<std::size_t>(l)];
                if (nd < dist_[v]) {
                    dist_[v] = nd;
                    via_[v] = l;
                    heap.emplace(nd, topo_.link(l).dst);
                }
            }
        }
        path.clear();
        const double total = dist_[static_cast<std::size_t>(c.dst_tile)];
        if (total == kInf) return kInf;
        for (noc::TileId at = c.dst_tile; at != c.src_tile;) {
            const noc::LinkId l = via_[static_cast<std::size_t>(at)];
            path.push_back(l);
            at = topo_.link(l).src;
        }
        std::reverse(path.begin(), path.end());
        return total;
    }

    bool allows(std::size_t k, std::size_t link) const {
        return allowed_.empty() || allowed_[k][link] != 0;
    }

private:
    const noc::Topology& topo_;
    std::vector<std::vector<char>> allowed_; ///< [commodity][link] mask; empty = all
    std::vector<double> dist_;
    std::vector<noc::LinkId> via_;
};

/// One exact solve. Master rows: demand row k (= value of commodity k),
/// then capacity row K + l. Master variables: the non-path columns first
/// (phase 1: one artificial per commodity; phase 2: MinSlack's per-link
/// slacks or MinMaxLoad's z), then the path pool in pool order.
class ColumnGeneration {
public:
    ColumnGeneration(const noc::Topology& topo, const std::vector<noc::Commodity>& commodities,
                     const McfOptions& options,
                     const std::vector<std::vector<noc::LinkId>>* allowed)
        : topo_(topo), commodities_(commodities), options_(options), pricer_(topo, allowed),
          k_count_(commodities.size()), l_count_(topo.link_count()),
          flow_cost_(flow_cost_of(options.objective)),
          phase1_tolerance_(std::max(options.simplex.eps, 1e-6)),
          pool_of_(commodities.size()) {}

    McfResult run(ColumnPool* carried) {
        // Seeds: the carried paths of the commodity's endpoint pair, else
        // one min-hop allowed path.
        const std::vector<double> hops(l_count_, 1.0);
        for (std::size_t k = 0; k < k_count_; ++k) {
            const noc::Commodity& c = commodities_[k];
            if (carried) {
                const std::vector<noc::Route>& routes = carried->paths_of(c, topo_.tile_count());
                if (!routes.empty()) {
                    for (const noc::Route& route : routes) {
                        path_ = route;
                        add_to_pool(k);
                    }
                    ++carried->seeded;
                    continue;
                }
            }
            if (pricer_.shortest(k, c, hops, path_) == kInf)
                return unsolved(LpStatus::Infeasible, nullptr);
            add_to_pool(k);
        }

        // Every commodity on one min-hop seed and no link overloaded: that
        // routing attains the lower bound sum(value * distance) of MinFlow,
        // and of MinSlack's regularized objective at zero slack, so it is
        // optimal with zero link duals; no master solve is needed.
        if (options_.objective != McfObjective::MinMaxLoad && seeds_are_min_hop() &&
            !seeds_overload()) {
            const LpSolution seeds = seed_routing();
            if (carried) carry(seeds, *carried);
            return extract(seeds);
        }

        // Phase 1 (MinFlow only, and only when the seeds overload a link):
        // drive the artificial columns out, or prove infeasibility.
        if (options_.objective == McfObjective::MinFlow && seeds_overload()) {
            LpProblem master = make_master(true);
            const LpSolution phase1 = generate(master, true);
            if (!phase1.optimal()) return unsolved(phase1.status, nullptr);
            if (phase1.objective > phase1_tolerance_)
                return unsolved(LpStatus::Infeasible, &phase1);
        }

        LpProblem master = make_master(false);
        const LpSolution phase2 = generate(master, false);
        if (!phase2.optimal()) return unsolved(phase2.status, nullptr);
        if (carried) carry(phase2, *carried);
        return extract(phase2);
    }

private:
    struct Column {
        std::size_t commodity;
        std::vector<noc::LinkId> links;
    };

    std::size_t capacity_row(std::size_t link) const { return k_count_ + link; }

    /// Adds path_ to commodity k's pool unless it is already there.
    bool add_to_pool(std::size_t k) {
        for (const std::size_t i : pool_of_[k])
            if (pool_[i].links == path_) return false;
        pool_of_[k].push_back(pool_.size());
        pool_.push_back(Column{k, path_});
        return true;
    }

    /// Non-path master columns ahead of the paths (see the class comment).
    std::size_t aux_columns(bool phase1) const {
        if (phase1) return k_count_;
        switch (options_.objective) {
        case McfObjective::MinSlack: return l_count_;
        case McfObjective::MinFlow: return 0;
        case McfObjective::MinMaxLoad: return 1;
        }
        return 0;
    }

    bool seeds_are_min_hop() const {
        for (std::size_t k = 0; k < k_count_; ++k) {
            const noc::Commodity& c = commodities_[k];
            if (pool_of_[k].size() != 1 ||
                pool_[pool_of_[k].front()].links.size() !=
                    static_cast<std::size_t>(topo_.distance(c.src_tile, c.dst_tile)))
                return false;
        }
        return true;
    }

    /// The phase-2 master solution that routes every commodity on its only
    /// seed, with its optimality duals: y = 0, u_k = flow cost of the seed.
    LpSolution seed_routing() {
        first_path_var_ = aux_columns(false);
        LpSolution seeds;
        seeds.status = LpStatus::Optimal;
        seeds.x.assign(first_path_var_ + pool_.size(), 0.0);
        seeds.duals.assign(k_count_ + l_count_, 0.0);
        for (std::size_t k = 0; k < k_count_; ++k) {
            const std::size_t i = pool_of_[k].front();
            seeds.x[first_path_var_ + i] = commodities_[k].value;
            seeds.duals[k] = flow_cost_ * static_cast<double>(pool_[i].links.size());
            seeds.objective += seeds.duals[k] * commodities_[k].value;
        }
        return seeds;
    }

    /// True when routing every commodity on its first seed overloads a link.
    bool seeds_overload() const {
        std::vector<double> loads(l_count_, 0.0);
        for (std::size_t k = 0; k < k_count_; ++k)
            for (const noc::LinkId l : pool_[pool_of_[k].front()].links)
                loads[static_cast<std::size_t>(l)] += commodities_[k].value;
        for (std::size_t l = 0; l < l_count_; ++l)
            if (loads[l] > topo_.link(static_cast<noc::LinkId>(l)).capacity) return true;
        return false;
    }

    void add_to_master(LpProblem& master, const Column& column, bool phase1) const {
        std::vector<std::pair<std::size_t, double>> entries;
        entries.reserve(column.links.size() + 1);
        entries.emplace_back(column.commodity, 1.0);
        for (const noc::LinkId l : column.links)
            entries.emplace_back(capacity_row(static_cast<std::size_t>(l)), 1.0);
        master.add_column(
            phase1 ? 0.0 : flow_cost_ * static_cast<double>(column.links.size()), entries);
    }

    LpProblem make_master(bool phase1) {
        LpProblem master;
        for (const noc::Commodity& c : commodities_)
            master.add_constraint({}, Relation::Equal, c.value);
        for (std::size_t l = 0; l < l_count_; ++l)
            master.add_constraint({}, Relation::LessEqual,
                                  options_.objective == McfObjective::MinMaxLoad
                                      ? 0.0
                                      : topo_.link(static_cast<noc::LinkId>(l)).capacity);
        if (phase1) {
            for (std::size_t k = 0; k < k_count_; ++k) master.add_column(1.0, {{k, 1.0}});
        } else if (options_.objective == McfObjective::MinSlack) {
            for (std::size_t l = 0; l < l_count_; ++l)
                master.add_column(1.0, {{capacity_row(l), -1.0}});
        } else if (options_.objective == McfObjective::MinMaxLoad) {
            std::vector<std::pair<std::size_t, double>> entries;
            for (std::size_t l = 0; l < l_count_; ++l) entries.emplace_back(capacity_row(l), -1.0);
            master.add_column(1.0, entries);
        }
        first_path_var_ = aux_columns(phase1);
        for (const Column& column : pool_) add_to_master(master, column, phase1);
        return master;
    }

    /// One pricing pass under the master duals: every commodity's cheapest
    /// path under weights (per-hop cost - y_l) enters the pool when its
    /// reduced cost is negative. Returns the number of columns added.
    std::size_t price(const LpSolution& solution, bool phase1, LpProblem& master) {
        const double per_hop = phase1 ? 0.0 : flow_cost_;
        for (std::size_t l = 0; l < l_count_; ++l)
            weight_[l] = std::max(0.0, per_hop - solution.duals[capacity_row(l)]);
        std::size_t added = 0;
        for (std::size_t k = 0; k < k_count_; ++k) {
            const double u = solution.duals[k];
            const double reduced = pricer_.shortest(k, commodities_[k], weight_, path_) - u;
            if (!(reduced < -kPricingTolerance * std::max(1.0, std::abs(u)))) continue;
            if (!add_to_pool(k)) continue;
            add_to_master(master, pool_.back(), phase1);
            ++added;
        }
        return added;
    }

    /// Column generation on `master` until no path prices out (phase 1
    /// also stops at a zero objective). Every round only appends columns,
    /// so the simplex restarts warm from the previous basis.
    LpSolution generate(LpProblem& master, bool phase1) {
        SimplexSolver solver;
        weight_.assign(l_count_, 0.0);
        for (std::size_t round = 0;; ++round) {
            if (options_.cancel && options_.cancel()) {
                LpSolution cancelled;
                cancelled.status = LpStatus::Cancelled;
                return cancelled;
            }
            LpSolution solution = solver.solve(master, options_.simplex);
            if (!solution.optimal()) return solution;
            if (phase1 && solution.objective <= phase1_tolerance_) return solution;
            if (price(solution, phase1, master) == 0) return solution;
            if (round + 1 >= kMaxRounds) {
                solution.status = LpStatus::IterationLimit;
                return solution;
            }
        }
    }

    /// Replaces the carried paths of every endpoint pair solved here with
    /// the paths that carry flow in `solution`.
    void carry(const LpSolution& solution, ColumnPool& carried) const {
        const std::size_t tiles = topo_.tile_count();
        for (const noc::Commodity& c : commodities_) carried.paths_of(c, tiles).clear();
        for (std::size_t i = 0; i < pool_.size(); ++i) {
            if (solution.x[first_path_var_ + i] <= 0.0) continue;
            std::vector<noc::Route>& routes =
                carried.paths_of(commodities_[pool_[i].commodity], tiles);
            if (std::find(routes.begin(), routes.end(), pool_[i].links) == routes.end())
                routes.push_back(pool_[i].links);
        }
    }

    McfCertificate certificate_of(const LpSolution& solution, bool proves_infeasible) const {
        McfCertificate certificate;
        certificate.present = true;
        certificate.proves_infeasible = proves_infeasible;
        certificate.demand_duals.assign(solution.duals.begin(),
                                        solution.duals.begin() +
                                            static_cast<std::ptrdiff_t>(k_count_));
        certificate.link_duals.assign(
            solution.duals.begin() + static_cast<std::ptrdiff_t>(k_count_),
            solution.duals.end());
        return certificate;
    }

    /// Unsolved answer (infeasible, cancelled, stalled); `farkas` carries
    /// the phase-1 solution whose duals prove infeasibility.
    McfResult unsolved(LpStatus status, const LpSolution* farkas) const {
        McfResult result;
        result.status = status;
        result.loads.assign(l_count_, 0.0);
        result.flows.assign(k_count_, std::vector<double>(l_count_, 0.0));
        if (farkas) result.certificate = certificate_of(*farkas, true);
        return result;
    }

    McfResult extract(const LpSolution& solution) const {
        McfResult result;
        result.status = LpStatus::Optimal;
        result.solved = true;
        result.loads.assign(l_count_, 0.0);
        result.flows.assign(k_count_, std::vector<double>(l_count_, 0.0));
        for (std::size_t i = 0; i < pool_.size(); ++i) {
            const double x = solution.x[first_path_var_ + i];
            if (x == 0.0) continue;
            std::vector<double>& flow = result.flows[pool_[i].commodity];
            for (const noc::LinkId l : pool_[i].links) flow[static_cast<std::size_t>(l)] += x;
        }
        for (std::size_t k = 0; k < k_count_; ++k)
            for (std::size_t l = 0; l < l_count_; ++l) result.loads[l] += result.flows[k][l];

        switch (options_.objective) {
        case McfObjective::MinSlack: {
            double slack_total = 0.0;
            for (std::size_t l = 0; l < l_count_; ++l) slack_total += solution.x[l];
            result.objective = slack_total;
            result.feasible =
                slack_total <= 1e-6 * std::max(1.0, noc::total_value(commodities_));
            break;
        }
        case McfObjective::MinFlow:
            result.objective = noc::total_flow(result.loads);
            result.feasible = true;
            break;
        case McfObjective::MinMaxLoad:
            result.objective = solution.x[0];
            result.feasible = true;
            break;
        }
        result.certificate = certificate_of(solution, false);
        return result;
    }

    const noc::Topology& topo_;
    const std::vector<noc::Commodity>& commodities_;
    const McfOptions& options_;
    PathPricer pricer_;
    const std::size_t k_count_;
    const std::size_t l_count_;
    const double flow_cost_;
    const double phase1_tolerance_;

    std::vector<Column> pool_;
    std::vector<std::vector<std::size_t>> pool_of_; ///< pool indices per commodity
    std::size_t first_path_var_ = 0;
    std::vector<double> weight_;       ///< pricing weight per link
    std::vector<noc::LinkId> path_;    ///< path found by the last pricing call
};

} // namespace

McfResult solve_mcf_colgen(const noc::Topology& topo,
                           const std::vector<noc::Commodity>& commodities,
                           const McfOptions& options,
                           const std::vector<std::vector<noc::LinkId>>* allowed,
                           ColumnPool* pool) {
    return ColumnGeneration(topo, commodities, options, allowed).run(pool);
}

CertificateVerdict verify_mcf_certificate(const noc::Topology& topo,
                                          const std::vector<noc::Commodity>& commodities,
                                          const McfOptions& options, const McfResult& result,
                                          double eps) {
    const auto reject = [](std::string reason) {
        return CertificateVerdict{false, std::move(reason)};
    };
    const McfCertificate& cert = result.certificate;
    const std::size_t k_count = commodities.size();
    const std::size_t l_count = topo.link_count();
    if (!cert.present) return reject("result carries no certificate");
    if (cert.demand_duals.size() != k_count || cert.link_duals.size() != l_count)
        return reject("certificate has the wrong number of duals");
    if (result.flows.size() != k_count || result.loads.size() != l_count)
        return reject("flows/loads have the wrong shape");
    for (const auto& flow : result.flows)
        if (flow.size() != l_count) return reject("flows have the wrong shape");

    std::vector<std::vector<noc::LinkId>> allowed;
    allowed.reserve(k_count);
    for (const noc::Commodity& c : commodities)
        allowed.push_back(allowed_links(topo, c, options.quadrant_restricted));
    PathPricer pricer(topo, &allowed);
    const std::vector<double>& y = cert.link_duals;
    const std::vector<double>& u = cert.demand_duals;

    for (std::size_t l = 0; l < l_count; ++l)
        if (y[l] > eps)
            return reject("link " + std::to_string(l) + " has a positive dual " +
                          std::to_string(y[l]));

    // Dual feasibility of every path column: no allowed path is cheaper
    // under weights (per-hop cost - y_l) than its commodity's demand dual.
    std::vector<noc::LinkId> path;
    const auto price_all = [&](double per_hop) -> std::string {
        std::vector<double> weight(l_count);
        for (std::size_t l = 0; l < l_count; ++l) weight[l] = std::max(0.0, per_hop - y[l]);
        for (std::size_t k = 0; k < k_count; ++k) {
            const double reduced = pricer.shortest(k, commodities[k], weight, path) - u[k];
            if (reduced < -eps * std::max(1.0, std::abs(u[k])))
                return "commodity " + std::to_string(k) +
                       " has a path with reduced cost " + std::to_string(reduced);
        }
        return {};
    };
    double dual = 0.0;
    for (std::size_t k = 0; k < k_count; ++k) dual += u[k] * commodities[k].value;
    if (options.objective != McfObjective::MinMaxLoad)
        for (std::size_t l = 0; l < l_count; ++l)
            dual += y[l] * topo.link(static_cast<noc::LinkId>(l)).capacity;

    if (cert.proves_infeasible) {
        // Phase-1 duals: min sum of artificials >= dual > 0.
        if (options.objective != McfObjective::MinFlow)
            return reject("infeasibility certificate for an always-feasible objective");
        if (result.solved || result.feasible)
            return reject("infeasibility certificate on a solved result");
        for (std::size_t k = 0; k < k_count; ++k)
            if (u[k] > 1.0 + eps) return reject("artificial column prices out");
        if (std::string failure = price_all(0.0); !failure.empty()) return reject(failure);
        if (!(dual > std::max(options.simplex.eps, 1e-6)))
            return reject("phase-1 dual objective " + std::to_string(dual) +
                          " does not prove infeasibility");
        return CertificateVerdict{true, {}};
    }
    if (!result.solved) return reject("unsolved result without an infeasibility certificate");

    // Primal feasibility of the reported arc flows.
    const double scale = std::max(1.0, noc::total_value(commodities));
    const double tol = 1e-9 * scale;
    for (std::size_t k = 0; k < k_count; ++k)
        for (std::size_t l = 0; l < l_count; ++l) {
            const double f = result.flows[k][l];
            if (f < -tol || (f > tol && !pricer.allows(k, l)))
                return reject("commodity " + std::to_string(k) + " has flow " +
                              std::to_string(f) + " on link " + std::to_string(l));
        }
    if (const double violation = max_conservation_violation(topo, commodities, result.flows);
        violation > tol)
        return reject("flow conservation violated by " + std::to_string(violation));
    double total = 0.0;
    double excess = 0.0;
    for (std::size_t l = 0; l < l_count; ++l) {
        double load = 0.0;
        for (std::size_t k = 0; k < k_count; ++k) load += result.flows[k][l];
        if (std::abs(load - result.loads[l]) > tol)
            return reject("load of link " + std::to_string(l) + " is not its flow sum");
        total += result.loads[l];
        excess += std::max(0.0, result.loads[l] - topo.link(static_cast<noc::LinkId>(l)).capacity);
    }

    const double flow_cost = flow_cost_of(options.objective);
    double primal = flow_cost * total;
    switch (options.objective) {
    case McfObjective::MinFlow:
        if (excess > tol) return reject("loads exceed capacity by " + std::to_string(excess));
        if (!result.feasible || std::abs(result.objective - total) > tol)
            return reject("MinFlow objective is not the total flow");
        break;
    case McfObjective::MinSlack:
        if (result.objective < excess - tol)
            return reject("reported slack is below the capacity excess");
        if (result.feasible != (result.objective <= 1e-6 * scale))
            return reject("feasibility verdict disagrees with the slack");
        for (std::size_t l = 0; l < l_count; ++l)
            if (y[l] < -1.0 - eps) return reject("slack column prices out");
        primal += result.objective;
        break;
    case McfObjective::MinMaxLoad: {
        if (result.objective < noc::max_load(result.loads) - tol)
            return reject("reported bandwidth is below the maximum load");
        double z_reduced = 1.0;
        for (const double dual_l : y) z_reduced += dual_l;
        if (z_reduced < -eps) return reject("z column prices out");
        primal += result.objective;
        break;
    }
    }
    if (std::string failure = price_all(flow_cost); !failure.empty()) return reject(failure);

    if (std::abs(primal - dual) > 1e-9 * std::max({1.0, std::abs(primal), std::abs(dual)}))
        return reject("duality gap: primal " + std::to_string(primal) + ", dual " +
                      std::to_string(dual));
    return CertificateVerdict{true, {}};
}

} // namespace nocmap::lp
