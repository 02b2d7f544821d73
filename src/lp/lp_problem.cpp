#include "lp/lp_problem.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

namespace nocmap::lp {

std::int32_t LpProblem::add_variable(double objective_coefficient, std::string name) {
    if (!std::isfinite(objective_coefficient))
        throw std::invalid_argument("LpProblem: non-finite objective coefficient");
    objective_.push_back(objective_coefficient);
    if (name.empty()) name = "x" + std::to_string(objective_.size() - 1);
    names_.push_back(std::move(name));
    return static_cast<std::int32_t>(objective_.size() - 1);
}

void LpProblem::add_constraint(Constraint constraint) {
    // Merge duplicate variable ids so the simplex sees a clean row.
    std::map<std::int32_t, double> merged;
    for (const auto& [var, coeff] : constraint.terms) {
        if (var < 0 || static_cast<std::size_t>(var) >= objective_.size())
            throw std::out_of_range("LpProblem: constraint references unknown variable");
        if (!std::isfinite(coeff))
            throw std::invalid_argument("LpProblem: non-finite constraint coefficient");
        merged[var] += coeff;
    }
    if (!std::isfinite(constraint.rhs))
        throw std::invalid_argument("LpProblem: non-finite rhs");
    constraint.terms.assign(merged.begin(), merged.end());
    constraints_.push_back(std::move(constraint));
}

void LpProblem::add_constraint(std::vector<std::pair<std::int32_t, double>> terms,
                               Relation relation, double rhs) {
    Constraint c;
    c.terms = std::move(terms);
    c.relation = relation;
    c.rhs = rhs;
    add_constraint(std::move(c));
}

std::int32_t LpProblem::add_column(double objective_coefficient,
                                   const std::vector<std::pair<std::size_t, double>>& entries) {
    for (const auto& [row, coeff] : entries) {
        if (row >= constraints_.size())
            throw std::out_of_range("LpProblem: column references unknown constraint");
        if (!std::isfinite(coeff))
            throw std::invalid_argument("LpProblem: non-finite constraint coefficient");
    }
    const std::int32_t var = add_variable(objective_coefficient);
    for (const auto& [row, coeff] : entries) constraints_[row].terms.emplace_back(var, coeff);
    return var;
}

void LpProblem::set_constraint_rhs(std::size_t index, double rhs) {
    if (index >= constraints_.size())
        throw std::out_of_range("LpProblem: constraint index out of range");
    if (!std::isfinite(rhs)) throw std::invalid_argument("LpProblem: non-finite rhs");
    constraints_[index].rhs = rhs;
}

void LpProblem::set_objective_coefficient(std::int32_t variable, double coefficient) {
    if (variable < 0 || static_cast<std::size_t>(variable) >= objective_.size())
        throw std::out_of_range("LpProblem: variable index out of range");
    if (!std::isfinite(coefficient))
        throw std::invalid_argument("LpProblem: non-finite objective coefficient");
    objective_[static_cast<std::size_t>(variable)] = coefficient;
}

void LpProblem::validate() const {
    for (const Constraint& c : constraints_) {
        for (const auto& [var, coeff] : c.terms) {
            if (var < 0 || static_cast<std::size_t>(var) >= objective_.size())
                throw std::logic_error("LpProblem: dangling variable id");
            if (!std::isfinite(coeff)) throw std::logic_error("LpProblem: non-finite coefficient");
        }
        if (!std::isfinite(c.rhs)) throw std::logic_error("LpProblem: non-finite rhs");
    }
}

std::string to_string(LpStatus status) {
    switch (status) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::IterationLimit: return "iteration-limit";
    case LpStatus::Cancelled: return "cancelled";
    }
    return "?";
}

} // namespace nocmap::lp
