#pragma once
// Linear program model (minimization, x >= 0).
//
// The paper solves its multi-commodity-flow programs MCF1/MCF2 with the
// external lp_solve package; this module is our from-scratch substitute.
// LpProblem is a simple sparse row model consumed by the simplex solver.

#include <cstdint>
#include <string>
#include <vector>

namespace nocmap::lp {

enum class Relation { LessEqual, GreaterEqual, Equal };

/// One sparse constraint row: sum(coeff * var) REL rhs.
struct Constraint {
    std::vector<std::pair<std::int32_t, double>> terms;
    Relation relation = Relation::LessEqual;
    double rhs = 0.0;
};

/// Minimize objective · x, subject to constraints, x >= 0.
class LpProblem {
public:
    /// Adds a variable with the given objective coefficient; returns its id.
    std::int32_t add_variable(double objective_coefficient, std::string name = {});

    /// Adds a constraint; duplicate variable ids within one row are summed.
    void add_constraint(Constraint constraint);
    void add_constraint(std::vector<std::pair<std::int32_t, double>> terms, Relation relation,
                        double rhs);

    /// Appends a variable with its column: `entries` are (constraint index,
    /// coefficient) pairs, each constraint index at most once. The new id is
    /// the largest, so every row's terms stay sorted — a problem grown this
    /// way is what SimplexSolver's appended-columns warm restart recognizes.
    std::int32_t add_column(double objective_coefficient,
                            const std::vector<std::pair<std::size_t, double>>& entries);

    std::size_t variable_count() const noexcept { return objective_.size(); }
    std::size_t constraint_count() const noexcept { return constraints_.size(); }
    const std::vector<double>& objective() const noexcept { return objective_; }
    const std::vector<Constraint>& constraints() const noexcept { return constraints_; }
    const std::string& variable_name(std::int32_t v) const {
        return names_.at(static_cast<std::size_t>(v));
    }

    /// Rewrites one constraint's right-hand side in place — the
    /// per-candidate refresh of a skeleton LP whose structure is fixed.
    void set_constraint_rhs(std::size_t index, double rhs);

    /// Rewrites one variable's objective coefficient in place.
    void set_objective_coefficient(std::int32_t variable, double coefficient);

    /// Throws std::logic_error on out-of-range variable ids or non-finite
    /// coefficients.
    void validate() const;

private:
    std::vector<double> objective_;
    std::vector<std::string> names_;
    std::vector<Constraint> constraints_;
};

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit, Cancelled };

struct LpSolution {
    LpStatus status = LpStatus::IterationLimit;
    double objective = 0.0;
    std::vector<double> x; ///< values of the original variables
    /// Row duals of an optimal solve, one per constraint: every variable's
    /// reduced cost c_j - sum_i duals[i] * a_ij is >= 0, duals are <= 0 on
    /// <= rows and >= 0 on >= rows, and sum_i duals[i] * rhs_i equals the
    /// objective. Empty unless status is Optimal.
    std::vector<double> duals;

    bool optimal() const noexcept { return status == LpStatus::Optimal; }
};

std::string to_string(LpStatus status);

} // namespace nocmap::lp
