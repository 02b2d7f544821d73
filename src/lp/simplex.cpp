#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace nocmap::lp {

// --------------------------------------------------------------- TableauView

void TableauView::pivot(std::size_t row, std::size_t col) {
    double* pivot_row = cells_ + row * stride_;
    const double inv = 1.0 / pivot_row[col];
    for (std::size_t c = 0; c <= cols_; ++c) pivot_row[c] *= inv;
    pivot_row[col] = 1.0; // kill round-off on the pivot cell

    for (std::size_t r = 0; r < rows_; ++r) {
        if (r == row) continue;
        double* other = cells_ + r * stride_;
        const double factor = other[col];
        if (factor == 0.0) continue;
        for (std::size_t c = 0; c <= cols_; ++c) other[c] -= factor * pivot_row[c];
        other[col] = 0.0;
    }
    const double cost_factor = cost_[col];
    if (cost_factor != 0.0) {
        for (std::size_t c = 0; c < cols_; ++c) cost_[c] -= cost_factor * pivot_row[c];
        cost_[cols_] -= cost_factor * pivot_row[cols_];
        cost_[col] = 0.0;
    }
    basis_[row] = static_cast<std::int32_t>(col);
}

void TableauView::remove_row(std::size_t row) {
    if (row + 1 < rows_) {
        std::memmove(cells_ + row * stride_, cells_ + (row + 1) * stride_,
                     (rows_ - row - 1) * stride_ * sizeof(double));
        std::memmove(basis_ + row, basis_ + row + 1,
                     (rows_ - row - 1) * sizeof(std::int32_t));
    }
    --rows_;
}

// ------------------------------------------------------------------- Tableau

double* Tableau::cells() noexcept { return reinterpret_cast<double*>(buffer_.get()); }

double* Tableau::cost_row() noexcept { return cells() + row_capacity_ * stride(); }

std::int32_t* Tableau::basis() noexcept {
    return reinterpret_cast<std::int32_t*>(cells() + (row_capacity_ + 1) * stride());
}

void Tableau::reserve(std::size_t row_capacity, std::size_t col_capacity) {
    if (buffer_ && row_capacity <= row_capacity_ && col_capacity <= col_capacity_) return;
    // Geometric growth so chained solves of slowly growing programs do not
    // reallocate per solve.
    row_capacity_ = std::max(row_capacity, row_capacity_ + row_capacity_ / 2);
    col_capacity_ = std::max(col_capacity, col_capacity_ + col_capacity_ / 2);
    const std::size_t doubles = (row_capacity_ + 1) * stride();
    bytes_ = doubles * sizeof(double) + row_capacity_ * sizeof(std::int32_t);
    buffer_ = std::make_unique<std::byte[]>(bytes_);
}

TableauView Tableau::reset(std::size_t rows, std::size_t cols) {
    reserve(rows, cols);
    rows_ = rows;
    cols_ = cols;
    std::fill(cells(), cells() + rows * stride(), 0.0);
    std::fill(cost_row(), cost_row() + stride(), 0.0);
    std::fill(basis(), basis() + rows, std::int32_t{-1});
    return view();
}

TableauView Tableau::view() noexcept {
    return TableauView(cells(), cost_row(), basis(), rows_, cols_, stride());
}

void Tableau::insert_columns(std::size_t at, std::size_t count) {
    if (count == 0) return;
    const std::size_t cols = cols_ + count;
    if (cols > col_capacity_) {
        // The stride changes: copy row by row into a fresh (zeroed) buffer.
        Tableau grown;
        grown.reserve(row_capacity_, std::max(cols, col_capacity_ + col_capacity_ / 2));
        grown.rows_ = rows_;
        grown.cols_ = cols;
        for (std::size_t r = 0; r <= rows_; ++r) {
            const double* from = r < rows_ ? cells() + r * stride() : cost_row();
            double* to = r < rows_ ? grown.cells() + r * grown.stride() : grown.cost_row();
            std::copy(from, from + at, to);
            std::copy(from + at, from + cols_ + 1, to + at + count);
        }
        std::copy(basis(), basis() + rows_, grown.basis());
        *this = std::move(grown);
        return;
    }
    for (std::size_t r = 0; r <= rows_; ++r) {
        double* row = r < rows_ ? cells() + r * stride() : cost_row();
        std::copy_backward(row + at, row + cols_ + 1, row + cols + 1);
        std::fill(row + at, row + at + count, 0.0);
    }
    cols_ = cols;
}

// ---------------------------------------------------------------- pivot loop

namespace {

enum class PivotOutcome { Optimal, Unbounded, IterationLimit };

/// Runs the primal pivot loop to optimality of the current cost row.
/// `allowed[c]` masks which columns may enter the basis.
PivotOutcome optimize(TableauView& tab, const std::vector<char>& allowed,
                      const SimplexOptions& options, std::size_t max_iterations,
                      std::size_t& iterations_used) {
    const double eps = options.eps;
    for (std::size_t iter = 0; iter < max_iterations; ++iter) {
        const bool bland = iter >= options.bland_threshold;

        // Entering column: most negative reduced cost (Dantzig) or first
        // negative (Bland).
        std::int64_t entering = -1;
        double best = -eps;
        for (std::size_t c = 0; c < tab.cols(); ++c) {
            if (!allowed[c]) continue;
            const double reduced = tab.cost(c);
            if (reduced < best) {
                entering = static_cast<std::int64_t>(c);
                if (bland) break;
                best = reduced;
            }
        }
        if (entering < 0) {
            iterations_used += iter;
            return PivotOutcome::Optimal;
        }

        // Ratio test; Bland tie-break on the smallest basis variable.
        std::int64_t leaving = -1;
        double best_ratio = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < tab.rows(); ++r) {
            const double a = tab.at(r, static_cast<std::size_t>(entering));
            if (a <= eps) continue;
            const double ratio = tab.rhs(r) / a;
            if (ratio < best_ratio - eps ||
                (ratio < best_ratio + eps && leaving >= 0 &&
                 tab.basis(r) < tab.basis(static_cast<std::size_t>(leaving)))) {
                best_ratio = ratio;
                leaving = static_cast<std::int64_t>(r);
            }
        }
        if (leaving < 0) {
            iterations_used += iter;
            return PivotOutcome::Unbounded;
        }
        tab.pivot(static_cast<std::size_t>(leaving), static_cast<std::size_t>(entering));
    }
    iterations_used += max_iterations;
    return PivotOutcome::IterationLimit;
}

} // namespace

// ------------------------------------------------------------- SimplexSolver

void SimplexSolver::invalidate() noexcept {
    warm_valid_ = false;
    warm_streak_ = 0;
}

SimplexSolver::Change SimplexSolver::classify(const LpProblem& problem) const {
    if (problem.constraint_count() != prev_problem_.constraint_count())
        return Change::Structure;
    const auto& prev = prev_problem_.constraints();
    const auto& next = problem.constraints();
    const std::size_t old_vars = prev_problem_.variable_count();
    if (problem.variable_count() != old_vars) {
        if (problem.variable_count() < old_vars ||
            !std::equal(prev_problem_.objective().begin(), prev_problem_.objective().end(),
                        problem.objective().begin()))
            return Change::Structure;
        for (std::size_t i = 0; i < next.size(); ++i) {
            const auto& old_terms = prev[i].terms;
            const auto& new_terms = next[i].terms;
            if (next[i].relation != prev[i].relation || next[i].rhs != prev[i].rhs ||
                new_terms.size() < old_terms.size() ||
                !std::equal(old_terms.begin(), old_terms.end(), new_terms.begin()))
                return Change::Structure;
            for (std::size_t t = old_terms.size(); t < new_terms.size(); ++t)
                if (static_cast<std::size_t>(new_terms[t].first) < old_vars)
                    return Change::Structure;
        }
        return Change::Columns;
    }
    bool rhs_changed = false;
    for (std::size_t i = 0; i < next.size(); ++i) {
        if (next[i].relation != prev[i].relation || next[i].terms != prev[i].terms)
            return Change::Structure;
        if (next[i].rhs != prev[i].rhs) rhs_changed = true;
    }
    const bool cost_changed = problem.objective() != prev_problem_.objective();
    // A combined rhs+cost perturbation has no single-phase restart (neither
    // primal nor dual feasibility survives); treat it as a structure change
    // and solve cold.
    if (rhs_changed && cost_changed) return Change::Structure;
    if (rhs_changed) return Change::Rhs;
    if (cost_changed) return Change::Cost;
    return Change::None;
}

LpSolution SimplexSolver::extract(const LpProblem& problem, TableauView& tab) const {
    LpSolution solution;
    solution.status = LpStatus::Optimal;
    solution.x.assign(problem.variable_count(), 0.0);
    for (std::size_t r = 0; r < tab.rows(); ++r) {
        const auto b = static_cast<std::size_t>(tab.basis(r));
        if (b < n_struct_) solution.x[b] = tab.rhs(r);
    }
    // Clamp tiny negative round-off.
    for (double& v : solution.x)
        if (v < 0.0 && v > -1e-7) v = 0.0;
    solution.objective = -tab.cost_rhs();
    // Row i's initial identity column holds -(c_B B^-1)_i of the
    // sign-normalized system: the dual of that row, up to the row's sign.
    solution.duals.resize(problem.constraint_count());
    for (std::size_t i = 0; i < solution.duals.size(); ++i)
        solution.duals[i] =
            -row_sign_[i] * tab.cost(static_cast<std::size_t>(init_basis_col_[i]));
    return solution;
}

void SimplexSolver::append_columns(const LpProblem& problem) {
    const std::size_t old_struct = n_struct_;
    const std::size_t added = problem.variable_count() - old_struct;
    tableau_.insert_columns(old_struct, added);
    TableauView tab = tableau_.view();
    const auto shifted = [&](std::int32_t col) {
        return static_cast<std::size_t>(col) >= old_struct
                   ? col + static_cast<std::int32_t>(added)
                   : col;
    };
    for (std::size_t r = 0; r < tab.rows(); ++r) tab.set_basis(r, shifted(tab.basis(r)));
    for (std::int32_t& col : init_basis_col_) col = shifted(col);
    allowed_.insert(allowed_.begin() + static_cast<std::ptrdiff_t>(old_struct), added, 1);
    n_struct_ += added;
    n_total_ += added;

    // A new column's tableau entries are B^-1 (S a) and its reduced cost is
    // c - y·a; both are sums over the initial identity columns of its rows.
    for (std::size_t v = old_struct; v < n_struct_; ++v) tab.cost(v) = problem.objective()[v];
    const auto& constraints = problem.constraints();
    for (std::size_t i = 0; i < constraints.size(); ++i) {
        const auto init = static_cast<std::size_t>(init_basis_col_[i]);
        const auto& terms = constraints[i].terms;
        for (auto it = terms.rbegin();
             it != terms.rend() && static_cast<std::size_t>(it->first) >= old_struct; ++it) {
            const auto col = static_cast<std::size_t>(it->first);
            const double a = row_sign_[i] * it->second;
            for (std::size_t r = 0; r < tab.rows(); ++r) tab.at(r, col) += a * tab.at(r, init);
            tab.cost(col) += a * tab.cost(init);
        }
    }
}

bool SimplexSolver::try_warm(const LpProblem& problem, const SimplexOptions& options,
                             Change change, LpSolution& solution) {
    if (change == Change::Columns) append_columns(problem);
    TableauView tab = tableau_.view();
    const std::size_t m = tab.rows();
    const double eps = options.eps;
    const std::size_t cap =
        options.warm_iteration_cap ? options.warm_iteration_cap : 4 * m + 64;

    if (change == Change::Rhs) {
        // Dual-simplex restart: the basis stays dual feasible (costs are
        // unchanged), so only the basic solution b̂ = B⁻¹·b_new must be
        // recomputed. B⁻¹ sits in the tableau columns that formed the
        // initial identity (the slack/artificial column of each row).
        const auto& constraints = problem.constraints();
        std::vector<std::pair<std::size_t, double>> rhs_terms; // (row j, S_j * b_j)
        for (std::size_t j = 0; j < m; ++j) {
            const double b = row_sign_[j] * constraints[j].rhs;
            if (b != 0.0) rhs_terms.emplace_back(static_cast<std::size_t>(init_basis_col_[j]), b);
        }
        for (std::size_t r = 0; r < m; ++r) {
            double acc = 0.0;
            for (const auto& [col, b] : rhs_terms) acc += tab.at(r, col) * b;
            tab.rhs(r) = acc;
        }
        // Objective value of the restarted basis: z = c_B · b̂.
        double z = 0.0;
        for (std::size_t r = 0; r < m; ++r) {
            const auto b = static_cast<std::size_t>(tab.basis(r));
            if (b < n_struct_) z += problem.objective()[b] * tab.rhs(r);
        }
        tab.cost_rhs() = -z;

        for (std::size_t iter = 0; iter < cap; ++iter) {
            const bool bland = iter >= options.bland_threshold;
            // Leaving row: most negative basic value (or the first, under
            // the anti-cycling rule).
            std::int64_t leaving = -1;
            double most = -eps;
            for (std::size_t r = 0; r < m; ++r) {
                const double v = tab.rhs(r);
                if (v < most) {
                    leaving = static_cast<std::int64_t>(r);
                    if (bland) break;
                    most = v;
                }
            }
            if (leaving < 0) {
                solution = extract(problem, tab);
                prev_problem_ = problem;
                prev_solution_ = solution;
                stats_.pivots += iter;
                return true;
            }
            // Entering column: the dual ratio test — smallest reduced cost
            // per unit of |pivot| among negative entries of the leaving row
            // keeps the cost row dual feasible. Ties break to the smallest
            // column index (deterministic, Bland-flavoured).
            std::int64_t entering = -1;
            double best_ratio = std::numeric_limits<double>::infinity();
            for (std::size_t c = 0; c < n_total_; ++c) {
                if (!allowed_[c]) continue;
                const double a = tab.at(static_cast<std::size_t>(leaving), c);
                if (a >= -eps) continue;
                const double ratio = tab.cost(c) / (-a);
                if (ratio < best_ratio - eps) {
                    best_ratio = ratio;
                    entering = static_cast<std::int64_t>(c);
                }
            }
            // No admissible pivot: the row proves primal infeasibility (or
            // the warm state has drifted) — let the cold path decide, so a
            // warm solve never reports a status the cold path would not.
            if (entering < 0) return false;
            tab.pivot(static_cast<std::size_t>(leaving), static_cast<std::size_t>(entering));
        }
        stats_.pivots += cap;
        return false; // stalled — fall back cold
    }

    // Cost-only change or appended columns: the basic solution stays primal
    // feasible; continue with phase-2 primal pivots from the current basis
    // (after rebuilding the reduced-cost row for a new objective).
    if (change == Change::Cost) rebuild_cost_row(problem, tab);
    std::size_t iterations_used = 0;
    const PivotOutcome outcome = optimize(tab, allowed_, options, cap, iterations_used);
    stats_.pivots += iterations_used;
    if (outcome != PivotOutcome::Optimal) return false; // unbounded/stall -> cold decides
    solution = extract(problem, tab);
    prev_problem_ = problem;
    prev_solution_ = solution;
    return true;
}

void SimplexSolver::rebuild_cost_row(const LpProblem& problem, TableauView& tab) const {
    const std::size_t m = tab.rows();
    for (std::size_t c = 0; c < n_total_; ++c)
        tab.cost(c) = c < n_struct_ ? problem.objective()[c] : 0.0;
    tab.cost_rhs() = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
        const auto b = static_cast<std::size_t>(tab.basis(r));
        const double cost_b = tab.cost(b);
        if (cost_b == 0.0) continue;
        for (std::size_t c = 0; c < n_total_; ++c) tab.cost(c) -= cost_b * tab.at(r, c);
        tab.cost_rhs() -= cost_b * tab.rhs(r);
        tab.cost(b) = 0.0;
    }
}

LpSolution SimplexSolver::solve_cold(const LpProblem& problem, const SimplexOptions& options) {
    ++stats_.cold_solves;
    warm_valid_ = false;
    warm_streak_ = 0;

    const std::size_t n_struct = problem.variable_count();
    const std::size_t m = problem.constraint_count();

    // Column layout: [structural | slack/surplus | artificial].
    std::size_t n_slack = 0;
    std::size_t n_artificial = 0;
    for (const Constraint& c : problem.constraints()) {
        // Rows are normalized to rhs >= 0 below, which can flip the relation.
        Relation rel = c.relation;
        if (c.rhs < 0.0) {
            if (rel == Relation::LessEqual) rel = Relation::GreaterEqual;
            else if (rel == Relation::GreaterEqual) rel = Relation::LessEqual;
        }
        switch (rel) {
        case Relation::LessEqual: ++n_slack; break;
        case Relation::GreaterEqual: ++n_slack; ++n_artificial; break;
        case Relation::Equal: ++n_artificial; break;
        }
    }
    const std::size_t n_total = n_struct + n_slack + n_artificial;

    n_struct_ = n_struct;
    n_slack_ = n_slack;
    n_artificial_ = n_artificial;
    n_total_ = n_total;

    TableauView tab = tableau_.reset(m, n_total);
    std::vector<char> is_artificial(n_total, 0);
    row_sign_.assign(m, 1.0);
    init_basis_col_.assign(m, -1);

    std::size_t next_slack = n_struct;
    std::size_t next_artificial = n_struct + n_slack;
    for (std::size_t r = 0; r < m; ++r) {
        const Constraint& c = problem.constraints()[r];
        const double sign = c.rhs < 0.0 ? -1.0 : 1.0;
        Relation rel = c.relation;
        if (sign < 0.0) {
            if (rel == Relation::LessEqual) rel = Relation::GreaterEqual;
            else if (rel == Relation::GreaterEqual) rel = Relation::LessEqual;
        }
        for (const auto& [var, coeff] : c.terms)
            tab.at(r, static_cast<std::size_t>(var)) += sign * coeff;
        tab.rhs(r) = sign * c.rhs;
        row_sign_[r] = sign;

        switch (rel) {
        case Relation::LessEqual:
            tab.at(r, next_slack) = 1.0;
            tab.set_basis(r, static_cast<std::int32_t>(next_slack));
            init_basis_col_[r] = static_cast<std::int32_t>(next_slack);
            ++next_slack;
            break;
        case Relation::GreaterEqual:
            tab.at(r, next_slack) = -1.0;
            ++next_slack;
            tab.at(r, next_artificial) = 1.0;
            is_artificial[next_artificial] = 1;
            tab.set_basis(r, static_cast<std::int32_t>(next_artificial));
            init_basis_col_[r] = static_cast<std::int32_t>(next_artificial);
            ++next_artificial;
            break;
        case Relation::Equal:
            tab.at(r, next_artificial) = 1.0;
            is_artificial[next_artificial] = 1;
            tab.set_basis(r, static_cast<std::int32_t>(next_artificial));
            init_basis_col_[r] = static_cast<std::int32_t>(next_artificial);
            ++next_artificial;
            break;
        }
    }

    const std::size_t iteration_cap = options.max_iterations
                                          ? options.max_iterations
                                          : 64 * (m + n_total) + 4096;
    std::size_t iterations_used = 0;
    allowed_.assign(n_total, 1);

    LpSolution solution;

    // ---- Phase 1: minimize the sum of artificial variables. ----
    if (n_artificial > 0) {
        for (std::size_t c = 0; c < n_total; ++c) tab.cost(c) = 0.0;
        tab.cost_rhs() = 0.0;
        for (std::size_t c = n_struct + n_slack; c < n_total; ++c) tab.cost(c) = 1.0;
        // Price out the artificial basis (they start basic with cost 1).
        for (std::size_t r = 0; r < tab.rows(); ++r) {
            const auto b = static_cast<std::size_t>(tab.basis(r));
            if (!is_artificial[b]) continue;
            for (std::size_t c = 0; c < n_total; ++c) tab.cost(c) -= tab.at(r, c);
            tab.cost_rhs() -= tab.rhs(r);
        }

        const PivotOutcome outcome =
            optimize(tab, allowed_, options, iteration_cap, iterations_used);
        stats_.pivots += iterations_used;
        iterations_used = 0;
        if (outcome == PivotOutcome::IterationLimit) {
            solution.status = LpStatus::IterationLimit;
            return solution;
        }
        const double phase1_value = -tab.cost_rhs();
        if (phase1_value > std::max(options.eps, 1e-6)) {
            solution.status = LpStatus::Infeasible;
            solution.objective = phase1_value;
            return solution;
        }

        // Drive remaining artificials out of the basis (they sit at zero).
        for (std::size_t r = 0; r < tab.rows();) {
            const auto b = static_cast<std::size_t>(tab.basis(r));
            if (!is_artificial[b]) {
                ++r;
                continue;
            }
            std::int64_t col = -1;
            for (std::size_t c = 0; c < n_struct + n_slack; ++c) {
                if (std::abs(tab.at(r, c)) > options.eps) {
                    col = static_cast<std::int64_t>(c);
                    break;
                }
            }
            if (col >= 0) {
                tab.pivot(r, static_cast<std::size_t>(col));
                ++r;
            } else {
                tab.remove_row(r); // redundant constraint
            }
        }
        // Artificial columns may never re-enter.
        for (std::size_t c = n_struct + n_slack; c < n_total; ++c) allowed_[c] = 0;
    }

    // ---- Phase 2: minimize the real objective. ----
    for (std::size_t c = 0; c < n_total; ++c) tab.cost(c) = 0.0;
    tab.cost_rhs() = 0.0;
    for (std::size_t c = 0; c < n_struct; ++c) tab.cost(c) = problem.objective()[c];
    for (std::size_t r = 0; r < tab.rows(); ++r) {
        const auto b = static_cast<std::size_t>(tab.basis(r));
        const double cost_b = tab.cost(b);
        if (cost_b == 0.0) continue;
        for (std::size_t c = 0; c < n_total; ++c) tab.cost(c) -= cost_b * tab.at(r, c);
        tab.cost_rhs() -= cost_b * tab.rhs(r);
        tab.cost(b) = 0.0;
    }

    const PivotOutcome outcome =
        optimize(tab, allowed_, options, iteration_cap, iterations_used);
    stats_.pivots += iterations_used;
    if (outcome == PivotOutcome::IterationLimit) {
        solution.status = LpStatus::IterationLimit;
        return solution;
    }
    if (outcome == PivotOutcome::Unbounded) {
        solution.status = LpStatus::Unbounded;
        return solution;
    }

    solution = extract(problem, tab);
    remember(problem, solution, tab);
    return solution;
}

void SimplexSolver::remember(const LpProblem& problem, const LpSolution& solution,
                             TableauView& tab) {
    // A warm restart re-enters the kept view; its row count must match the
    // original constraint count (phase 1 may have removed redundant rows,
    // which also desynchronizes row_sign_/init_basis_col_ indexing).
    warm_valid_ = solution.status == LpStatus::Optimal &&
                  tab.rows() == problem.constraint_count();
    if (warm_valid_) {
        // An artificial variable surviving in the basis would poison B⁻¹.
        for (std::size_t r = 0; r < tab.rows() && warm_valid_; ++r)
            warm_valid_ = static_cast<std::size_t>(tab.basis(r)) < n_struct_ + n_slack_;
    }
    if (warm_valid_) {
        prev_problem_ = problem;
        prev_solution_ = solution;
    }
}

LpSolution SimplexSolver::solve(const LpProblem& problem, const SimplexOptions& options) {
    problem.validate();
    ++stats_.solves;
    last_was_warm_ = false;
    if (warm_valid_) {
        const std::size_t refresh =
            options.warm_refresh_interval ? options.warm_refresh_interval : 64;
        const Change change = classify(problem);
        if (change == Change::None) {
            ++stats_.cached_solves;
            last_was_warm_ = true;
            return prev_solution_;
        }
        if (change != Change::Structure && warm_streak_ < refresh) {
            LpSolution solution;
            if (try_warm(problem, options, change, solution)) {
                ++stats_.warm_solves;
                ++warm_streak_;
                last_was_warm_ = true;
                return solution;
            }
            ++stats_.warm_fallbacks;
        }
    }
    return solve_cold(problem, options);
}

LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options) {
    SimplexSolver solver;
    return solver.solve(problem, options);
}

} // namespace nocmap::lp
