#pragma once
// Dense two-phase primal simplex solver on a flat, capacity-reserved
// tableau, with warm-started re-solves.
//
// The tableau is dense, so its size is rows x columns doubles: it suits
// small programs only. The MCF programs of the paper do not stay small in
// their arc form — (commodities x links) columns, 314 MB on a 42-tile mesh
// with 72 commodities — so lp/mcf solves them by column generation and
// hands this solver only the restricted path master, (commodities + links)
// rows by a few hundred columns. Dantzig pricing with a Bland-rule fallback
// for anti-cycling; artificial variables for >= and = rows. Optimal solves
// also report row duals (LpSolution::duals), read off the cost row at each
// row's initial identity column.
//
// Storage follows the unmanaged-core / managed-owner idiom: `Tableau` owns
// one contiguous allocation holding the constraint matrix, the objective
// row and the basis array; `TableauView` is the unmanaged core the pivot
// loops run on. A `SimplexSolver` keeps the tableau (and the optimal basis
// of its last solve) alive across calls, so re-solving a structurally
// identical LP with perturbed bounds or costs — exactly what consecutive
// swap candidates in the split mappers produce — restarts from that basis
// (dual simplex for new bounds, phase-2 primal for new costs or appended
// columns) instead of paying construction plus a cold two-phase solve. Any structure change,
// stall or non-optimal warm outcome falls back to the cold path, so a
// solver never answers worse than solve_lp().

#include <cstddef>
#include <cstdint>
#include <memory>

#include "lp/lp_problem.hpp"

namespace nocmap::lp {

struct SimplexOptions {
    /// Hard cap on pivots across both phases; 0 means choose automatically
    /// (64 * (rows + columns) + 4096).
    std::size_t max_iterations = 0;
    /// Numerical tolerance for pricing/ratio tests/feasibility.
    double eps = 1e-8;
    /// After this many pivots per phase, switch from Dantzig to Bland
    /// pricing (guarantees termination on degenerate problems).
    std::size_t bland_threshold = 2000;
    /// Pivot budget of a warm restart before falling back to the cold
    /// two-phase path; 0 means choose automatically (4 * rows + 64).
    std::size_t warm_iteration_cap = 0;
    /// Force a cold re-factorization after this many consecutive warm
    /// solves, bounding round-off drift of the long-lived tableau; 0 means
    /// the default (64).
    std::size_t warm_refresh_interval = 0;
};

/// Unmanaged flat-tableau core: a view over storage owned elsewhere
/// (normally a Tableau). Row r occupies `stride` doubles starting at
/// cells + r * stride; column `cols` is the right-hand side. The objective
/// lives in its own stride-wide row (`cost`, value at index `cols`, kept
/// negated), and `basis[r]` is the variable basic in row r.
class TableauView {
public:
    TableauView() = default;
    TableauView(double* cells, double* cost, std::int32_t* basis, std::size_t rows,
                std::size_t cols, std::size_t stride)
        : cells_(cells), cost_(cost), basis_(basis), rows_(rows), cols_(cols),
          stride_(stride) {}

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }

    double& at(std::size_t r, std::size_t c) { return cells_[r * stride_ + c]; }
    double at(std::size_t r, std::size_t c) const { return cells_[r * stride_ + c]; }
    double& rhs(std::size_t r) { return at(r, cols_); }
    double rhs(std::size_t r) const { return at(r, cols_); }

    double* row(std::size_t r) { return cells_ + r * stride_; }
    double& cost(std::size_t c) { return cost_[c]; }
    double cost(std::size_t c) const { return cost_[c]; }
    double& cost_rhs() { return cost_[cols_]; }
    double cost_rhs() const { return cost_[cols_]; }

    std::int32_t basis(std::size_t r) const { return basis_[r]; }
    void set_basis(std::size_t r, std::int32_t v) { basis_[r] = v; }

    /// Gauss pivot on (row, col); updates all rows and the cost row.
    void pivot(std::size_t row, std::size_t col);

    /// Deletes a (redundant) constraint row, preserving row order.
    void remove_row(std::size_t row);

private:
    double* cells_ = nullptr;
    double* cost_ = nullptr;
    std::int32_t* basis_ = nullptr;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t stride_ = 0;
};

/// Managed owner of the flat tableau: one contiguous allocation holding the
/// cell matrix, the objective row and the basis array. reset() reshapes in
/// place whenever the capacity suffices — the solver's per-solve cost is
/// then a zero-fill, never an allocation — and grows geometrically when it
/// does not.
class Tableau {
public:
    /// Ensures capacity for at least rows x cols (no view invalidation
    /// guarantees; call before reset).
    void reserve(std::size_t row_capacity, std::size_t col_capacity);

    /// (Re)shapes to rows x cols and returns the working view; every cell,
    /// the cost row and the basis (-1) are cleared. Reuses the allocation
    /// when it is large enough.
    TableauView reset(std::size_t rows, std::size_t cols);

    /// Rebuilds the view for the current shape (after reset), e.g. when the
    /// solver re-enters a kept tableau for a warm restart.
    TableauView view() noexcept;

    /// Opens `count` zero columns before column `at` of the current shape,
    /// shifting the columns from `at` on (and the right-hand side) to the
    /// right in every row and in the cost row. Keeps the contents, growing
    /// the allocation geometrically when the column capacity runs out.
    void insert_columns(std::size_t at, std::size_t count);

    std::size_t row_capacity() const noexcept { return row_capacity_; }
    std::size_t col_capacity() const noexcept { return col_capacity_; }
    std::size_t allocation_bytes() const noexcept { return bytes_; }

private:
    std::size_t stride() const noexcept { return col_capacity_ + 1; }
    double* cells() noexcept;
    double* cost_row() noexcept;
    std::int32_t* basis() noexcept;

    std::unique_ptr<std::byte[]> buffer_;
    std::size_t bytes_ = 0;
    std::size_t row_capacity_ = 0;
    std::size_t col_capacity_ = 0;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
};

/// Persistent simplex engine. solve() is a drop-in for solve_lp() — same
/// statuses, same cold arithmetic — but the solver remembers the previous
/// problem and its optimal basis:
///
///   * identical problem        -> the cached solution is returned;
///   * same structure, new rhs  -> dual-simplex restart from the basis;
///   * same structure, new cost -> phase-2 primal restart from the basis;
///   * appended columns         -> the old basis stays primal feasible: the
///                                 new columns are priced in from B^-1 and
///                                 phase-2 primal pivots continue;
///   * anything else            -> cold two-phase solve (and the warm state
///                                 is rebuilt from its result).
///
/// "Same structure" means: equal variable/constraint counts, equal
/// relations and bitwise-equal coefficient terms per row. "Appended
/// columns" means: more variables, the old objective a prefix of the new
/// one, and every row equal to the old row (relation, rhs, terms) followed
/// only by terms of the new variables — what LpProblem::add_column
/// produces. A warm restart
/// that stalls (iteration cap) or leaves the optimal regime falls back to
/// the cold path transparently; stats() says which path each solve took.
class SimplexSolver {
public:
    struct Stats {
        std::size_t solves = 0;
        std::size_t cold_solves = 0;
        std::size_t warm_solves = 0;     ///< warm restarts that produced the answer
        std::size_t warm_fallbacks = 0;  ///< warm attempts abandoned for a cold solve
        std::size_t cached_solves = 0;   ///< identical problem, cached answer returned
        std::size_t pivots = 0;          ///< total pivots, both paths
    };

    LpSolution solve(const LpProblem& problem, const SimplexOptions& options = {});

    /// Drops the warm state; the next solve is cold.
    void invalidate() noexcept;

    const Stats& stats() const noexcept { return stats_; }
    bool last_solve_was_warm() const noexcept { return last_was_warm_; }

    /// The tableau owner (capacity introspection for tests/benches).
    const Tableau& tableau() const noexcept { return tableau_; }

private:
    enum class Change { None, Rhs, Cost, Columns, Structure };

    Change classify(const LpProblem& problem) const;
    LpSolution solve_cold(const LpProblem& problem, const SimplexOptions& options);
    bool try_warm(const LpProblem& problem, const SimplexOptions& options, Change change,
                  LpSolution& solution);
    void append_columns(const LpProblem& problem);
    void rebuild_cost_row(const LpProblem& problem, TableauView& tab) const;
    LpSolution extract(const LpProblem& problem, TableauView& tab) const;
    void remember(const LpProblem& problem, const LpSolution& solution, TableauView& tab);

    Tableau tableau_;
    Stats stats_;
    bool last_was_warm_ = false;

    // Warm state: valid only after an Optimal solve whose basis is free of
    // artificial variables and whose phase 1 removed no rows.
    bool warm_valid_ = false;
    std::size_t warm_streak_ = 0; ///< consecutive warm solves since last cold
    std::size_t n_struct_ = 0;
    std::size_t n_slack_ = 0;
    std::size_t n_artificial_ = 0;
    std::size_t n_total_ = 0;
    std::vector<double> row_sign_;               ///< rhs-normalization sign per row
    std::vector<std::int32_t> init_basis_col_;   ///< initial identity column per row
    std::vector<char> allowed_;                  ///< columns that may enter (no artificials)
    LpProblem prev_problem_;                     ///< structure + rhs/cost snapshot
    LpSolution prev_solution_;                   ///< cached answer for identical re-asks
};

/// Solves min c·x, s.t. constraints, x >= 0 (one-shot cold solve).
LpSolution solve_lp(const LpProblem& problem, const SimplexOptions& options = {});

} // namespace nocmap::lp
