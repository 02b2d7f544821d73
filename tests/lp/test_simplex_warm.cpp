#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace nocmap::lp {
namespace {

// The warm-start contract: a SimplexSolver chained over perturbed LPs must
// report the same statuses and (within pivot-path round-off) the same
// optimal objectives and solutions as one-shot cold solves, while actually
// taking the warm path.

/// Random bounded-feasible LP with GE rows (so phase 1 and artificials are
/// exercised): min c.x s.t. A x >= b, A >= 0, c > 0.
LpProblem random_ge_problem(util::Rng& rng, std::size_t n, std::size_t m) {
    LpProblem p;
    for (std::size_t j = 0; j < n; ++j) p.add_variable(rng.next_double_in(0.1, 2.0));
    for (std::size_t i = 0; i < m; ++i) {
        std::vector<std::pair<std::int32_t, double>> terms;
        for (std::size_t j = 0; j < n; ++j)
            terms.emplace_back(static_cast<std::int32_t>(j), rng.next_double_in(0.1, 1.0));
        p.add_constraint(std::move(terms), Relation::GreaterEqual,
                         rng.next_double_in(1.0, 4.0));
    }
    return p;
}

void expect_matches_cold(const LpProblem& p, const LpSolution& warm, double tol = 1e-7) {
    const LpSolution cold = solve_lp(p);
    ASSERT_EQ(warm.status, cold.status);
    if (cold.status != LpStatus::Optimal) return;
    EXPECT_NEAR(warm.objective, cold.objective, tol * std::max(1.0, std::abs(cold.objective)));
    ASSERT_EQ(warm.x.size(), cold.x.size());
    for (std::size_t j = 0; j < cold.x.size(); ++j)
        EXPECT_NEAR(warm.x[j], cold.x[j], 1e-6) << "x[" << j << "]";
}

/// Checks an optimal solution's row duals: sign per relation, every
/// reduced cost non-negative, and y·b equal to the objective.
void expect_duals_certify(const LpProblem& p, const LpSolution& sol) {
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    ASSERT_EQ(sol.duals.size(), p.constraint_count());
    std::vector<double> reduced = p.objective();
    double dual_objective = 0.0;
    for (std::size_t i = 0; i < p.constraint_count(); ++i) {
        const Constraint& row = p.constraints()[i];
        const double y = sol.duals[i];
        if (row.relation == Relation::LessEqual) {
            EXPECT_LE(y, 1e-9) << "row " << i;
        } else if (row.relation == Relation::GreaterEqual) {
            EXPECT_GE(y, -1e-9) << "row " << i;
        }
        for (const auto& [var, coeff] : row.terms)
            reduced[static_cast<std::size_t>(var)] -= y * coeff;
        dual_objective += y * row.rhs;
    }
    for (std::size_t j = 0; j < reduced.size(); ++j)
        EXPECT_GE(reduced[j], -1e-8) << "x[" << j << "]";
    EXPECT_NEAR(dual_objective, sol.objective, 1e-9 * std::max(1.0, std::abs(sol.objective)));
}

TEST(SimplexWarm, DualsCertifyOptimality) {
    util::Rng rng(4242);
    for (int trial = 0; trial < 10; ++trial) {
        LpProblem p = random_ge_problem(rng, 6, 5);
        // Mixed relations: a <= row and an equality row on top of the >= rows.
        p.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::LessEqual, 10.0);
        p.add_constraint({{2, 1.0}, {3, -1.0}}, Relation::Equal, 0.5);
        expect_duals_certify(p, solve_lp(p));
    }
}

TEST(SimplexWarm, AppendedColumnsRestartWarm) {
    util::Rng rng(777);
    LpProblem p = random_ge_problem(rng, 4, 6);
    p.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, Relation::LessEqual, 50.0);
    SimplexSolver solver;
    double previous = solver.solve(p).objective;
    for (int step = 0; step < 12; ++step) {
        std::vector<std::pair<std::size_t, double>> entries;
        for (std::size_t i = 0; i < p.constraint_count(); ++i)
            if (rng.next_bool(0.7)) entries.emplace_back(i, rng.next_double_in(0.1, 1.5));
        p.add_column(rng.next_double_in(0.05, 1.0), entries);
        const LpSolution warm = solver.solve(p);
        EXPECT_TRUE(solver.last_solve_was_warm()) << "step " << step;
        const LpSolution cold = solve_lp(p);
        ASSERT_EQ(warm.status, LpStatus::Optimal);
        EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * std::max(1.0, cold.objective));
        EXPECT_LE(warm.objective, previous + 1e-12); // more columns never hurt
        expect_duals_certify(p, warm);
        previous = warm.objective;
    }
    EXPECT_EQ(solver.stats().cold_solves, 1u);
    EXPECT_EQ(solver.stats().warm_solves, 12u);
}

TEST(SimplexWarm, AppendedColumnsGrowTheTableauInPlace) {
    // Columns appended past the reserved capacity reallocate the tableau;
    // the restart must still match a cold solve.
    util::Rng rng(5);
    LpProblem p = random_ge_problem(rng, 2, 3);
    SimplexSolver solver;
    solver.solve(p);
    const std::size_t capacity = solver.tableau().col_capacity();
    for (std::size_t step = 0; step < capacity + 4; ++step) {
        p.add_column(rng.next_double_in(0.05, 3.0),
                     {{0, rng.next_double_in(0.1, 1.0)}, {2, rng.next_double_in(0.1, 1.0)}});
        const LpSolution warm = solver.solve(p);
        const LpSolution cold = solve_lp(p);
        ASSERT_EQ(warm.status, LpStatus::Optimal);
        EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * std::max(1.0, cold.objective));
    }
    EXPECT_GT(solver.tableau().col_capacity(), capacity);
    EXPECT_GT(solver.stats().warm_solves, 0u);
}

TEST(SimplexWarm, RhsChainMatchesColdAndTakesWarmPath) {
    util::Rng rng(1234);
    LpProblem p = random_ge_problem(rng, 5, 7);
    SimplexSolver solver;
    expect_matches_cold(p, solver.solve(p));
    for (int step = 0; step < 20; ++step) {
        for (std::size_t i = 0; i < p.constraint_count(); ++i)
            if (rng.next_bool(0.4))
                p.set_constraint_rhs(i, rng.next_double_in(1.0, 4.0));
        const LpSolution warm = solver.solve(p);
        expect_matches_cold(p, warm);
    }
    EXPECT_GT(solver.stats().warm_solves, 0u);
    EXPECT_EQ(solver.stats().solves, 21u);
}

TEST(SimplexWarm, CostChainMatchesColdAndTakesWarmPath) {
    util::Rng rng(99);
    LpProblem p = random_ge_problem(rng, 5, 7);
    SimplexSolver solver;
    expect_matches_cold(p, solver.solve(p));
    for (int step = 0; step < 20; ++step) {
        for (std::size_t j = 0; j < p.variable_count(); ++j)
            if (rng.next_bool(0.5))
                p.set_objective_coefficient(static_cast<std::int32_t>(j),
                                            rng.next_double_in(0.1, 2.0));
        const LpSolution warm = solver.solve(p);
        expect_matches_cold(p, warm);
    }
    EXPECT_GT(solver.stats().warm_solves, 0u);
}

TEST(SimplexWarm, IdenticalProblemIsServedFromCache) {
    util::Rng rng(7);
    const LpProblem p = random_ge_problem(rng, 4, 5);
    SimplexSolver solver;
    const LpSolution first = solver.solve(p);
    const LpSolution second = solver.solve(p);
    EXPECT_EQ(solver.stats().cached_solves, 1u);
    EXPECT_TRUE(solver.last_solve_was_warm());
    // The cached answer is returned verbatim: bit-identical.
    EXPECT_EQ(first.status, second.status);
    EXPECT_EQ(first.objective, second.objective);
    EXPECT_EQ(first.x, second.x);
}

TEST(SimplexWarm, StructureChangeFallsBackCold) {
    util::Rng rng(42);
    const LpProblem a = random_ge_problem(rng, 4, 5);
    const LpProblem b = random_ge_problem(rng, 4, 6); // extra row
    SimplexSolver solver;
    expect_matches_cold(a, solver.solve(a));
    expect_matches_cold(b, solver.solve(b));
    EXPECT_EQ(solver.stats().cold_solves, 2u);
    EXPECT_EQ(solver.stats().warm_solves, 0u);
    EXPECT_FALSE(solver.last_solve_was_warm());
}

TEST(SimplexWarm, RhsFlipToInfeasibleReportsInfeasible) {
    // x <= cap, x >= need. Feasible while need <= cap; the rhs perturbation
    // makes it infeasible — the warm dual restart must not mask that.
    LpProblem p;
    const auto x = p.add_variable(1.0);
    p.add_constraint({{x, 1.0}}, Relation::LessEqual, 10.0);
    p.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 2.0);
    SimplexSolver solver;
    ASSERT_TRUE(solver.solve(p).optimal());

    p.set_constraint_rhs(0, 1.0); // cap 1 < need 2
    const LpSolution sol = solver.solve(p);
    EXPECT_EQ(sol.status, LpStatus::Infeasible);
    EXPECT_FALSE(solver.last_solve_was_warm());

    // And back to feasible again: the cold fallback rebuilt the warm state.
    p.set_constraint_rhs(0, 20.0);
    expect_matches_cold(p, solver.solve(p));
}

TEST(SimplexWarm, CostFlipToUnboundedReportsUnbounded) {
    LpProblem p;
    const auto x = p.add_variable(1.0);
    p.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 1.0);
    SimplexSolver solver;
    ASSERT_TRUE(solver.solve(p).optimal());

    p.set_objective_coefficient(x, -1.0); // min -x, x unbounded above
    EXPECT_EQ(solver.solve(p).status, LpStatus::Unbounded);

    p.set_objective_coefficient(x, 2.0);
    expect_matches_cold(p, solver.solve(p));
}

TEST(SimplexWarm, DegenerateChainTerminates) {
    // Degenerate vertex (several constraints meet at the optimum); rhs
    // perturbations around it must terminate and match cold solves.
    LpProblem p;
    const auto x = p.add_variable(-1.0);
    const auto y = p.add_variable(-1.0);
    p.add_constraint({{x, 1.0}}, Relation::LessEqual, 1.0);
    p.add_constraint({{y, 1.0}}, Relation::LessEqual, 1.0);
    p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEqual, 2.0);
    p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::LessEqual, 0.0);
    SimplexSolver solver;
    expect_matches_cold(p, solver.solve(p));
    util::Rng rng(5);
    for (int step = 0; step < 16; ++step) {
        p.set_constraint_rhs(0, rng.next_double_in(0.5, 1.5));
        p.set_constraint_rhs(2, rng.next_double_in(1.0, 3.0));
        expect_matches_cold(p, solver.solve(p));
    }
}

TEST(SimplexWarm, RefreshIntervalForcesPeriodicColdSolves) {
    util::Rng rng(11);
    LpProblem p = random_ge_problem(rng, 4, 5);
    SimplexOptions opt;
    opt.warm_refresh_interval = 4;
    SimplexSolver solver;
    for (int step = 0; step < 20; ++step) {
        p.set_constraint_rhs(0, rng.next_double_in(1.0, 4.0));
        expect_matches_cold(p, solver.solve(p, opt));
    }
    // 20 solves, at most 4 consecutive warm ones: at least 4 cold.
    EXPECT_GE(solver.stats().cold_solves, 4u);
    EXPECT_GT(solver.stats().warm_solves, 0u);
}

TEST(SimplexWarm, TableauCapacityGrowsAndIsReused) {
    SimplexSolver solver;
    util::Rng rng(3);
    LpProblem small = random_ge_problem(rng, 3, 4);
    expect_matches_cold(small, solver.solve(small));
    const std::size_t small_bytes = solver.tableau().allocation_bytes();
    EXPECT_GT(small_bytes, 0u);

    // A structurally larger program grows the allocation...
    LpProblem big = random_ge_problem(rng, 20, 30);
    expect_matches_cold(big, solver.solve(big));
    const std::size_t big_bytes = solver.tableau().allocation_bytes();
    EXPECT_GT(big_bytes, small_bytes);
    EXPECT_GE(solver.tableau().row_capacity(), 30u);

    // ...and shrinking back reuses it without reallocating.
    LpProblem small2 = random_ge_problem(rng, 3, 4);
    expect_matches_cold(small2, solver.solve(small2));
    EXPECT_EQ(solver.tableau().allocation_bytes(), big_bytes);
}

TEST(SimplexWarm, InvalidateForcesColdResolve) {
    util::Rng rng(8);
    const LpProblem p = random_ge_problem(rng, 4, 5);
    SimplexSolver solver;
    ASSERT_TRUE(solver.solve(p).optimal());
    solver.invalidate();
    ASSERT_TRUE(solver.solve(p).optimal());
    EXPECT_EQ(solver.stats().cold_solves, 2u);
    EXPECT_EQ(solver.stats().cached_solves, 0u);
}

TEST(SimplexWarm, OneShotWrapperStaysCold) {
    // solve_lp constructs a fresh solver: no warm state can leak between
    // independent calls.
    LpProblem p;
    const auto x = p.add_variable(1.0);
    p.add_constraint({{x, 1.0}}, Relation::GreaterEqual, 3.0);
    const LpSolution a = solve_lp(p);
    const LpSolution b = solve_lp(p);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.x, b.x);
}

} // namespace
} // namespace nocmap::lp
