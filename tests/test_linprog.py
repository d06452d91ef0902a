"""Tests for the bounded-variable simplex solver: the dual simplex, on costs
shifted where its start is not dual feasible, then the primal's phase 2."""

import math
import random

import numpy as np
import pytest

from pftopt import linprog
from pftopt.linprog import (
    LinearProgram,
    MalformedProblemError,
    SolveLimits,
    Status,
    solve_lp,
    split_senses,
)
from pftopt.models import DistanceMatrix, build_service_coverage


def _lp(objective, rows=(), bounds=None, direction="min"):
    """The LP over (coefficients, sense, rhs) rows and (lower, upper) bounds."""
    rows = list(rows)
    A = [a for a, _, _ in rows]
    blocks = split_senses(A, [sense for _, sense, _ in rows], [rhs for _, _, rhs in rows])
    lo, hi = zip(*bounds) if bounds else (None, None)
    return LinearProgram(objective, *blocks, lo, hi, direction)


def _pmedian_lp():
    """The p-median root LP over 10 points (distances random.Random(0)
    integers 1-99), p = 2. Its 100 linking rows are held back, and the dual
    simplex on the rows that bind takes 56 pivots."""
    rng = random.Random(0)
    d = np.zeros((10, 10))
    for i, j in zip(*np.triu_indices(10, 1)):
        d[i, j] = d[j, i] = rng.randint(1, 99)
    ids = tuple(range(1, 11))
    return build_service_coverage(DistanceMatrix(from_ids=ids, to_ids=ids, d=d), 2).base


def _recorded(monkeypatch, name):
    """The arguments of every later call of linprog.<name>, which still runs."""
    calls = []
    original = getattr(linprog, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linprog, name, recording)
    return calls


def _starts(calls):
    """The start basis of each recorded `_solve_dual` call, None for the
    logical one."""
    return [None if basis is None else basis.tolist() for _, _, _, _, _, basis, *_ in calls]


class TestStandardForm:
    def test_ge_row_is_negated(self):
        A_eq, b_eq, A_ub, b_ub = split_senses([[1.0, 1.0]], ["ge"], [3.0])
        assert A_eq.shape == (0, 2) and b_eq.tolist() == []
        assert A_ub.tolist() == [[-1.0, -1.0]] and b_ub.tolist() == [-3.0]

    def test_eq_row_passes_through(self):
        A_eq, b_eq, A_ub, b_ub = split_senses([[2.0]], ["eq"], [4.0])
        assert A_eq.tolist() == [[2.0]] and b_eq.tolist() == [4.0]
        assert A_ub.shape == (0, 1) and b_ub.tolist() == []

    def test_le_row_unchanged_and_order_preserved(self):
        A_eq, b_eq, A_ub, b_ub = split_senses(
            [[1.0], [1.0], [1.0]], ["le", "ge", "eq"], [5.0, 1.0, 3.0]
        )
        assert A_ub.tolist() == [[1.0], [-1.0]] and b_ub.tolist() == [5.0, -1.0]
        assert A_eq.tolist() == [[1.0]] and b_eq.tolist() == [3.0]

    def test_unknown_sense_rejected(self):
        with pytest.raises(MalformedProblemError):
            split_senses([[1.0]], ["lt"], [5.0])


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(MalformedProblemError):
            _lp([1.0, 2.0], rows=[([1.0], "le", 1.0)])

    def test_non_finite_coefficient(self):
        with pytest.raises(MalformedProblemError):
            _lp([math.nan])

    def test_non_finite_rhs(self):
        with pytest.raises(MalformedProblemError):
            _lp([1.0], rows=[([1.0], "le", math.inf)])

    def test_lower_above_upper(self):
        with pytest.raises(MalformedProblemError):
            _lp([1.0], bounds=[(2.0, 1.0)])

    def test_empty_row_lists_mean_no_rows(self):
        lp = LinearProgram([1.0, 2.0], *split_senses([], [], []))
        assert lp.A_eq.shape == lp.A_ub.shape == (0, 2)
        assert solve_lp(lp).status is Status.OPTIMAL

    def test_empty_rows_with_a_rhs_rejected(self):
        with pytest.raises(MalformedProblemError):
            LinearProgram([1.0, 2.0], [], [1.0])

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            SolveLimits(max_iterations=0)


class TestStatuses:
    def test_lower_bound_optimum(self):
        out = solve_lp(_lp([1.0]))
        assert out.status is Status.OPTIMAL
        assert out.status == 0
        assert out.objective_value == pytest.approx(0.0)
        assert out.x[0] == pytest.approx(0.0)

    def test_infeasible_is_status_2(self):
        out = solve_lp(_lp([1.0], rows=[([1.0], "le", -1.0)]))
        assert out.status is Status.INFEASIBLE
        assert out.status == 2
        assert out.x is None

    def test_unbounded_is_status_3(self):
        out = solve_lp(_lp([-1.0]))
        assert out.status is Status.UNBOUNDED
        assert out.status == 3

    def test_iteration_limit_is_status_1(self):
        lp = _lp(
            [-1.0, -2.0, -3.0],
            rows=[([1.0, 1.0, 1.0], "le", 10.0), ([1.0, 2.0, 0.0], "le", 8.0)],
        )
        out = solve_lp(lp, SolveLimits(max_iterations=1))
        assert out.status is Status.ITERATION_LIMIT
        assert out.status == 1

    def test_iteration_limit_in_phase_1(self):
        # Both equality rows start violated; the cap stops the dual simplex,
        # which reaches the feasible point, after one pivot.
        lp = LinearProgram([1.0, 1.0], A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[4.0, 0.0])
        capped = solve_lp(lp, SolveLimits(max_iterations=1))
        assert capped.status is Status.ITERATION_LIMIT
        assert capped.iterations == 1 and capped.x is None
        out = solve_lp(lp)
        assert out.status is Status.OPTIMAL and out.iterations == 2

    def test_unbounded_reports_the_pivots_made(self):
        # One pivot brings x1 into the basis; the ray x1 = x2 + 1 then runs free.
        lp = LinearProgram([-1.0, -1.0], A_ub=[[1.0, -1.0]], b_ub=[1.0])
        out = solve_lp(lp)
        assert out.status is Status.UNBOUNDED
        assert out.iterations == 1
        capped = solve_lp(lp, SolveLimits(max_iterations=1))
        assert capped.status is Status.ITERATION_LIMIT
        assert capped.iterations == 1

    def test_an_overflowing_objective_is_numerical(self):
        # x = 1e308 is a finite optimum of the rows, but c.x = 1e616 overflows.
        lp = LinearProgram([1e308, 1e308], A_ub=[[1.0, 1.0]], b_ub=[1e308], direction="max")
        with np.errstate(over="ignore"):
            out = solve_lp(lp)
        assert out.status is Status.NUMERICAL
        assert out.x is None and out.objective_value is None

    def test_a_large_rhs_elsewhere_hides_no_violated_row(self):
        # x >= 5e-4 and x <= 0 cannot both hold. Judged against the rhs
        # scale of the row y <= 1e4, the violation 5e-4 looked like roundoff.
        lp = _lp(
            [0.0, -1.0],
            rows=[([1.0, 0.0], "ge", 5e-4), ([1.0, 0.0], "le", 0.0), ([0.0, 1.0], "le", 1e4)],
            bounds=[(-math.inf, math.inf), (0.0, math.inf)],
        )
        assert solve_lp(lp).status is Status.INFEASIBLE

    @pytest.mark.parametrize("sense, rhs", [("eq", 0.01), ("le", -0.01)])
    def test_large_cancelling_terms_hide_no_violated_row(self, sense, rhs):
        # With x = y = 100 fixed the row is off by 0.01. Its terms sum to
        # 2e6, whose roundoff is about 1e-10, so the miss is no roundoff.
        lp = _lp(
            [0.0, 0.0],
            rows=[([1e4, -1e4], sense, rhs)],
            bounds=[(100.0, 100.0), (100.0, 100.0)],
        )
        assert solve_lp(lp).status is Status.INFEASIBLE

    def test_a_violated_row_may_end_slack(self):
        # The start (x2 = -2, x3 = 0) violates x3 <= -1 and x2 - x3 = 0.
        # The only feasible x3 is -2, where x3 <= -1 is slack, so a row the
        # start violates must not end held at equality: the dual's one
        # pivot brings x3 in on the equality row and leaves that row slack.
        lp = _lp(
            [1.0, 0.0, 0.0],
            rows=[([0.0, 0.0, 0.0], "le", 0.0), ([0.0, 0.0, 1.0], "le", -1.0),
                  ([0.0, 1.0, -1.0], "eq", 0.0)],
            bounds=[(0.0, math.inf), (-2.0, -2.0), (-math.inf, math.inf)],
        )
        out = solve_lp(lp)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(0.0)
        assert out.x == pytest.approx([0.0, -2.0, -2.0])


class TestPrimalCheck:
    """The check a claimed optimum passes: x solves the working form."""

    # x1 + x2 + s = 4 with x2 <= 3 and s >= 0, at the point (1, 3, 0).
    A = np.array([[1.0, 1.0, 1.0]])
    b = np.array([4.0])
    lo = np.zeros(3)
    hi = np.array([math.inf, 3.0, math.inf])
    x = np.array([1.0, 3.0, 0.0])

    def _feasible(self, x):
        return linprog._primal_feasible(self.A, self.b, self.lo, self.hi, x, 4.0)

    def test_accepts_the_solution(self):
        assert self._feasible(self.x)

    def test_rejects_a_perturbed_row(self):
        assert not self._feasible(self.x + [1e-5, 0.0, 0.0])

    def test_rejects_a_bound_violation_with_the_row_held(self):
        assert not self._feasible(self.x + [-1e-5, 1e-5, 0.0])

    def test_a_drifted_point_is_numerical_not_optimal(self, monkeypatch):
        run = linprog._run_simplex

        def drifting(A, c, lo, hi, basis, x, *args):
            status, iterations = run(A, c, lo, hi, basis, x, *args)
            x[basis[0]] += 1e-4
            return status, iterations

        lp = _lp([-1.0, -1.0], rows=[([1.0, 2.0], "le", 4.0)], bounds=[(0.0, 3.0), (0.0, 3.0)])
        assert solve_lp(lp).status is Status.OPTIMAL
        monkeypatch.setattr(linprog, "_run_simplex", drifting)
        assert solve_lp(lp).status is Status.NUMERICAL


class TestDualSimplex:
    """Which costs the dual simplex runs on, and when a solve is made again
    from the logical basis on every row."""

    # min x1 + 2 x2 s.t. x1 + x2 >= 1, x >= 0: every cost is nonnegative, so
    # the logical basis, each column at its lower bound, is dual feasible.
    LP = LinearProgram([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])

    def test_a_dual_feasible_start_runs_the_dual(self, monkeypatch):
        calls = _recorded(monkeypatch, "_run_dual")
        out = solve_lp(self.LP)
        assert (out.status, out.objective_value, out.iterations) == (Status.OPTIMAL, 1.0, 1)
        assert out.basis.tolist() == [0]
        assert [c.tolist() for _, c, *_ in calls] == [[1.0, 2.0, 0.0]]  # the true costs

    def test_a_start_that_is_not_dual_feasible_runs_the_primal(self, monkeypatch):
        # With x2 basic, x1's reduced cost is -1 at its lower bound and its
        # upper bound is infinite, so no placement is dual feasible. The dual
        # runs once, with x1's cost shifted from 1 to 2 (reduced cost 0), and
        # the primal's phase 2 brings x1 in on the true costs.
        solves, duals = _recorded(monkeypatch, "_solve_dual"), _recorded(monkeypatch, "_run_dual")
        out = solve_lp(self.LP.with_bounds(self.LP.lo, self.LP.hi, [1]))
        assert (out.status, out.objective_value, out.iterations) == (Status.OPTIMAL, 1.0, 1)
        assert _starts(solves) == [[1]]
        assert [c.tolist() for _, c, *_ in duals] == [[2.0, 2.0, 0.0]]

    def test_a_singular_start_basis_runs_the_primal(self, monkeypatch):
        # The start basis repeats x1, so it is singular; the LP is solved
        # again from the logical basis.
        lp = LinearProgram([1.0, 2.0], A_ub=[[-1.0, -1.0], [-2.0, -2.0]], b_ub=[-1.0, -2.0])
        calls = _recorded(monkeypatch, "_solve_dual")
        out = solve_lp(lp.with_bounds(lp.lo, lp.hi, [0, 0]))
        assert (out.status, out.objective_value) == (Status.OPTIMAL, 1.0)
        assert _starts(calls) == [[0, 0], None]

    @staticmethod
    def _lying_dual(monkeypatch, lies):
        """Make the first `lies` `_run_dual` calls end INFEASIBLE on a row
        that proves nothing; later calls run the dual simplex."""
        run, told = linprog._run_dual, []

        def lying(A, c, lo, hi, basis, x, Binv, limits, iteration):
            if len(told) < lies:
                told.append(True)
                return Status.INFEASIBLE, iteration, np.ones(A.shape[0])
            return run(A, c, lo, hi, basis, x, Binv, limits, iteration)

        monkeypatch.setattr(linprog, "_run_dual", lying)

    def test_an_unproven_infeasible_is_solved_again_by_the_primal(self, monkeypatch):
        # A dual that calls this feasible LP infeasible, with a row that
        # proves nothing, is overruled by the solve made again from the
        # logical basis. The start is a warm one, x1 basic, so that the
        # solve made again is another.
        self._lying_dual(monkeypatch, 1)
        calls = _recorded(monkeypatch, "_solve_dual")
        out = solve_lp(self.LP.with_bounds(self.LP.lo, self.LP.hi, [0]))
        assert (out.status, out.objective_value, out.farkas) == (Status.OPTIMAL, 1.0, None)
        assert _starts(calls) == [[0], None]

    @pytest.mark.parametrize("start, starts", [([0], [[0], None]), (None, [None])],
                             ids=["warm", "cold"])
    def test_an_infeasible_unproven_from_the_logical_basis_is_numerical(
            self, start, starts, monkeypatch):
        """Unproven from the logical basis on every row, INFEASIBLE is not
        claimed; the cold start is that solve already, so it runs once."""
        self._lying_dual(monkeypatch, 2)
        calls = _recorded(monkeypatch, "_solve_dual")
        lp = self.LP if start is None else self.LP.with_bounds(self.LP.lo, self.LP.hi, start)
        out = solve_lp(lp)
        assert (out.status, out.x, out.farkas) == (Status.NUMERICAL, None, None)
        assert _starts(calls) == starts

    def test_an_infeasible_lp_carries_its_farkas_row(self):
        # x1 + x2 >= 1 with x in [0, 0.25]^2: y = (1) gives -x1 - x2 + s = -1,
        # whose least value over the bounds, -0.5, lies above -1.
        out = solve_lp(self.LP.with_bounds([0.0, 0.0], [0.25, 0.25]))
        assert out.status is Status.INFEASIBLE and out.x is None and out.basis is None
        assert out.farkas.tolist() == [1.0]

    def test_a_basis_is_a_start_for_other_bounds(self):
        out = solve_lp(self.LP)
        child = self.LP.with_bounds([0.0, 0.0], [0.5, math.inf], out.basis)
        assert child.basis is out.basis and self.LP.basis is None
        again = solve_lp(child)
        assert (again.status, again.objective_value) == (Status.OPTIMAL, 1.5)
        assert again.x.tolist() == [0.5, 0.5]


class TestRowActivation:
    """Which solves hold inequality rows back, and what they return."""

    def _restricted_runs(self, monkeypatch):
        return _recorded(monkeypatch, "_solve_restricted")

    @staticmethod
    def _box_lp(caps):
        """min x1 + x2 s.t. x1 + x2 >= 1 and x1 <= cap for each cap: x = 0
        breaks the first row and meets the others."""
        rows = [([1.0, 1.0], "ge", 1.0)] + [([1.0, 0.0], "le", cap) for cap in caps]
        return _lp([1.0, 1.0], rows=rows)

    def test_rows_are_held_at_four_to_one(self, monkeypatch):
        calls = self._restricted_runs(monkeypatch)
        out = solve_lp(self._box_lp([2.0, 3.0, 4.0, 5.0]))
        assert [held.tolist() for *_, held, _ in calls] == [[1, 2, 3, 4]]
        assert (out.status, out.objective_value, out.x.tolist()) == (Status.OPTIMAL, 1.0, [1.0, 0.0])

    def test_fewer_rows_than_four_to_one_are_not_held(self, monkeypatch):
        calls = self._restricted_runs(monkeypatch)
        out = solve_lp(self._box_lp([2.0, 3.0, 4.0]))
        assert not calls and (out.status, out.objective_value) == (Status.OPTIMAL, 1.0)

    def test_no_tour_lp_holds_rows(self, monkeypatch):
        """A lifted-MTZ tour has too few inequality rows against its degree
        rows, at the root and at every node."""
        from pftopt.branch_bound import solve_mip
        from pftopt.models import build_tour

        rng = random.Random(3)
        d = np.zeros((7, 7))
        for i, j in zip(*np.triu_indices(7, 1)):
            d[i, j] = d[j, i] = rng.randint(1, 99)
        ids = tuple(range(1, 8))
        calls = self._restricted_runs(monkeypatch)
        out = solve_mip(build_tour(DistanceMatrix(from_ids=ids, to_ids=ids, d=d)))
        assert out.status is Status.OPTIMAL and out.nodes_explored > 1 and not calls

    def test_a_start_basis_repeating_a_held_logical_runs_the_primal(self, monkeypatch):
        """The restricted start is singular, so the LP is solved again from
        the logical basis on every row."""
        lp = self._box_lp([2.0, 3.0, 4.0, 5.0])
        calls = self._restricted_runs(monkeypatch)
        again = _recorded(monkeypatch, "_solve_dual")
        out = solve_lp(lp.with_bounds(lp.lo, lp.hi, [3, 3, 4, 5, 6]))
        assert (out.status, out.objective_value) == (Status.OPTIMAL, 1.0)
        assert len(calls) == 1 and _starts(again) == [None]

    def test_a_broken_held_row_is_added(self):
        # x1 <= 0.25 breaks at the restricted optimum x = (1, 0), so it joins
        # the rows, and the optimum moves to (0.25, 0.75).
        out = solve_lp(self._box_lp([0.25, 3.0, 4.0, 5.0]))
        assert out.status is Status.OPTIMAL
        assert out.x.tolist() == [0.25, 0.75]

    def test_the_basis_returned_starts_the_whole_lp(self):
        """The restricted basis plus the held rows' logicals: a basis of the
        whole working form, at which the re-solve makes no pivot."""
        lp = _pmedian_lp()
        out = solve_lp(lp)
        m = lp.working.shape[0]
        assert np.unique(out.basis).size == out.basis.size == m
        assert np.linalg.matrix_rank(lp.working[:, out.basis]) == m
        again = solve_lp(lp.with_bounds(lp.lo, lp.hi, out.basis))
        assert (again.status, again.iterations) == (Status.OPTIMAL, 0)
        assert again.objective_value == out.objective_value

    def test_phase_2_moving_off_a_held_row_leaves_it_to_the_primal(self, monkeypatch):
        """If phase 2's confirmation pivots and the point it reaches breaks a
        held row, the LP is solved again from the logical basis on every
        row."""
        run = linprog._run_simplex
        moved = []

        def moving(A, c, lo, hi, basis, x, Binv, limits, iteration):
            if not moved:
                moved.append(True)
                x[0] = 6.0  # breaks every held row x1 <= cap
                return Status.OPTIMAL, iteration + 1
            return run(A, c, lo, hi, basis, x, Binv, limits, iteration)

        monkeypatch.setattr(linprog, "_run_simplex", moving)
        again = _recorded(monkeypatch, "_solve_dual")
        out = solve_lp(self._box_lp([2.0, 3.0, 4.0, 5.0]))
        assert (out.status, out.objective_value) == (Status.OPTIMAL, 1.0)
        assert _starts(again) == [None]


class TestSmallProblems:
    def test_bounds_only_minimum_at_lower(self):
        out = solve_lp(_lp([1.0], bounds=[(2.0, 5.0)]))
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(2.0)

    def test_maximize_negates_internally(self):
        lp = _lp(
            [3.0, 2.0],
            rows=[([1.0, 1.0], "le", 10.0)],
            direction="max",
        )
        out = solve_lp(lp)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(30.0)
        assert out.x[0] == pytest.approx(10.0)

    def test_upper_bound_binds(self):
        out = solve_lp(_lp([-1.0], bounds=[(0.0, 4.0)]))
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(-4.0)

    def test_free_variable(self):
        lp = _lp(
            [1.0],
            rows=[([1.0], "ge", -7.0)],
            bounds=[(-math.inf, math.inf)],
        )
        out = solve_lp(lp)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(-7.0)

    def test_equality_pins_solution(self):
        lp = _lp([1.0, 1.0], rows=[([1.0, 1.0], "eq", 4.0), ([1.0, -1.0], "eq", 2.0)])
        out = solve_lp(lp)
        assert out.status is Status.OPTIMAL
        assert out.x == pytest.approx([3.0, 1.0])
        assert np.max(np.abs(lp.A_eq @ out.x - lp.b_eq)) <= 1e-7

    def test_slacks_reported(self):
        lp = _lp([-1.0], rows=[([1.0], "le", 3.0), ([1.0], "le", 5.0)])
        out = solve_lp(lp)
        assert lp.b_ub - lp.A_ub @ out.x == pytest.approx([0.0, 2.0])


class TestProperties:
    def test_degenerate_lp_terminates(self):
        # Beale's classic cycling example; Bland's fallback must terminate it.
        rows = [
            ([0.25, -8.0, -1.0, 9.0], "le", 0.0),
            ([0.5, -12.0, -0.5, 3.0], "le", 0.0),
            ([0.0, 0.0, 1.0, 0.0], "le", 1.0),
        ]
        lp = _lp([-0.75, 150.0, -0.02, 6.0], rows=rows)
        out = solve_lp(lp)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(-0.77)

    @pytest.mark.parametrize(
        "c, A_ub, b_ub, optimum, pivots",
        [
            # Kuhn's example: the largest-violation rule stalls on it until the
            # Bland fallback takes over, after 3 (n + 2 m) = 30 pivots without
            # progress, so its pivot count pins the threshold and tie rules.
            (
                [-2.0, -3.0, 1.0, 12.0],
                [[-2.0, -9.0, 1.0, 9.0], [1 / 3, 1.0, -1 / 3, -2.0], [2.0, 3.0, -1.0, -12.0]],
                [0.0, 0.0, 2.0],
                -2.0,
                34,
            ),
            # Beale's 1955 example, which cycles under the textbook tableau rule.
            (
                [-0.75, 20.0, -0.5, 6.0],
                [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
                [0.0, 0.0, 1.0],
                -1.25,
                2,
            ),
        ],
        ids=["kuhn", "beale"],
    )
    def test_cycling_lp_reaches_the_optimum(self, c, A_ub, b_ub, optimum, pivots):
        out = solve_lp(LinearProgram(c, A_ub=A_ub, b_ub=b_ub))
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(optimum)
        assert out.iterations == pivots

    def test_determinism(self):
        lp = _lp(
            [3.0, -1.0, 2.0],
            rows=[([1.0, 2.0, 1.0], "le", 7.0), ([1.0, -1.0, 0.0], "ge", -2.0)],
        )
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.status is second.status
        assert np.array_equal(first.x, second.x)
        assert first.objective_value == second.objective_value
        assert first.iterations == second.iterations

    def test_pricing_ties_go_to_the_lowest_index(self):
        # The two columns' violations differ by 1e-13, inside the 1e-12 band,
        # so column 0 enters although column 1's is larger by roundoff.
        out = solve_lp(LinearProgram([-1.0, -(1 + 1e-13)], A_ub=[[1.0, 1.0]], b_ub=[1.0]))
        assert out.status is Status.OPTIMAL
        assert np.array_equal(out.x, [1.0, 0.0])

    def test_pricing_band_scales_with_the_largest_violation(self):
        # Violations near 300 differ by 3e-12, a few ulps of 300: outside an
        # absolute 1e-12 band but inside 1e-12 * 300, so column 0 enters.
        out = solve_lp(LinearProgram([-300.0, -300.000000000003], A_ub=[[1.0, 1.0]], b_ub=[1.0]))
        assert out.status is Status.OPTIMAL
        assert np.array_equal(out.x, [1.0, 0.0])

    def test_ratio_ties_go_to_the_first_row_near_the_largest_rate(self):
        # x0 enters and both rows block it after one unit; their rates differ
        # by 1e-13, inside the band, so row 0 leaves and not row 1.
        A = np.array([[1.0, 1.0, 0.0], [1 + 1e-13, 0.0, 1.0]])
        basis, x = np.array([1, 2]), np.array([0.0, 1.0, 1 + 1e-13])
        lo, hi = np.zeros(3), np.full(3, math.inf)
        status, _ = linprog._run_simplex(
            A, np.array([-1.0, 0.0, 0.0]), lo, hi, basis, x, np.eye(2), SolveLimits(), 0
        )
        assert status is Status.OPTIMAL
        assert basis.tolist() == [0, 2]

    @pytest.mark.parametrize("source, factorisations", [(29, 0), ("pmedian", 1), ("warm", 2)])
    def test_a_solve_factorises_once_per_50_pivots(self, source, factorisations, monkeypatch):
        """A covering LP of tests/test_differential.py (seed 29) ends within
        50 dual pivots, and the p-median root LP past 50 (56), each from the
        logical basis, whose inverse is I; the p-median rows added as they
        break extend that inverse without a factorisation. A solve from
        another basis ("warm") factorises it once more when it starts."""
        from test_differential import _covering_lp

        lp = _covering_lp(source) if source == 29 else _pmedian_lp()
        if source == "warm":
            logical = lp.num_vars + np.arange(lp.working.shape[0])
            lp = lp.with_bounds(lp.lo, lp.hi, logical)
        inv, calls = np.linalg.inv, []

        def counting(M):
            calls.append(M.shape)
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", counting)
        out = solve_lp(lp)
        assert out.status is Status.OPTIMAL
        assert len(calls) == (source == "warm") + out.iterations // 50 == factorisations

    def test_a_singular_refactorisation_is_numerical(self, monkeypatch):
        """The p-median root LP takes 56 pivots, so the refactorisation after
        pivot 50 runs; a singular basis there stops the solve as NUMERICAL
        with no point."""

        def singular(M):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        out = solve_lp(_pmedian_lp())
        assert (out.status, out.iterations, out.x) == (Status.NUMERICAL, 50, None)

    def test_random_feasible_lps_satisfy_constraints(self):
        rng = random.Random(20240817)
        for _ in range(25):
            n = rng.randint(2, 6)
            m = rng.randint(1, 4)
            x0 = [rng.uniform(0.0, 5.0) for _ in range(n)]
            rows = []
            for _ in range(m):
                coeffs = [rng.uniform(-2.0, 2.0) for _ in range(n)]
                lhs = sum(a * v for a, v in zip(coeffs, x0))
                rows.append((coeffs, "le", lhs + rng.uniform(0.0, 3.0)))
            c = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            lp = _lp(c, rows=rows, bounds=[(0.0, 10.0)] * n)
            out = solve_lp(lp)
            assert out.status is Status.OPTIMAL
            assert np.min(lp.b_ub - lp.A_ub @ out.x) >= -1e-7
            assert all(-1e-7 <= v <= 10.0 + 1e-7 for v in out.x)
            # weak-duality sanity: the known feasible point cannot beat it
            assert sum(ci * vi for ci, vi in zip(c, x0)) >= out.objective_value - 1e-6

    def test_transportation_relaxation_value(self, fixtures):
        from pftopt.pft import compile_pft, parse_pft

        mip = compile_pft(parse_pft((fixtures / "transport_two_warehouse.pft.csv").read_text()))
        out = solve_lp(mip.base)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(8600.0)


class TestArrayForm:
    def _lp(self):
        return _lp([1.0, 2.0], rows=[([1.0, 1.0], "ge", 1.0), ([1.0, -1.0], "eq", 0.0)])

    def test_with_bounds_shares_objective_and_rows(self):
        lp = self._lp()
        narrowed = lp.with_bounds([0.0, 0.5], [1.0, 2.0])
        assert narrowed.lo.tolist() == [0.0, 0.5] and narrowed.hi.tolist() == [1.0, 2.0]
        assert lp.lo.tolist() == [0.0, 0.0] and lp.hi.tolist() == [math.inf, math.inf]
        for name in ("c", "A_eq", "b_eq", "A_ub", "b_ub"):
            assert getattr(narrowed, name) is getattr(lp, name)
        assert solve_lp(narrowed).objective_value == pytest.approx(1.5)

    def test_with_bounds_rejects_crossed_bounds(self):
        with pytest.raises(MalformedProblemError):
            self._lp().with_bounds([0.0, 3.0], [1.0, 2.0])

    def test_with_bounds_rejects_nan(self):
        with pytest.raises(MalformedProblemError):
            self._lp().with_bounds([0.0, math.nan], [1.0, 2.0])
        with pytest.raises(MalformedProblemError):
            self._lp().with_bounds([0.0, 0.0], [math.nan, 2.0])

    @pytest.mark.parametrize(
        "lo, hi", [([0.0, math.inf], [1.0, math.inf]), ([-math.inf, 0.0], [-math.inf, 1.0])],
        ids=["lb-plus-inf", "ub-minus-inf"],
    )
    def test_infinite_bound_on_the_wrong_side_rejected(self, lo, hi):
        with pytest.raises(MalformedProblemError):
            LinearProgram([1.0, 2.0], lo=lo, hi=hi)
        with pytest.raises(MalformedProblemError):
            self._lp().with_bounds(lo, hi)

    @pytest.mark.parametrize("basis", [[0], [0, 5], [0, -1], [0.0, 1.0]])
    def test_with_bounds_rejects_a_malformed_basis(self, basis):
        lp = self._lp()  # two rows, so four working-form columns
        with pytest.raises(MalformedProblemError):
            lp.with_bounds(lp.lo, lp.hi, basis)

    def test_with_bounds_rejects_wrong_length(self):
        with pytest.raises(MalformedProblemError):
            self._lp().with_bounds([0.0], [1.0])

    def test_working_form_gives_each_row_a_logical_column(self):
        lp = _lp([1.0, 2.0], rows=[([1.0, 1.0], "ge", 1.0), ([1.0, -1.0], "eq", 0.0),
                                   ([3.0, 4.0], "le", 9.0)])
        expected = [[1.0, -1.0, 1.0, 0.0, 0.0],
                    [-1.0, -1.0, 0.0, 1.0, 0.0],
                    [3.0, 4.0, 0.0, 0.0, 1.0]]
        assert lp.working.tolist() == expected
        assert lp.with_bounds([0.0, 0.0], [1.0, 1.0]).working is lp.working

    def test_stored_arrays_are_read_only(self):
        lp = self._lp()
        for problem in (lp, lp.with_bounds([0.0, 0.0], [1.0, 1.0])):
            for name in ("c", "A_eq", "b_eq", "A_ub", "b_ub", "lo", "hi", "working"):
                with pytest.raises(ValueError):
                    getattr(problem, name)[...] = 0.0

    def test_constructor_copies_its_arrays(self):
        A_ub = np.array([[-1.0, -1.0]])
        lp = LinearProgram([1.0, 2.0], [[1.0, -1.0]], [0.0], A_ub, [-1.0])
        A_ub[0, 0] = 5.0  # the caller's array is not the problem's
        expected = self._lp()
        for name in ("c", "A_eq", "b_eq", "A_ub", "b_ub", "lo", "hi"):
            assert np.array_equal(getattr(lp, name), getattr(expected, name)), name

    def test_constructor_rejects_malformed_blocks(self):
        with pytest.raises(MalformedProblemError):
            LinearProgram([1.0, 2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0, 2.0])
        with pytest.raises(MalformedProblemError):
            LinearProgram([1.0, 2.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(MalformedProblemError):
            LinearProgram([1.0, 2.0], A_eq=[[1.0, math.inf]], b_eq=[1.0])
