"""Tests for LP-relaxation branch-and-bound."""

import itertools
import math
import random

import numpy as np
import pytest

from pftopt import branch_bound, models
from pftopt.branch_bound import MipProblem, VarKind, branch, solve_mip
from pftopt.linprog import (
    LinearProgram,
    LpOutcome,
    SolveLimits,
    Status,
    solve_lp,
    split_senses,
)


def _mip(objective, rows, bounds, kinds, direction="min", names=None):
    rows = list(rows)
    A = [a for a, _, _ in rows]
    blocks = split_senses(A, [sense for _, sense, _ in rows], [rhs for _, _, rhs in rows])
    lo, hi = zip(*bounds)
    base = LinearProgram(objective, *blocks, lo, hi, direction)
    if names is None:
        names = [f"x{i}" for i in range(len(objective))]
    return MipProblem(base=base, kinds=tuple(kinds), names=tuple(names))


def _binary_mip(objective, rows, direction="min"):
    n = len(objective)
    return _mip(objective, rows, [(0.0, 1.0)] * n, [VarKind.BINARY] * n, direction)


def _outcome(x):
    return LpOutcome(
        status=Status.OPTIMAL,
        x=np.asarray(x, dtype=float),
        objective_value=0.0,
        iterations=0,
    )


class TestBranchRule:
    def test_integral_point_is_terminal(self):
        mip = _binary_mip([1.0, 1.0], [])
        assert branch(_outcome([0.0, 1.0]), mip) is None

    def test_most_fractional_wins(self):
        mip = _binary_mip([1.0, 1.0], [])
        decision = branch(_outcome([0.5, 0.9]), mip)
        assert decision.index == 0
        assert decision.floor_value == 0.0
        assert decision.ceil_value == 1.0

    def test_fractionality_tie_breaks_to_lowest_index(self):
        mip = _binary_mip([1.0, 1.0], [])
        decision = branch(_outcome([0.4, 0.6]), mip)
        assert decision.index == 0

    def test_continuous_variables_never_branched(self):
        mip = _mip(
            [1.0, 1.0],
            [],
            [(0.0, 1.0), (0.0, 1.0)],
            [VarKind.CONTINUOUS, VarKind.BINARY],
        )
        decision = branch(_outcome([0.5, 0.4]), mip)
        assert decision.index == 1

    def test_requires_optimal_relaxation(self):
        mip = _binary_mip([1.0], [])
        bad = LpOutcome(status=Status.INFEASIBLE, iterations=0)
        with pytest.raises(ValueError):
            branch(bad, mip)


class TestValidation:
    def test_binary_bounds_clamped(self):
        mip = _mip([1.0], [], [(0.0, 5.0)], [VarKind.BINARY])
        assert (mip.base.lo[0], mip.base.hi[0]) == (0.0, 1.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            _mip([1.0, 1.0], [], [(0.0, 1.0)] * 2, [VarKind.BINARY] * 2, names=["a", "a"])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            _mip([1.0], [], [(0.0, 1.0)], [VarKind.BINARY], names=[""])


class TestSolve:
    def test_pure_lp_passes_through(self):
        mip = _mip(
            [-1.0],
            [([1.0], "le", 2.5)],
            [(0.0, math.inf)],
            [VarKind.CONTINUOUS],
        )
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(-2.5)

    def test_integrality_forces_rounding_down(self):
        mip = _mip(
            [-1.0],
            [([1.0], "le", 2.5)],
            [(0.0, math.inf)],
            [VarKind.INTEGER],
        )
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.x[0] == pytest.approx(2.0)
        assert out.objective_value == pytest.approx(-2.0)

    def test_infeasible_integral_set(self):
        # 0.4 <= x <= 0.6 admits no integer point.
        mip = _mip(
            [1.0],
            [([1.0], "ge", 0.4), ([1.0], "le", 0.6)],
            [(0.0, 1.0)],
            [VarKind.INTEGER],
        )
        out = solve_mip(mip)
        assert out.status is Status.INFEASIBLE

    def test_fractional_integer_bound_is_solved(self):
        # The up child of x = 1.5 would need x >= 2 > 1.5: it is empty, not an error.
        mip = _mip([1.0], [], [(0.0, 1.5)], [VarKind.INTEGER], "max")
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(1.0)

    def test_fractional_bounds_without_an_integer_are_infeasible(self):
        mip = _mip([1.0], [], [(0.2, 0.8)], [VarKind.INTEGER], "max")
        out = solve_mip(mip)
        assert out.status is Status.INFEASIBLE

    def test_unbounded_relaxation(self):
        mip = _mip([-1.0], [], [(0.0, math.inf)], [VarKind.INTEGER])
        out = solve_mip(mip)
        assert out.status is Status.UNBOUNDED

    def test_node_budget_reports_iteration_limit(self):
        rng = random.Random(7)
        n = 12
        weights = [rng.randint(3, 9) for _ in range(n)]
        values = [rng.randint(1, 9) for _ in range(n)]
        mip = _binary_mip(values, [(list(map(float, weights)), "le", 20.0)], "max")
        out = solve_mip(mip, SolveLimits(max_nodes=1))
        assert out.status is Status.ITERATION_LIMIT

    def test_objective_matches_solution_dot_product(self):
        rng = random.Random(99)
        values = [rng.randint(1, 9) for _ in range(8)]
        weights = [float(rng.randint(2, 7)) for _ in range(8)]
        mip = _binary_mip(values, [(weights, "le", 15.0)], "max")
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(float(np.dot(values, out.x)), abs=1e-6)
        for v in out.x:
            assert abs(v - round(v)) <= 1e-6

    def test_best_bound_envelopes_optimum(self):
        mip = _binary_mip(
            [4.0, 3.0, 5.0],
            [([2.0, 1.0, 3.0], "ge", 3.0)],
        )
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.best_bound <= out.objective_value + 1e-6
        root = solve_lp(mip.base)
        assert root.objective_value <= out.objective_value + 1e-6


class TestOracles:
    def _enumerate_binary(self, mip):
        """Best objective over all feasible 0/1 points, fully independent of
        the solver."""
        base = mip.base
        n = base.num_vars
        sign = -1.0 if base.direction == "max" else 1.0
        best = None
        for point in itertools.product((0.0, 1.0), repeat=n):
            ok = all(
                abs(sum(a * v for a, v in zip(coeffs, point)) - rhs) <= 1e-9
                for coeffs, rhs in base.eq_rows
            ) and all(
                sum(a * v for a, v in zip(coeffs, point)) <= rhs + 1e-9
                for coeffs, rhs in base.ub_rows
            )
            if not ok:
                continue
            obj = sum(c * v for c, v in zip(base.c, point))
            if best is None or sign * obj < sign * best:
                best = obj
        return best

    def test_random_knapsacks_match_enumeration(self):
        rng = random.Random(20240601)
        for _ in range(10):
            n = rng.randint(3, 9)
            values = [rng.randint(1, 12) for _ in range(n)]
            weights = [float(rng.randint(1, 8)) for _ in range(n)]
            cap = float(rng.randint(5, 4 * n))
            mip = _binary_mip(values, [(weights, "le", cap)], "max")
            out = solve_mip(mip)
            assert out.status is Status.OPTIMAL
            assert out.objective_value == pytest.approx(self._enumerate_binary(mip))

    def test_random_covers_match_enumeration(self):
        rng = random.Random(31337)
        for _ in range(8):
            n = rng.randint(3, 8)
            costs = [rng.randint(1, 5) for _ in range(n)]
            rows = []
            for _ in range(rng.randint(1, 5)):
                members = [1.0 if rng.random() < 0.5 else 0.0 for _ in range(n)]
                if not any(members):
                    members[rng.randrange(n)] = 1.0
                rows.append((members, "ge", 1.0))
            mip = _binary_mip(costs, rows)
            out = solve_mip(mip)
            assert out.status is Status.OPTIMAL
            assert out.objective_value == pytest.approx(self._enumerate_binary(mip))


class TestFixtures:
    def test_shortest_path_pft(self, fixtures):
        from pftopt.pft import compile_pft, parse_pft

        mip = compile_pft(parse_pft((fixtures / "shortest_path.pft.csv").read_text()))
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(1867.0)
        selected = {n for n, v in zip(mip.names, out.x) if v > 0.5}
        assert selected == {"X14", "X47"}

    def test_warehouse_pft(self, fixtures):
        from pftopt.pft import compile_pft, parse_pft

        mip = compile_pft(parse_pft((fixtures / "warehouse_siting.pft.csv").read_text()))
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(410.0)
        assert out.x[mip.names.index("X2")] == pytest.approx(0.0, abs=1e-6)


def _two_integer_probe():
    """max a + b s.t. 2a + 2b <= 3 with integers a, b in [0, 10]: optimum 1."""
    return _mip(
        [1.0, 1.0],
        [([2.0, 2.0], "le", 3.0)],
        [(0.0, 10.0)] * 2,
        [VarKind.INTEGER] * 2,
        "max",
    )


def _record_node_lps(monkeypatch):
    """Route solve_mip's LP solves through a recorder; returns the (lp, outcome) list."""
    calls = []
    original = branch_bound.solve_lp

    def recording(lp, limits=None):
        outcome = original(lp, limits)
        calls.append((lp, outcome))
        return outcome

    monkeypatch.setattr(branch_bound, "solve_lp", recording)
    return calls


class TestUnresolvedNodes:
    def test_node_at_iteration_limit_is_not_infeasible(self):
        out = solve_mip(_two_integer_probe(), SolveLimits(max_iterations=2))
        assert out.status is Status.ITERATION_LIMIT

    def test_probe_without_limit_is_optimal(self):
        out = solve_mip(_two_integer_probe())
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(1.0)

    def test_numerical_node_ends_the_solve_numerical(self, monkeypatch):
        original = branch_bound.solve_lp
        seen = []

        def numerical_children(lp, limits=None):
            seen.append(lp)
            if len(seen) == 1:
                return original(lp, limits)
            return LpOutcome(status=Status.NUMERICAL)

        monkeypatch.setattr(branch_bound, "solve_lp", numerical_children)
        out = solve_mip(_two_integer_probe())
        assert len(seen) > 1
        assert out.status is Status.NUMERICAL

    def test_open_subtree_keeps_the_bound_open(self, monkeypatch):
        # The a >= 2 child (third LP) fails; the a <= 1 subtree still finds
        # a + b = 1, but the failed subtree's bound, the root value 1.5, stays
        # in best_bound.
        original = branch_bound.solve_lp
        seen = []

        def third_call_numerical(lp, limits=None):
            seen.append(lp)
            if len(seen) == 3:
                assert lp.lo[0] == 2.0
                return LpOutcome(status=Status.NUMERICAL)
            return original(lp, limits)

        monkeypatch.setattr(branch_bound, "solve_lp", third_call_numerical)
        out = solve_mip(_two_integer_probe())
        assert out.status is Status.NUMERICAL
        assert out.objective_value == pytest.approx(1.0)
        assert out.best_bound == pytest.approx(1.5)


class TestNodeAccounting:
    def test_iterations_sum_the_pivots_of_every_node_lp(self, monkeypatch):
        calls = _record_node_lps(monkeypatch)
        out = solve_mip(_two_integer_probe())
        assert len(calls) == out.nodes_explored > 1
        assert out.iterations == sum(outcome.iterations for _, outcome in calls) > 0

    def test_node_lps_share_the_root_arrays(self, monkeypatch):
        rng = random.Random(7)
        n = 5
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = float(rng.randint(1, 30))
        ids = tuple(range(1, n + 1))
        mip = models.build_tour(models.DistanceMatrix(ids, ids, d))
        calls = _record_node_lps(monkeypatch)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert len(calls) == out.nodes_explored > 2
        root = mip.base
        for lp, _ in calls:
            assert lp.c is root.c
            assert lp.A_eq is root.A_eq and lp.b_eq is root.b_eq
            assert lp.A_ub is root.A_ub and lp.b_ub is root.b_ub
