"""Tests for LP-relaxation branch-and-bound."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from model_oracles import criterion_8_tours
from pftopt import branch_bound, linprog, models
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


def _sequential_branch(x, mip, tol=1e-6):
    """The loop `branch` replaced, kept as its reference: a later variable
    wins only if it is closer to one half by more than 1e-12."""
    best_idx, best_dist = None, math.inf
    for i in np.flatnonzero(mip.integer):
        frac = x[i] - math.floor(x[i])
        if min(frac, 1.0 - frac) <= tol:
            continue
        dist = abs(frac - 0.5)
        if dist < best_dist - 1e-12:
            best_idx, best_dist = int(i), dist
    return best_idx


@st.composite
def _near_ties(draw):
    """Values k/8 moved by at most 4e-13, with a random integer mask. Ties
    are frequent, and each tie cluster spans less than 1e-12, where the
    sequential rule and the array rule agree."""
    n = draw(st.integers(1, 10))
    x = [
        draw(st.integers(-24, 24)) / 8 + draw(st.floats(-4e-13, 4e-13))
        for _ in range(n)
    ]
    integer = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    kinds = [VarKind.INTEGER if flag else VarKind.CONTINUOUS for flag in integer]
    return np.array(x), _mip([1.0] * n, [], [(-5.0, 5.0)] * n, kinds)


class TestBranchRule:
    def test_integral_point_is_terminal(self):
        mip = _binary_mip([1.0, 1.0], [])
        assert branch(_outcome([0.0, 1.0]), mip) is None

    def test_most_fractional_wins(self):
        mip = _binary_mip([1.0, 1.0], [])
        assert branch(_outcome([0.5, 0.9]), mip) == 0

    def test_fractionality_tie_breaks_to_lowest_index(self):
        mip = _binary_mip([1.0, 1.0], [])
        for x in ([0.4, 0.6], [0.5 + 1e-13, 0.5], [0.5, 0.5 + 1e-13]):
            assert branch(_outcome(x), mip) == 0, x

    def test_continuous_variables_never_branched(self):
        mip = _mip(
            [1.0, 1.0],
            [],
            [(0.0, 1.0), (0.0, 1.0)],
            [VarKind.CONTINUOUS, VarKind.BINARY],
        )
        assert branch(_outcome([0.5, 0.4]), mip) == 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(_near_ties())
    def test_agrees_with_the_sequential_rule(self, case):
        x, mip = case
        assert branch(_outcome(x), mip) == _sequential_branch(x, mip)

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
        # At capacity 21 HiGHS gives the relaxation 37 and the knapsack 36,
        # so every root vertex is fractional and one node cannot settle it.
        mip = _binary_mip(values, [(list(map(float, weights)), "le", 21.0)], "max")
        out = solve_mip(mip, SolveLimits(max_nodes=1))
        assert out.status is Status.ITERATION_LIMIT
        # At capacity 20 HiGHS gives 36 for both: items 1 and 10 tie at
        # value/weight 1, so the root's optimal face holds the integral
        # vertex as well as the fractional one HiGHS returns (x10 = 4/7).
        # One node ends unresolved or, at the integral vertex, proves 36.
        mip = _binary_mip(values, [(list(map(float, weights)), "le", 20.0)], "max")
        out = solve_mip(mip, SolveLimits(max_nodes=1))
        if out.status is not Status.ITERATION_LIMIT:
            assert out.status is Status.OPTIMAL
            assert out.objective_value == pytest.approx(36.0)
            assert out.best_bound == pytest.approx(36.0)

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
                for coeffs, rhs in zip(base.A_eq.tolist(), base.b_eq.tolist())
            ) and all(
                sum(a * v for a, v in zip(coeffs, point)) <= rhs + 1e-9
                for coeffs, rhs in zip(base.A_ub.tolist(), base.b_ub.tolist())
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
        # max 1.5a + b s.t. 2a + 2b <= 6.5, integers a, b in [0, 3]: the
        # root is a = 3, b = 0.25 (value 4.75), so it branches on b. The
        # down child b <= 0 finds a = 3 (4.5, the optimum). The up child
        # b >= 1 survives propagation, which leaves it a <= 2, and its LP
        # fails; its subtree's bound, the root value 4.75, stays in
        # best_bound. The objective is not integral, so 4.75 is not raised.
        mip = _mip(
            [1.5, 1.0],
            [([2.0, 2.0], "le", 6.5)],
            [(0.0, 3.0)] * 2,
            [VarKind.INTEGER] * 2,
            "max",
        )
        original = branch_bound.solve_lp
        failed = []

        def up_child_numerical(lp, limits=None):
            if lp.lo[1] >= 1.0:
                failed.append(lp)
                return LpOutcome(status=Status.NUMERICAL)
            return original(lp, limits)

        monkeypatch.setattr(branch_bound, "solve_lp", up_child_numerical)
        out = solve_mip(mip)
        assert len(failed) == 1
        assert failed[0].lo.tolist() == [0.0, 1.0] and failed[0].hi.tolist() == [2.0, 3.0]
        assert out.status is Status.NUMERICAL
        assert out.objective_value == pytest.approx(4.5)
        assert out.best_bound == pytest.approx(4.75)


class TestPropagation:
    def test_a_child_propagation_settles_makes_no_lp(self, monkeypatch):
        # The root of max a + b s.t. 2a + 2b <= 3 branches on a or b at 1.5;
        # the up child (>= 2) leaves the row a least activity of 4 > 3.
        calls = _record_node_lps(monkeypatch)
        out = solve_mip(_two_integer_probe())
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(1.0)
        assert all(lp.lo.max() < 2.0 for lp, _ in calls)
        assert len(calls) == out.nodes_explored

    def test_a_child_inherits_its_tightened_bounds(self, monkeypatch):
        # A child LP of a 5-city tour has more bounds moved than the one its
        # branch set: the degree rows of the branched arc fix the arcs that
        # share its tail or head. Every bound stays integral and in the root box.
        rng = random.Random(2)
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
        root = mip.base
        moved = [
            int(np.count_nonzero(lp.lo != root.lo) + np.count_nonzero(lp.hi != root.hi))
            for lp, _ in calls[1:]
        ]
        assert max(moved) > 1  # more than the branched bound moved
        for lp, _ in calls:
            assert (lp.lo >= root.lo).all() and (lp.hi <= root.hi).all()
            assert np.array_equal(lp.lo, np.round(lp.lo)) and np.array_equal(lp.hi, np.round(lp.hi))

    def test_continuous_bounds_never_move(self, monkeypatch):
        # max x + y + z s.t. y + z <= 4x, 2x <= 1, x binary, y continuous in
        # [0, 10], z integer in [0, 3]: the root has x = 0.5. At the child
        # x = 0 one round reads z <= 0 and y <= 0 off the first row, but
        # only the integer z is tightened; the child x >= 1 is settled by
        # the second row.
        mip = _mip(
            [1.0, 1.0, 1.0],
            [([-4.0, 1.0, 1.0], "le", 0.0), ([2.0, 0.0, 0.0], "le", 1.0)],
            [(0.0, 1.0), (0.0, 10.0), (0.0, 3.0)],
            [VarKind.BINARY, VarKind.CONTINUOUS, VarKind.INTEGER],
            "max",
        )
        calls = _record_node_lps(monkeypatch)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(0.0)
        assert [(lp.lo.tolist(), lp.hi.tolist()) for lp, _ in calls] == [
            ([0.0, 0.0, 0.0], [1.0, 10.0, 3.0]),
            ([0.0, 0.0, 0.0], [0.0, 10.0, 0.0]),
        ]


    def test_roundoff_on_large_terms_settles_no_feasible_child(self):
        # 1e11 x0 + 0.13 x1 + 0.6 x2 - 1e11 x3 <= 0.73 holds at x = 1 (the
        # stored 0.13 + 0.6 is at most the stored 0.73), but its least
        # activity sums to 1.5e-5 past 0.73 in floats: past 1e-6 max(1, |b|),
        # within the row's own scale.
        mip = _mip(
            [0.0] * 4,
            [([1e11, 0.13, 0.6, -1e11], "le", 0.73)],
            [(0.0, 1.0)] * 4,
            [VarKind.BINARY] * 4,
        )
        assert Fraction(0.13) + Fraction(0.6) <= Fraction(0.73)
        box = branch_bound._Propagator(mip).tighten(0, np.ones(4), np.ones(4))
        assert box is not None
        assert box[0].tolist() == box[1].tolist() == [1.0] * 4

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["up", "down"])
    def test_a_cap_that_overflows_leaves_the_bound(self, sign):
        # max x + 1.5y s.t. 1e-300 x + y <= 1e10 (negated for "down"),
        # x + 2y <= 27, x and y integer in [0, 10]. The root is x = 10,
        # y = 8.5, so it branches on y, and the first row's room over
        # 1e-300 caps x at +inf (up) or -inf (down): no finite bound, so x
        # keeps its own. HiGHS gives 22.5 at (9, 9).
        from test_differential import _highs_mip

        mip = _mip(
            [1.0, 1.5],
            [([sign * 1e-300, sign * 1.0], "le", 1e10), ([1.0, 2.0], "le", 27.0)],
            [(0.0, 10.0)] * 2,
            [VarKind.INTEGER] * 2,
            "max",
        )
        out = solve_mip(mip)
        assert (out.status, out.objective_value) == (Status.OPTIMAL, 22.5)
        assert _highs_mip(mip.base, mip.kinds) == (Status.OPTIMAL, pytest.approx(22.5))


class TestIntegralObjective:
    # min 4x0 + 6x1 + x2 + 5x3 s.t. 5x0 + 6x1 + 6x2 + 2x3 >= 9, binary: the
    # root LP is 3.4 (x2 = 1, x0 = 0.6) and the optimum 5 (x0 = x2 = 1). Two
    # node LPs leave the search open at the bound the root hands its children.
    ROW = [([5.0, 6.0, 6.0, 2.0], "ge", 9.0)]

    def test_an_integral_objective_raises_the_open_bound(self):
        out = solve_mip(_binary_mip([4.0, 6.0, 1.0, 5.0], self.ROW), SolveLimits(max_nodes=2))
        assert out.status is Status.ITERATION_LIMIT
        assert out.best_bound == 4.0  # ceil(3.4)
        assert out.best_bound <= solve_mip(_binary_mip([4.0, 6.0, 1.0, 5.0], self.ROW)).objective_value

    @pytest.mark.parametrize("costs, kinds", [
        ([4.5, 6.0, 1.0, 5.0], [VarKind.BINARY] * 4),
        ([4.0, 6.0, 1.0, 5.0], [VarKind.BINARY] * 3 + [VarKind.CONTINUOUS]),
    ], ids=["half-integer-cost", "costed-continuous"])
    def test_other_objectives_keep_the_lp_bound(self, costs, kinds, monkeypatch):
        mip = _mip(costs, self.ROW, [(0.0, 1.0)] * 4, kinds)
        calls = _record_node_lps(monkeypatch)
        out = solve_mip(mip, SolveLimits(max_nodes=2))
        assert out.status is Status.ITERATION_LIMIT
        root = calls[0][1].objective_value
        assert root != math.ceil(root)
        assert out.best_bound == root


class TestLargeIntegralObjectives:
    # min 1e6 a + 999,998 b + x s.t. a + b >= 1, b <= 2x, binary: the root
    # LP is 999,998.5 (b = 1, x = 1/2). Its down child (x = 0, popped first)
    # gives the incumbent 1,000,000 (a = 1) and its up child the optimum
    # 999,999 (b = x = 1), one unit below it.
    def test_a_node_one_unit_below_a_large_incumbent_wins(self, monkeypatch):
        mip = _mip(
            [1e6, 999_998.0, 1.0],
            [([1.0, 1.0, 0.0], "ge", 1.0), ([0.0, 1.0, -2.0], "le", 0.0)],
            [(0.0, 1.0)] * 3,
            [VarKind.BINARY] * 3,
        )
        calls = _record_node_lps(monkeypatch)
        out = solve_mip(mip)
        assert [outcome.objective_value for _, outcome in calls] == pytest.approx(
            [999_998.5, 1e6, 999_999.0])
        assert out.status is Status.OPTIMAL
        assert out.objective_value == 999_999.0
        assert out.best_bound == out.objective_value

    @pytest.mark.parametrize("direction", ["min", "max"])
    def test_best_bound_is_the_optimum(self, direction):
        # 2a + 2b >= 1 (min) or <= 3 (max), binary, cost 5e6 each: the root
        # is fractional and the optimum 5,000,000.
        sense, rhs = ("ge", 1.0) if direction == "min" else ("le", 3.0)
        mip = _mip([5e6, 5e6], [([2.0, 2.0], sense, rhs)], [(0.0, 1.0)] * 2,
                   [VarKind.BINARY] * 2, direction)
        out = solve_mip(mip)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == 5e6
        assert out.best_bound == 5e6

    @pytest.mark.parametrize("value", [0.0, 3.0000001, -2.9999999, 999_999.0, 1e6, 5e6, -5e6, 1e12])
    def test_an_integral_value_is_not_lowered(self, value):
        assert branch_bound._raised(value) >= value
        assert branch_bound._raised(value) == value or branch_bound._raised(value) == math.ceil(value)

    def test_a_fraction_is_raised_to_the_next_integer(self):
        assert branch_bound._raised(3.4) == 4.0
        assert branch_bound._raised(-3.4) == -3.0
        assert branch_bound._raised(999_998.6) == 999_999.0


class TestNodeAccounting:
    def test_iterations_sum_the_pivots_of_every_node_lp(self, monkeypatch):
        calls = _record_node_lps(monkeypatch)
        out = solve_mip(_two_integer_probe())
        assert len(calls) == out.nodes_explored > 1
        assert out.iterations == sum(outcome.iterations for _, outcome in calls) > 0

    def test_node_lps_share_the_root_arrays(self, monkeypatch):
        rng = random.Random(2)  # a 5-city tour that branches (11 nodes)
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
        first = calls[0][0]
        assert np.array_equal(first.lo, root.lo) and np.array_equal(first.hi, root.hi)
        for lp, _ in calls:
            assert lp.c is root.c
            assert lp.A_eq is root.A_eq and lp.b_eq is root.b_eq
            assert lp.A_ub is root.A_ub and lp.b_ub is root.b_ub
            assert lp.working is root.working
            assert lp.b is root.b and lp.c_min is root.c_min and lp.logical_hi is root.logical_hi


def _criterion_8_tours():
    """The 20 tour solves of acceptance criterion 8: each tour plain and
    with its arc forced."""
    for d, (i, j) in criterion_8_tours():
        ids = tuple(range(1, len(d) + 1))
        mip = models.build_tour(models.DistanceMatrix(from_ids=ids, to_ids=ids, d=d))
        yield mip
        yield models.force_arc(mip, i + 1, j + 1)


def _count_inv(monkeypatch):
    """Count every later call of np.linalg.inv, which still runs."""
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda M: calls.append(M.shape) or inv(M))
    return calls


class TestCarriedInverse:
    """A child LP starts from its parent's final basis inverse."""

    @staticmethod
    def _tour_answers():
        """(answers, factorised starts, np.linalg.inv calls) of the 20 tour
        solves; a start is factorised when `_dual_start` gets no inverse."""
        starts, dual_start = [], linprog._dual_start

        def recording(A, b, c, lo, hi, basis, inverse):
            starts.append(inverse is None)
            return dual_start(A, b, c, lo, hi, basis, inverse)

        with pytest.MonkeyPatch.context() as patch:
            inv_calls = _count_inv(patch)
            patch.setattr(linprog, "_dual_start", recording)
            answers = []
            for mip in _criterion_8_tours():
                out = solve_mip(mip)
                answers.append((out.status, out.objective_value, out.nodes_explored,
                                out.iterations))
        return answers, sum(starts), len(inv_calls)

    def test_no_tour_child_factorises_its_start(self, monkeypatch):
        """81 of the 101 node LPs are children. Each carries its parent's
        inverse and factorises nothing at its start; the 6 factorisations
        left are paths, their root LP included, reaching 50 updates. With no
        byte budget, every child factorises its start, as before, and every
        answer is the same."""
        answers, starts, inv_calls = self._tour_answers()
        assert sum(nodes for *_, nodes, _ in answers) == 101
        assert (starts, inv_calls) == (0, 6)
        monkeypatch.setattr(branch_bound, "_INVERSE_BUDGET", 0)
        assert self._tour_answers() == (answers, 81, 81)

    def test_the_update_count_travels_along_each_path(self, monkeypatch):
        """Refactorising after every 5th update, each node LP factorises as
        often as the updates it carried and made reach 5, and hands the rest
        on: a path is refactorised even where each of its LPs makes fewer
        than 5 pivots. The answers stay as they are."""
        mips = list(_criterion_8_tours())
        expected = [solve_mip(mip).objective_value for mip in mips]
        monkeypatch.setattr(linprog, "_REFACTOR_EVERY", 5)
        inv_calls = _count_inv(monkeypatch)
        original, short_refactorised = branch_bound.solve_lp, []

        def checking(lp, limits=None):
            before = len(inv_calls)
            out = original(lp, limits)
            carried = lp.inverse_updates if lp.basis_inverse is not None else 0
            starts = lp.basis is not None and lp.basis_inverse is None
            total = carried + out.iterations  # every tour pivot is a basis change
            assert len(inv_calls) - before == starts + total // 5
            if out.status is Status.OPTIMAL:
                assert out.inverse_updates == total % 5
                if out.iterations < 5 and total >= 5:
                    short_refactorised.append(lp)
            return out

        monkeypatch.setattr(branch_bound, "solve_lp", checking)
        assert [solve_mip(mip).objective_value for mip in mips] == expected
        assert short_refactorised

    def test_each_child_solves_as_from_its_checked_basis(self, monkeypatch):
        """The inverse a child carries is read-only, and solving it leaves
        the array its sibling shares unchanged. Each child ends with the
        status, pivots and point (at OPTIMAL) of a solve from
        `with_bounds(lo, hi, basis)`, which factorises the basis afresh."""
        calls, original = [], branch_bound.solve_lp

        def recording(lp, limits=None):
            carried = lp.basis_inverse
            kept = None if carried is None else carried.copy()
            out = original(lp, limits)
            if carried is not None:
                assert not carried.flags.writeable and np.array_equal(carried, kept)
            calls.append((lp, out))
            return out

        monkeypatch.setattr(branch_bound, "solve_lp", recording)
        for mip in _criterion_8_tours():
            solve_mip(mip)
        children = [(lp, out) for lp, out in calls if lp.basis_inverse is not None]
        assert len(children) == 81
        for lp, out in children:
            fresh = solve_lp(lp.with_bounds(lp.lo, lp.hi, lp.basis))
            assert (out.status, out.iterations) == (fresh.status, fresh.iterations)
            if out.status is Status.OPTIMAL:
                np.testing.assert_allclose(out.x, fresh.x, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("padding, carried", [(4, False), (0, True)],
                             ids=["held-rows", "every-row"])
    def test_a_root_that_held_rows_hands_on_no_inverse(self, padding, carried, monkeypatch):
        """max a + b s.t. 2a + 2b <= 3, integers a, b in [0, 10], and
        `padding` rows a + b <= 20, 21, ...: with four of them the root
        holds them back, its B^-1 covers only the row that binds, and its
        children factorise their start."""
        rows = [([2.0, 2.0], "le", 3.0)] + [([1.0, 1.0], "le", 20.0 + k) for k in range(padding)]
        mip = _mip([1.0, 1.0], rows, [(0.0, 10.0)] * 2, [VarKind.INTEGER] * 2, "max")
        restricted = []
        solve_restricted = linprog._solve_restricted
        monkeypatch.setattr(linprog, "_solve_restricted",
                            lambda *args: restricted.append(args) or solve_restricted(*args))
        calls = _record_node_lps(monkeypatch)
        out = solve_mip(mip)
        assert (out.status, out.objective_value) == (Status.OPTIMAL, 1.0)
        (_, root_out), *children = calls
        assert len(restricted) == (not carried)
        assert (root_out.basis_inverse is not None) is carried
        root_children = [lp for lp, _ in children if lp.basis is root_out.basis]
        assert root_children
        assert all((lp.basis_inverse is not None) is carried for lp in root_children)
