"""Differential tests: solve_lp and solve_mip against scipy's HiGHS.

Problems are generated by hypothesis from a fixed seed, `@seed(0)` on each
property test, with a fixed example budget, so every run checks the same
problems, whatever the wording of a test's source (derandomize alone seeds
from a digest of it).
"""

import ast
import itertools
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, note, seed, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from model_oracles import chromatic_oracle, criterion_8_tours

from pftopt import linprog as linprog_module
from pftopt import models, spatial
from pftopt.branch_bound import MipProblem, VarKind, solve_mip
from pftopt.linprog import LinearProgram, Status, solve_lp, split_senses

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=300)

HIGHS = {"method": "highs", "options": {"presolve": False}}

COEFFICIENT = st.integers(-5, 5)


@st.composite
def _rows(draw, n, max_rows):
    m = draw(st.integers(0, max_rows))
    A = np.array(
        [draw(st.lists(COEFFICIENT, min_size=n, max_size=n)) for _ in range(m)], dtype=float
    ).reshape(m, n)
    senses = [draw(st.sampled_from(["le", "eq", "ge"])) for _ in range(m)]
    b = np.array([draw(st.integers(-10, 10)) for _ in range(m)], dtype=float)
    return A, senses, b


@st.composite
def _lp_bound(draw):
    """Nonnegative, box, free, fixed or upper-only."""
    kind = draw(st.sampled_from(["nonnegative", "box", "free", "fixed", "upper"]))
    if kind == "nonnegative":
        return 0.0, math.inf
    if kind == "free":
        return -math.inf, math.inf
    a = draw(st.integers(-5, 5))
    if kind == "fixed":
        return float(a), float(a)
    if kind == "upper":
        return -math.inf, float(a)
    return float(a), float(draw(st.integers(a, 6)))


@st.composite
def _mip_bound(draw):
    """A half-integer box, or a fixed half-integer value."""
    lo = draw(st.integers(-6, 6)) / 2
    return lo, lo + draw(st.integers(0, 8)) / 2


@st.composite
def lps(draw):
    n = draw(st.integers(1, 8))
    c = np.array(draw(st.lists(COEFFICIENT, min_size=n, max_size=n)), dtype=float)
    A, senses, b = draw(_rows(n, 6))
    lo, hi = zip(*[draw(_lp_bound()) for _ in range(n)])
    return c, A, senses, b, np.array(lo), np.array(hi), draw(st.sampled_from(["min", "max"]))


@st.composite
def mips(draw):
    n = draw(st.integers(1, 6))
    c = np.array(draw(st.lists(COEFFICIENT, min_size=n, max_size=n)), dtype=float)
    A, senses, b = draw(_rows(n, 4))
    lo, hi = zip(*[draw(_mip_bound()) for _ in range(n)])
    kinds = [draw(st.sampled_from([VarKind.INTEGER, VarKind.CONTINUOUS])) for _ in range(n)]
    direction = draw(st.sampled_from(["min", "max"]))
    return c, A, senses, b, np.array(lo), np.array(hi), kinds, direction


def _linear_program(c, A, senses, b, lo, hi, direction):
    A_eq, b_eq, A_ub, b_ub = split_senses(A, senses, b)
    return LinearProgram(c, A_eq, b_eq, A_ub, b_ub, lo, hi, direction)


def _highs_lp(lp):
    """(status, objective) from HiGHS.

    Feasibility is settled first with a zero objective, so an
    unbounded-or-infeasible answer cannot be ambiguous. Presolve is off:
    with it, HiGHS has called feasible unbounded LPs infeasible (max -x1 + x7
    - x8 over x1 + x7 + x8 >= 0, -x1 + x7 + x8 <= 0, x1 in [0, 1], x7 >= 0,
    x8 free).
    """
    rows = {}
    if lp.b_eq.size:
        rows.update(A_eq=lp.A_eq, b_eq=lp.b_eq)
    if lp.b_ub.size:
        rows.update(A_ub=lp.A_ub, b_ub=lp.b_ub)
    bounds = [
        (None if math.isinf(l) else l, None if math.isinf(h) else h) for l, h in zip(lp.lo, lp.hi)
    ]
    feasible = linprog(np.zeros(lp.num_vars), bounds=bounds, **HIGHS, **rows)
    assert feasible.status in (0, 2), feasible.message
    if feasible.status == 2:
        return Status.INFEASIBLE, None
    sign = -1.0 if lp.direction == "max" else 1.0
    res = linprog(sign * lp.c, bounds=bounds, **HIGHS, **rows)
    assert res.status in (0, 3), res.message
    if res.status == 3:
        return Status.UNBOUNDED, None
    return Status.OPTIMAL, sign * res.fun


def _highs_mip(lp, kinds):
    """(status, objective) from HiGHS. Integer bounds are rounded inward
    first: given x integer in [-2.5, 1.5], HiGHS has returned x = -2.5."""
    integer = np.array([kind is VarKind.INTEGER for kind in kinds])
    lo = np.where(integer, np.ceil(lp.lo), lp.lo)
    hi = np.where(integer, np.floor(lp.hi), lp.hi)
    if (lo > hi).any():
        return Status.INFEASIBLE, None
    sign = -1.0 if lp.direction == "max" else 1.0
    constraints = []
    if lp.b_eq.size:
        constraints.append(LinearConstraint(lp.A_eq, lp.b_eq, lp.b_eq))
    if lp.b_ub.size:
        constraints.append(LinearConstraint(lp.A_ub, -np.inf, lp.b_ub))
    res = milp(
        sign * lp.c,
        integrality=integer,
        bounds=Bounds(lo, hi),
        constraints=constraints,
    )
    assert res.status in (0, 2), res.message
    if res.status == 2:
        return Status.INFEASIBLE, None
    return Status.OPTIMAL, sign * res.fun


def _assert_same_answer(ours, status, objective):
    assert ours.status is status
    if status is Status.OPTIMAL:
        assert ours.objective_value == pytest.approx(objective, rel=1e-6, abs=1e-6)


@ORACLE
@seed(0)
@given(lps())
def test_solve_lp_matches_highs(problem):
    lp = _linear_program(*problem)
    _assert_same_answer(solve_lp(lp), *_highs_lp(lp))


@ORACLE
@seed(0)
@given(mips())
def test_solve_mip_matches_highs(problem):
    c, A, senses, b, lo, hi, kinds, direction = problem
    lp = _linear_program(c, A, senses, b, lo, hi, direction)
    mip = MipProblem(lp, tuple(kinds), tuple(f"x{i}" for i in range(len(kinds))))
    _assert_same_answer(solve_mip(mip), *_highs_mip(lp, kinds))


def _assert_farkas(lp, y):
    """y proves lp infeasible, checked from lp's arrays alone: with s the
    logicals (s = 0 on an equality row, s >= 0 on an inequality row), the
    least value of y (A x + s) over the bounds exceeds y b. Coefficients
    within 1e-9 of the largest count as zero."""
    m_eq, m = lp.b_eq.size, lp.b_eq.size + lp.b_ub.size
    assert y is not None and y.shape == (m,)
    coef = np.concatenate([y[:m_eq] @ lp.A_eq + y[m_eq:] @ lp.A_ub, y])
    coef[np.abs(coef) <= 1e-9 * np.abs(coef).max(initial=0.0)] = 0.0
    lo = np.concatenate([lp.lo, np.zeros(m)])
    hi = np.concatenate([lp.hi, np.zeros(m_eq), np.full(m - m_eq, math.inf)])
    low_end = np.where(coef > 0, lo, hi)[coef != 0.0]
    least = float(coef[coef != 0.0] @ low_end)
    rhs = float(y[:m_eq] @ lp.b_eq + y[m_eq:] @ lp.b_ub)
    assert least > rhs + 1e-9 * max(1.0, abs(rhs))


@st.composite
def tightened_lps(draw):
    """A boxed LP (so never unbounded) and up to three bound changes, each
    moving one bound of one variable past the last optimum by 0.5-6, as a
    branching step does; a bound pushed beyond the other stops at it. The
    boolean prefers the upper bound."""
    n = draw(st.integers(1, 8))
    c = np.array(draw(st.lists(COEFFICIENT, min_size=n, max_size=n)), dtype=float)
    A, senses, b = draw(_rows(n, 6))
    lo = np.array([draw(st.integers(-5, 5)) for _ in range(n)], dtype=float)
    hi = np.array([draw(st.integers(int(v), 6)) for v in lo], dtype=float)
    steps = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.booleans(), st.sampled_from([0.5, 1.0, 2.5, 6.0])),
        min_size=1, max_size=3))
    return (c, A, senses, b, lo, hi, draw(st.sampled_from(["min", "max"]))), steps


def _resolve_tightened(lp, steps):
    """Solve lp, then re-solve it after each bound change of `steps` (see
    `tightened_lps`) from the last optimal basis, as a branch-and-bound child
    starts from its parent's. Every solve must agree with HiGHS, and every
    INFEASIBLE carry a Farkas row that checks."""
    out = solve_lp(lp)
    _assert_same_answer(out, *_highs_lp(lp))
    for j, upper, amount in steps:
        if out.status is not Status.OPTIMAL:
            break
        lo, hi = lp.lo.copy(), lp.hi.copy()
        # Cut off the optimum on the side drawn, or on the other if x_j sits
        # at the drawn side's far bound.
        if upper and out.x[j] > lo[j] or out.x[j] >= hi[j]:
            hi[j] = max(lo[j], out.x[j] - amount)
        else:
            lo[j] = min(hi[j], out.x[j] + amount)
        lp = lp.with_bounds(lo, hi, out.basis)
        note(f"x{j} in [{lo[j]}, {hi[j]}] from basis {out.basis.tolist()}")
        out = solve_lp(lp)
        _assert_same_answer(out, *_highs_lp(lp))
        if out.status is Status.INFEASIBLE:
            _assert_farkas(lp, out.farkas)


@ORACLE
@seed(0)
@given(tightened_lps())
def test_warm_resolves_after_a_tightened_bound_match_highs(case):
    problem, steps = case
    _resolve_tightened(_linear_program(*problem), steps)


def test_a_child_a_bound_flipping_ratio_test_pruned_is_optimal():
    """min 0 over x1 + x3 - 3 x4 = 0, x1 in [0, 1], x2 = 0, x3 in [0, 2],
    x4 in [0.5, 1], all integer: x = (1, 0, 2, 1) is feasible, and HiGHS
    says OPTIMAL. A dual simplex with a bound-flipping ratio test called the
    child x3 = 2, x4 = 1 infeasible, because roundoff made the slope
    1/3 - 1/3 positive, and so pruned the optimum."""
    lp = LinearProgram(np.zeros(4), A_eq=[[1, 0, 1, -3]], b_eq=[0],
                       lo=[0, 0, 0, 0.5], hi=[1, 0, 2, 1])
    kinds = [VarKind.INTEGER] * 4
    highs = _highs_mip(lp, kinds)
    assert highs[0] is Status.OPTIMAL
    _assert_same_answer(solve_mip(MipProblem(lp, tuple(kinds), ("x1", "x2", "x3", "x4"))), *highs)


def _overshoot_lp(column=None, side=None, step=0.0):
    """7 boxed variables, 4 rows, coefficients 1e-4..1e4, maximised. With a
    column, that column's bound on `side` is opened (lo to -inf, hi to
    +inf) and its cost moved by `step` toward it."""
    A = [[1e2, 0, 0, 0, 1e4, 0, -1e-3], [1, -1, -1e2, 1e3, 0, 1e-3, -1e2],
         [0, 1e4, 0, 1, -1e-3, 1e-2, 0], [1e-4, -1e2, 0, 0, -1e2, 0, 1e2]]
    c = np.array([1e4, 100, 1e4, 0, 0, 0, 0])
    lo, hi = np.array([-4, -5, 4, 4, 3, 3, -3.0]), np.array([2, 1, 4, 9, 5, 7, 0.0])
    if side == "lo":
        lo[column], c[column] = -math.inf, c[column] - step
    elif side == "hi":
        hi[column], c[column] = math.inf, c[column] + step
    return _linear_program(
        c, np.array(A), ["ge", "le", "le", "ge"],
        np.array([29900.003, 3899.005, 10004.047, -600.0011]), lo, hi, "max",
    )


def test_the_ratio_test_overshoot_lp_is_optimal():
    """The primal's ratio test lets x2 overshoot its bound on this LP and
    ends NUMERICAL; every column can rest at the bound its cost wants, so
    the dual simplex solves it, to 60100 as HiGHS does."""
    lp = _overshoot_lp()
    status, objective = _highs_lp(lp)
    assert (status, objective) == (Status.OPTIMAL, pytest.approx(60100.0))
    _assert_same_answer(solve_lp(lp), status, objective)


@pytest.mark.parametrize("step", [1.0, 1e2, 1e4])
@pytest.mark.parametrize("side", ["lo", "hi"])
@pytest.mark.parametrize("column", range(7))
def test_the_overshoot_lp_with_a_bound_opened_matches_highs(column, side, step):
    """The overshoot LP with one bound opened and its cost turned toward
    it. In 34 of these 42 LPs the cost then points at the infinite bound,
    so the logical start is not dual feasible and the dual simplex runs on
    shifted costs."""
    lp = _overshoot_lp(column, side, step)
    _assert_same_answer(solve_lp(lp), *_highs_lp(lp))


def _transportation_lp(seed):
    """A random transportation LP with 24-40 rows: supply rows sum_j x_ij
    <= s_i, then demand rows sum_i x_ij >= d_j or = d_j, at integer costs.
    Some draws have more demand than supply and are infeasible."""
    rng = np.random.default_rng(seed)
    sources = int(rng.integers(10, 17))
    sinks = int(rng.integers(14, 41 - sources))
    A = np.vstack([np.kron(np.eye(sources), np.ones(sinks)), np.tile(np.eye(sinks), sources)])
    senses = ["le"] * sources + list(rng.choice(["ge", "eq"], size=sinks))
    b = np.concatenate([rng.integers(10, 61, sources), rng.integers(1, 31, sinks)])
    cost = rng.integers(1, 31, sources * sinks)
    return _linear_program(cost, A, senses, b, None, None, "min")


@pytest.mark.parametrize("seed", range(30))
def test_transportation_lps_match_highs(seed, monkeypatch):
    # The dual simplex solves these in 17-45 pivots. Refactorising every 10
    # pivots, past 10 the basis inverse has been refactorised at least once
    # and updated in product form in between.
    monkeypatch.setattr(linprog_module, "_REFACTOR_EVERY", 10)
    lp = _transportation_lp(seed)
    ours = solve_lp(lp)
    _assert_same_answer(ours, *_highs_lp(lp))
    assert ours.iterations > 10


@st.composite
def degenerate_lps(draw):
    """Rows over the coefficients -1, 0, 1 and 2 with rhs mostly zero, so
    many basic variables sit at zero and ratio tests tie."""
    n = draw(st.integers(3, 10))
    m = draw(st.integers(2, 8))
    A = np.array(
        [draw(st.lists(st.sampled_from([0, 1, 1, 2, -1]), min_size=n, max_size=n)) for _ in range(m)],
        dtype=float,
    )
    senses = [draw(st.sampled_from(["le", "le", "eq", "ge"])) for _ in range(m)]
    b = np.array([draw(st.sampled_from([0, 0, 0, 1])) for _ in range(m)], dtype=float)
    c = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float)
    hi = np.array([draw(st.sampled_from([1.0, math.inf])) for _ in range(n)])
    return c, A, senses, b, np.zeros(n), hi, draw(st.sampled_from(["min", "max"]))


@ORACLE
@seed(0)
@given(degenerate_lps())
def test_degenerate_lps_match_highs(problem):
    lp = _linear_program(*problem)
    _assert_same_answer(solve_lp(lp), *_highs_lp(lp))


@st.composite
def scaled_lps(draw):
    """(integer LP, the same LP badly scaled). The second form multiplies
    each row by 10**r and substitutes x_j = 10**s_j y_j, with r and s in
    -2..2, so its coefficients range over 1e-4..5e4 while its optimum
    keeps the integer LP's value: HiGHS solves the well-scaled form as the
    oracle for the badly scaled one. Up to 12 variables."""
    n = draw(st.integers(1, 12))
    c = np.array(draw(st.lists(COEFFICIENT, min_size=n, max_size=n)), dtype=float)
    A, senses, b = draw(_rows(n, 8))
    lo, hi = map(np.array, zip(*[draw(_lp_bound()) for _ in range(n)]))
    direction = draw(st.sampled_from(["min", "max"]))
    row = 10.0 ** np.array(draw(st.lists(st.integers(-2, 2), min_size=len(b), max_size=len(b))))
    col = 10.0 ** np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    scaled = (c * col, row[:, None] * A * col, senses, row * b, lo / col, hi / col, direction)
    return (c, A, senses, b, lo, hi, direction), scaled


@ORACLE
@seed(0)
@given(scaled_lps())
def test_badly_scaled_lps_match_highs(problems):
    well, badly = problems
    _assert_same_answer(solve_lp(_linear_program(*badly)), *_highs_lp(_linear_program(*well)))


def test_rows_of_large_terms_keep_their_optimum():
    """A row's residual is judged against the size of its terms: at the
    optimum HiGHS finds, rows whose terms sum to 2e11 in absolute value end
    2.7e-4 off, about 1e-15 of that, which is the roundoff of evaluating
    them. Judged against the rhs scale (1e3) alone, this optimum would be
    called NUMERICAL."""
    inf = math.inf
    c = [1, 0, 0, 0, 0, -1e4, 0, 0, 0, 0, -1e3, 0]
    A = [
        [-1e-2, 0, 0, 1e3, -1e-3, 1e-1, -1e4, -1e2, 1e1, 0, 1e2, 0],
        [0, 0, 0, 0, -1e-3, -1, 0, -1e-4, 0, 1e3, 0, 1e1],
        [-1e-2, 0, 0, 1e3, -1e-3, 1e-1, -1e4, -1e2, 1e1, 0, 1e2, 0],
        [0, 0, 0, -1e1, 1e-2, -1e4, -1e-2, 1e-4, 0, -1e1, 0, 0],
        [-1, 0, 0, 0, 1e-4, -1e4, -1e1, -1e3, -1, -1e2, -1e-1, 1e-1],
        [0, 1e-2, 0, 0, 0, 0, -1e4, 0, 1e-3, 0, 1e3, -1e-1],
        [0, 0, -1, -1e2, 0, 0, 1, 1e2, 1e-1, 0, 0, 0],
        [-1e2, 0, 1e1, 0, 0, 0, 0, 0, 0, -1e3, 1e-2, -1e3],
    ]
    senses = ["ge", "eq", "ge", "ge", "eq", "le", "le", "eq"]
    b = [1e3, 0, -1e-4, 1e3, 1e3, 0, -1e-4, -1e-4]
    lo = [0, -inf, 0, -inf, 2, -inf, -inf, 4, -5, 5, -inf, 5]
    hi = [inf, -1, inf, 3, 2, inf, -2, 4, 3, 5, -5, 5]
    lp = _linear_program(*map(np.array, (c, A, senses, b, lo, hi)), "min")
    _assert_same_answer(solve_lp(lp), *_highs_lp(lp))


def _covering_lp(seed):
    """A random covering LP with 10-30 rows: min c.x over A x >= b, x >= 0,
    with A >= 0 (every row has a positive entry), b > 0 and c > 0. The
    start x = 0 violates every row, and many of the rows it violates end
    slack."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(10, 31))
    n = int(rng.integers(5, 21))
    A = rng.integers(1, 4, (m, n)) * (rng.random((m, n)) < 0.3)
    A[np.arange(m), rng.integers(0, n, m)] = rng.integers(1, 4, m)
    b = rng.integers(1, 11, m)
    cost = rng.integers(1, 11, n)
    return _linear_program(cost, A, ["ge"] * m, b, None, None, "min")


@pytest.mark.parametrize("seed", range(30))
def test_covering_lps_match_highs(seed):
    lp = _covering_lp(seed)
    _assert_same_answer(solve_lp(lp), *_highs_lp(lp))


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _coloring_graphs():
    """(areas, pairs) params: the fixture map, graphs whose chromatic number
    exceeds their greedy clique (odd cycles, an odd wheel, the Groetzsch
    graph), and seeded random graphs."""
    gal = spatial.parse_gal((FIXTURES / "neighborhoods.gal").read_text())
    hood = spatial.weights_to_pairs(gal)
    yield pytest.param(hood.area_ids, [tuple(p) for p in hood.pairs], id="neighborhoods")
    yield pytest.param(range(5), _cycle(5), id="C5")
    yield pytest.param(range(7), _cycle(7), id="C7")
    yield pytest.param(range(6), _cycle(5) + [(5, i) for i in range(5)], id="W5")
    outer, inner = _cycle(5), [(5 + i, j) for i in range(5) for j in ((i + 1) % 5, (i - 1) % 5)]
    yield pytest.param(range(11), outer + inner + [(10, 5 + i) for i in range(5)], id="groetzsch")
    rng = np.random.default_rng(7)
    for seed in range(8):
        n = int(rng.integers(4, 9))
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        yield pytest.param(range(n), pairs, id=f"random{seed}")


@pytest.mark.parametrize("areas, pairs", _coloring_graphs())
def test_clique_fixed_coloring_matches_highs(areas, pairs):
    """For every color count k from the greedy clique's size q to chi + 1,
    HiGHS and solve_mip agree on whether the clique-fixed model is feasible;
    the range includes the infeasible k = chi - 1 whenever chi - 1 >= q."""
    adj = models.AdjacencySet(tuple(areas), frozenset(frozenset(p) for p in pairs))
    chromatic = chromatic_oracle(adj.area_ids, pairs)
    q = len(models._greedy_clique(adj.touches))
    for k in range(max(1, q), chromatic + 2):
        mip = models.build_coloring(adj, k)
        # _highs_mip keeps only INTEGER kinds integral; mip.base holds the [0, 1] bounds.
        highs, _ = _highs_mip(mip.base, [VarKind.INTEGER] * mip.num_vars)
        assert highs is (Status.OPTIMAL if k >= chromatic else Status.INFEASIBLE)
        assert solve_mip(mip).status is highs


@pytest.mark.parametrize("areas, pairs", _coloring_graphs())
def test_coloring_pair_rows_in_sorted_index_order(areas, pairs):
    """The pair rows of a one-color model, read back as area indices, are the
    boundary pairs as sorted index pairs (a, b), a < b, in sorted order."""
    adj = models.AdjacencySet(tuple(areas), frozenset(frozenset(p) for p in pairs))
    index = {a: i for i, a in enumerate(adj.area_ids)}
    reference = sorted(sorted(index[a] for a in p) for p in adj.pairs)
    rows = models.build_coloring(adj, 1).base.A_ub
    assert [np.flatnonzero(row).tolist() for row in rows] == reference


def _held_back(lp):
    """(outcome, number of solves that held rows back) of solve_lp(lp)."""
    with mock.patch.object(linprog_module, "_solve_restricted",
                           wraps=linprog_module._solve_restricted) as restricted:
        out = solve_lp(lp)
    return out, restricted.call_count


@st.composite
def redundant_row_lps(draw):
    """An LP whose `<=` rows x = 0 meets outnumber its other rows at least
    four to one, so they are held back: 1-3 rows that x = 0 breaks (an
    equality or a `>=` row with a positive rhs), then 4-10 times as many
    `<=` rows with a rhs of 0-20, many of them redundant. Costs are
    nonnegative (negated under max), so x = 0 is a dual feasible start."""
    n = draw(st.integers(2, 8))
    c = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
    k = draw(st.integers(1, 3))
    m = k + draw(st.integers(4 * k, 10 * k))
    A = np.array([draw(st.lists(COEFFICIENT, min_size=n, max_size=n)) for _ in range(m)],
                 dtype=float)
    A[:k] = np.abs(A[:k])
    A[np.arange(k), draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))] += 1.0
    senses = [draw(st.sampled_from(["eq", "ge"])) for _ in range(k)] + ["le"] * (m - k)
    b = np.array([draw(st.integers(1, 10)) for _ in range(k)]
                 + [draw(st.integers(0, 20)) for _ in range(m - k)], dtype=float)
    hi = np.array([draw(st.sampled_from([2.0, 6.0, math.inf])) for _ in range(n)])
    direction = draw(st.sampled_from(["min", "max"]))
    c = -c if direction == "max" else c
    return c, A, senses, b, np.zeros(n), hi, direction


@ORACLE
@seed(0)
@given(redundant_row_lps())
def test_lps_with_many_redundant_rows_match_highs(problem):
    lp = _linear_program(*problem)
    out, held_back = _held_back(lp)
    assert held_back == 1
    _assert_same_answer(out, *_highs_lp(lp))
    if out.status is Status.INFEASIBLE:
        _assert_farkas(lp, out.farkas)


def test_an_infeasibility_a_held_row_proves_carries_a_padded_farkas_row():
    """min x1 + x2 s.t. x1 + x2 >= 2, x1 <= 0.5, x2 <= 0.5 and three rows
    that never bind. The last five rows are held back; the restricted
    optimum breaks x1 <= 0.5, then x2 <= 0.5, and only with both is the LP
    infeasible. The Farkas row is zero on the three rows still held."""
    A = np.array([[1, 1], [1, 0], [0, 1], [1, 1], [1, -1], [-1, 1]], dtype=float)
    lp = _linear_program(np.array([1.0, 1.0]), A, ["ge"] + ["le"] * 5,
                         np.array([2, 0.5, 0.5, 5, 3, 3]), None, None, "min")
    assert _highs_lp(lp)[0] is Status.INFEASIBLE
    out, held_back = _held_back(lp)
    assert (out.status, held_back) == (Status.INFEASIBLE, 1)
    assert out.farkas[3:].tolist() == [0.0, 0.0, 0.0] and (out.farkas[:3] != 0.0).all()
    _assert_farkas(lp, out.farkas)


def _service_lp(n, p, seed):
    """The service-coverage (p-median) model over n <= 26 random points on a
    100 x 100 grid, distances rounded. The ids are letters, whose variable
    names cannot collide."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 100, (n, 2))
    d = np.round(np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1)))
    ids = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:n])
    return models.build_service_coverage(models.DistanceMatrix(from_ids=ids, to_ids=ids, d=d), p)


@ORACLE
@seed(0)
@given(redundant_row_lps(), st.lists(
    st.tuples(st.integers(0, 7), st.booleans(), st.sampled_from([0.5, 1.0, 2.5, 6.0])),
    min_size=1, max_size=3))
def test_warm_children_that_hold_rows_match_highs(problem, steps):
    """Children of LPs that hold rows back, each started from its parent's
    basis, which solve on every row."""
    n = problem[0].size
    _resolve_tightened(_linear_program(*problem), [(j % n, up, by) for j, up, by in steps])


def test_a_warm_child_solves_on_every_row():
    """min x1 + x2 s.t. x1 + x2 >= 1 and x1 <= 2, 3, 4, 5: the root holds the
    four slack rows back and ends with their logicals basic, yet the child
    x1 <= 0.5 started from that basis holds no row back."""
    A = np.array([[1, 1], [1, 0], [1, 0], [1, 0], [1, 0]], dtype=float)
    lp = _linear_program(np.array([1.0, 1.0]), A, ["ge"] + ["le"] * 4,
                         np.array([1, 2, 3, 4, 5.0]), None, None, "min")
    root, held_back = _held_back(lp)
    assert held_back == 1
    child = lp.with_bounds(lp.lo, [0.5, math.inf], root.basis)
    out, held_back = _held_back(child)
    assert held_back == 0
    _assert_same_answer(out, *_highs_lp(child))
    assert out.x.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("seed", range(4))
def test_children_of_a_service_root_that_held_rows_match_highs(seed):
    """Children of a 14-point service model's root, each from its parent's
    basis, that close or open one site after another, as branching on the
    site variables does. The root holds its linking rows back, and the
    basis it returns (the held rows' logicals basic) starts each child; an
    infeasible child (more sites closed than n - p allows) carries a Farkas
    row that checks."""
    lp = _service_lp(14, 4, seed).base
    sites = np.arange(lp.num_vars - 14, lp.num_vars)
    out, held_back = _held_back(lp)
    assert held_back == 1
    for site in np.random.default_rng(seed).permutation(sites)[:12]:
        if out.status is not Status.OPTIMAL:
            break
        lo, hi = lp.lo.copy(), lp.hi.copy()
        if out.x[site] > 0.5:
            hi[site] = 0.0
        else:
            lo[site] = 1.0
        lp = lp.with_bounds(lo, hi, out.basis)
        out = solve_lp(lp)
        _assert_same_answer(out, *_highs_lp(lp))
        if out.status is Status.INFEASIBLE:
            _assert_farkas(lp, out.farkas)


@pytest.mark.parametrize("n, p, seed", [(9, 2, 0), (10, 3, 1), (12, 3, 2), (12, 4, 3)])
def test_a_mip_whose_restricted_point_breaks_a_held_row_matches_highs(n, p, seed):
    """At its first restricted optimum a p-median root serves every point
    from itself at cost 0: an integral point that breaks the held linking
    rows Y_ij <= X_j. Taken as the root's point, it would be the incumbent,
    at 0. The whole search must instead agree with HiGHS."""
    mip = _service_lp(n, p, seed)
    rounds = []
    run_dual = linprog_module._run_dual

    def counting(A, *args):
        rounds.append(A.shape[0])
        return run_dual(A, *args)

    with mock.patch.object(linprog_module, "_run_dual", counting):
        root = solve_lp(mip.base)
    assert root.status is Status.OPTIMAL and root.objective_value > 0 and len(rounds) > 1
    status, objective = _highs_mip(mip.base, [VarKind.INTEGER] * mip.num_vars)
    assert objective > 0
    _assert_same_answer(solve_mip(mip), status, objective)


@st.composite
def propagated_mips(draw):
    """MIPs that exercise bound propagation and the integral-objective
    bound: general integers in boxes, continuous columns with an infinite
    bound, equality rows and negative coefficients. A continuous column with
    an infinite bound costs 0 (free) or points its cost at its finite bound,
    so no relaxation is unbounded. Costs are integers, or one integer column
    costs a half more. Each row is met by a drawn point, with slack on an
    inequality, and its rhs is then moved by 0.5 or -4 at times, so that
    some instances are infeasible."""
    n = draw(st.integers(2, 7))
    kinds, c, lo, hi, point = [], [], [], [], []
    for _ in range(n):
        cost = draw(COEFFICIENT)
        a = draw(st.integers(-3, 3))
        if draw(st.integers(0, 2)):
            kinds.append(VarKind.INTEGER)
            bounds = (a, a + draw(st.integers(0, 4)))
        else:
            kinds.append(VarKind.CONTINUOUS)
            shape = draw(st.sampled_from(["box", "lower", "upper", "free"]))
            bounds = {"box": (a, a + 3), "lower": (a, math.inf), "upper": (-math.inf, a),
                      "free": (-math.inf, math.inf)}[shape]
            cost = {"box": cost, "lower": abs(cost), "upper": -abs(cost), "free": 0}[shape]
        c.append(float(cost))
        lo.append(float(bounds[0]))
        hi.append(float(bounds[1]))
        low = max(bounds[0], -3)
        point.append(draw(st.integers(low, min(bounds[1], low + 4))))
    integers = [j for j, kind in enumerate(kinds) if kind is VarKind.INTEGER]
    if integers and draw(st.booleans()):
        c[draw(st.sampled_from(integers))] += 0.5
    m = draw(st.integers(1, 4))
    A = np.array([draw(st.lists(COEFFICIENT, min_size=n, max_size=n)) for _ in range(m)], dtype=float)
    senses = [draw(st.sampled_from(["le", "le", "ge", "eq"])) for _ in range(m)]
    slack = {"le": 1.0, "ge": -1.0, "eq": 0.0}
    b = A @ np.array(point, dtype=float) + np.array([
        slack[sense] * draw(st.integers(0, 3)) + draw(st.sampled_from([0.0, 0.0, 0.0, 0.5, -4.0]))
        for sense in senses
    ])
    c = np.array(c)
    if draw(st.booleans()):
        return -c, A, senses, b, np.array(lo), np.array(hi), kinds, "max"
    return c, A, senses, b, np.array(lo), np.array(hi), kinds, "min"


@ORACLE
@seed(0)
@given(propagated_mips())
def test_propagated_mips_match_highs(problem):
    c, A, senses, b, lo, hi, kinds, direction = problem
    lp = _linear_program(c, A, senses, b, lo, hi, direction)
    mip = MipProblem(lp, tuple(kinds), tuple(f"x{i}" for i in range(len(kinds))))
    _assert_same_answer(solve_mip(mip), *_highs_mip(lp, kinds))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_held_out_tours_match_highs(seed):
    """Ten tours drawn as acceptance criterion 8 draws its own, from other
    seeds, each also with one arc forced: every search, which propagation
    and the integral objective cut to a fraction of its nodes, agrees with
    HiGHS."""
    for d, (i0, j0) in criterion_8_tours(seed):
        ids = tuple(range(1, len(d) + 1))
        mip = models.build_tour(spatial.DistanceMatrix(ids, ids, d))
        for variant in (mip, models.force_arc(mip, i0 + 1, j0 + 1)):
            status, objective = _highs_mip(variant.base, [VarKind.INTEGER] * variant.num_vars)
            _assert_same_answer(solve_mip(variant), status, objective)


def test_every_property_test_carries_a_seed():
    """Each `@given` test here has a `@seed(...)`, so its examples do not
    change when its source is reworded."""
    tree = ast.parse(pathlib.Path(__file__).read_text())
    tests = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

    def named(node, name):
        target = node.func if isinstance(node, ast.Call) else node
        return isinstance(target, ast.Name) and target.id == name

    properties = [t for t in tests if any(named(d, "given") for d in t.decorator_list)]
    assert len(properties) == 8
    unseeded = [t.name for t in properties
                if not any(named(d, "seed") for d in t.decorator_list)]
    assert unseeded == []
