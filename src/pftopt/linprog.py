"""Continuous LP representation and a bounded-variable simplex solver: a dual
simplex from every dual feasible start, and a two-phase primal from any other.

Problems are stated in the standard form

    min/max c.x
    s.t.    A_eq x  = b_eq
            A_ub x <= b_ub
            l <= x <= u

Working form: with m_eq equality rows, m_ub inequality rows (m in all) and
n variables, row i owns the logical column n + i, bounded to [0, 0] on an
equality row and [0, inf) on an inequality row. `LinearProgram` builds
[A_eq; A_ub | I] once; the LPs `with_bounds` makes share it.

Which simplex runs. A solve starts from `lp.basis`, m working-form columns
(a branch-and-bound child is given its parent's optimal basis), or from the
logical basis when that is None. Each nonbasic column is put at the bound
its reduced cost wants (the upper one if d_j < -1e-7, else the lower one),
so the start is dual feasible unless a cost points at an infinite bound.
The logical basis is so whenever every column can rest at the bound its
cost wants: costs >= 0 from finite lower bounds, or boxed columns, as in
every model the builders make. A child's start is so because only bounds
changed. From a dual feasible start the dual simplex runs; its point is
then handed to the primal's phase 2, which confirms it in one pricing or
repairs reduced costs that roundoff pushed past the tolerance. The primal's
two phases below run instead, from the logical basis, when the start basis
is singular or not dual feasible, and when the dual ends INFEASIBLE on a
row that does not prove it. The Farkas check takes y, that row of B^-1
signed so that y A x should lie above y b, and asks whether the least value
of y A x over the bounds exceeds y b by more than 1e-7 * max(1, |y b|),
coefficients within 1e-9 of the largest counting as zero. A proven
INFEASIBLE carries y (`LpOutcome.farkas`).

The dual simplex takes out the basic variable that breaks its bound by the
most, at that bound, and brings in the column whose reduced cost reaches
zero first as the row of B^-1 A moves it (Dantzig's leaving row and the
textbook ratio test, with no bound flipping). Its ties are decided as the
primal's: rows within 1e-12 * max(1, e) of the largest excess e, the first;
ratios within 1e-12 of the least, the largest |coefficient| within
1e-12 * max(1, a) of the largest a, the first; Bland's lowest indices after
3 (n + 2 m) pivots without progress. No basic variable breaking a bound by
more than 1e-7 is OPTIMAL; no column that can move the leaving one is
INFEASIBLE.

The primal starts every variable at its finite lower bound, else its finite
upper bound, else (free) at zero; every logical starts basic at its row's
residual r. Phase 1 minimises the violation of every equality row and each
inequality row with r < 0, whose logical gets the bounds [min(r, 0),
max(r, 0)] and the cost sign(r). A feasible point may need such a row
slack, so when phase 1 stops with the row met (its logical at zero) the row
is released (bounds [0, inf), cost 0) and phase 1 goes on. INFEASIBLE means
a row is still violated when none is left to release. Phase 2 restores the
logical bounds and minimises the true objective (negated for max).

Both loops return a status instead of raising: OPTIMAL, ITERATION_LIMIT
(max_iterations pivots in all), UNBOUNDED on an improving ray that no bound
blocks (primal only), or NUMERICAL on a singular basis. Phase 1 is bounded
below, so an unbounded ray there is reported as NUMERICAL. The tolerances
are fixed: feasibility and optimality 1e-7. A row is met within
1e-7 * max(1, |b_i|) + 1e3 eps sum_j |A_ij x_j|, and before OPTIMAL every
row must be met and every bound held within 1e-7 * max(1, max |b|), and the
objective value must be finite, else the status is NUMERICAL.
`LpOutcome.iterations` counts every pivot made, whatever the status; at
OPTIMAL `LpOutcome.basis` is the final basis.

A solve keeps one basis inverse through every loop and phase. It starts as
I for the logical basis, or is factorised from the start basis, and is
factorised afresh after every 50th pivot of the solve; every other pivot of
either loop updates it with one rank-1 (product-form) correction in one
shared step (`_pivot`), so a pivot costs matrix-vector products,
O(m * (m + n)), rather than dense solves, O(m^3).

Primal pricing reads each column's moves off x and its bounds: a nonbasic
column may rise while x < hi and fall while x > lo, and its violation is the
larger of -d_j (rising) and d_j (falling), for reduced costs
d = c - c_B B^-1 A. Columns whose violation exceeds 1e-7 are eligible; of
those within 1e-12 * max(1, v) of the largest violation v the one with the
lowest column index enters, or the lowest-index eligible column (Bland) once
more than 3 (n + 2 m) pivots in a row made no progress (improved c.x by at
most 1e-7). Ratio test: a basic variable blocks at the bound it heads to,
after its distance to that bound divided by |rate|; one with |rate| <=
1e-7 never blocks. A row leaves only if its step is shorter than
the entering variable's bound flip by more than 1e-12. Rows within 1e-12 of
the shortest step tie: of those within 1e-12 * max(1, s) of the largest
|rate| s the first leaves, or under Bland the one with the lowest column
index. These bands keep roundoff from choosing a pivot; the two on
violations and rates scale with the largest value, so they stay wider than
its rounding error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Status",
    "SolveLimits",
    "LinearProgram",
    "LpOutcome",
    "MalformedProblemError",
    "split_senses",
    "solve_lp",
]


class MalformedProblemError(ValueError):
    """Structurally invalid problem data (distinct from an infeasible model)."""


class Status(enum.IntEnum):
    OPTIMAL = 0
    ITERATION_LIMIT = 1
    INFEASIBLE = 2
    UNBOUNDED = 3
    NUMERICAL = 4


# A row or bound is met within _FEASIBILITY_TOL (scaled as the module
# docstring says); a column may enter when its reduced cost improves the
# objective by more than _OPTIMALITY_TOL per unit. Pivot candidates within
# _TIE of the best tie (_TIE * max(1, best) for violations and |rate|s, whose
# roundoff grows with their size), and an index rule, not roundoff, picks
# among them.
_FEASIBILITY_TOL = 1e-7
_OPTIMALITY_TOL = 1e-7
_TIE = 1e-12


@dataclass(frozen=True)
class SolveLimits:
    """Caps of a solve.

    max_iterations caps the simplex pivots of each LP solve (phase 1 and
    phase 2 together); in branch and bound every node LP gets the full cap.
    max_nodes caps the node LPs of one branch-and-bound search.
    """

    max_iterations: int = 20000
    max_nodes: int = 200000

    def __post_init__(self) -> None:
        if self.max_iterations <= 0 or self.max_nodes <= 0:
            raise MalformedProblemError("iteration/node limits must be positive")


def _frozen(values) -> np.ndarray:
    """A read-only float copy, so no caller can change a problem after its checks."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _checked_block(A, b, n: int, label: str) -> tuple:
    """(A, b) of one row family as read-only arrays, m x n and length m. A
    block with no entries, such as an empty row list, is the 0 x n block."""
    A = _frozen(np.zeros((0, n)) if A is None else A)
    if A.size == 0:
        A = A.reshape(0, n)
    b = _frozen(np.zeros(0) if b is None else b)
    if A.ndim != 2 or A.shape[1] != n or b.shape != (A.shape[0],):
        raise MalformedProblemError(f"{label} rows must be an m x {n} array with m rhs values")
    if not np.all(np.isfinite(A)):
        raise MalformedProblemError(f"{label} row has non-finite coefficients")
    if not np.all(np.isfinite(b)):
        raise MalformedProblemError("constraint rhs must be finite")
    return A, b


def _checked_bounds(lo, hi, n: int) -> tuple:
    lo, hi = _frozen(lo), _frozen(hi)
    if lo.shape != (n,) or hi.shape != (n,):
        raise MalformedProblemError("bounds length must equal variable count")
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise MalformedProblemError("bounds must not be NaN")
    if np.isposinf(lo).any() or np.isneginf(hi).any():
        raise MalformedProblemError("no value lies above a +inf lower or below a -inf upper bound")
    crossed = np.flatnonzero(lo > hi)
    if crossed.size:
        k = crossed[0]
        raise MalformedProblemError(f"lower bound {lo[k]} exceeds upper bound {hi[k]}")
    return lo, hi


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Continuous problem in standard form, held as read-only numpy arrays.

    c is the objective, A_eq x = b_eq and A_ub x <= b_ub the rows, and
    lo <= x <= hi the bounds, where -inf/+inf mark free sides. Absent rows
    are empty blocks and absent bounds default to [0, inf). Every array is
    copied and checked once, when the problem is made; `with_bounds` shares
    them. `working` is the simplex's working form [A_eq; A_ub | I], and the
    row blocks are views of it, so the rows are stored once. `basis` is the
    basis a solve starts from, None for the logical one; only `with_bounds`
    sets another. `eq_rows` and `ub_rows` give the rows back as
    (coefficients, rhs) tuples, computed when read; read the arrays instead.
    They remain only because the benchmark's tracer (bench/tracing.py)
    counts rows with them.
    """

    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    direction: str = "min"
    working: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        c = _frozen(self.c)
        if c.ndim != 1:
            raise MalformedProblemError("objective must be one-dimensional")
        if c.size == 0:
            raise MalformedProblemError("problem has no variables")
        if not np.all(np.isfinite(c)):
            raise MalformedProblemError("objective coefficients must be finite")
        n = c.size
        A_eq, b_eq = _checked_block(self.A_eq, self.b_eq, n, "equality")
        A_ub, b_ub = _checked_block(self.A_ub, self.b_ub, n, "inequality")
        lo, hi = _checked_bounds(
            np.zeros(n) if self.lo is None else self.lo,
            np.full(n, math.inf) if self.hi is None else self.hi,
            n,
        )
        if self.direction not in ("min", "max"):
            raise MalformedProblemError(f"unknown direction {self.direction!r}")
        m_eq, m = b_eq.size, b_eq.size + b_ub.size
        working = np.zeros((m, n + m))
        working[:m_eq, :n] = A_eq
        working[m_eq:, :n] = A_ub
        working[np.arange(m), n + np.arange(m)] = 1.0
        working.flags.writeable = False
        A_eq, A_ub = working[:m_eq, :n], working[m_eq:, :n]
        names = ("c", "A_eq", "b_eq", "A_ub", "b_ub", "lo", "hi", "working")
        for name, value in zip(names, (c, A_eq, b_eq, A_ub, b_ub, lo, hi, working)):
            object.__setattr__(self, name, value)

    def with_bounds(self, lo, hi, basis=None) -> "LinearProgram":
        """The same problem with new bounds, whose solve starts from `basis`:
        one working-form column per row, such as `LpOutcome.basis` of a
        solve of this problem, or None for the logical basis. Objective and
        rows are shared, not copied; only the new bounds are checked."""
        lp = object.__new__(type(self))
        lp.__dict__.update(self.__dict__)
        lo, hi = _checked_bounds(lo, hi, self.num_vars)
        if basis is not None:
            basis = np.asarray(basis)
            m, n_total = self.working.shape
            if (basis.shape != (m,) or (m and basis.dtype.kind not in "iu")
                    or basis.min(initial=0) < 0 or basis.max(initial=0) >= n_total):
                raise MalformedProblemError(f"a basis holds {m} working-form column indices")
        object.__setattr__(lp, "lo", lo)
        object.__setattr__(lp, "hi", hi)
        object.__setattr__(lp, "basis", basis)
        return lp

    @property
    def num_vars(self) -> int:
        return self.c.size

    # Kept only for bench/tracing.py, which counts rows as
    # len(lp.eq_rows) + len(lp.ub_rows); they go once it counts the arrays.
    @property
    def eq_rows(self) -> tuple:
        return tuple(zip(map(tuple, self.A_eq.tolist()), self.b_eq.tolist()))

    @property
    def ub_rows(self) -> tuple:
        return tuple(zip(map(tuple, self.A_ub.tolist()), self.b_ub.tolist()))


@dataclass(frozen=True)
class LpOutcome:
    """What a solve found. At OPTIMAL, `basis` is the final basis: one
    working-form column per row, to start a solve of the same rows under
    other bounds from (`LinearProgram.with_bounds`). At an INFEASIBLE the
    dual simplex proved, `farkas` is its proof: y over the rows (A_eq's,
    then A_ub's) such that y (A x + s) > y b for every x within its bounds
    and logical s within its own ([0, 0] on an equality row, [0, inf) on an
    inequality row)."""

    status: Status
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0  # simplex pivots made, whatever the status
    basis: np.ndarray | None = None
    farkas: np.ndarray | None = None


_SENSE_FLIP = {"le": 1.0, "ge": -1.0}


def split_senses(A, senses, b) -> tuple:
    """Split the rows A x (sense) b into (A_eq, b_eq, A_ub, b_ub).

    ">=" rows are negated into "<=" form; row order within each block follows
    input order.
    """
    senses = list(senses)
    for sense in senses:
        if sense != "eq" and sense not in _SENSE_FLIP:
            raise MalformedProblemError(f"unknown constraint sense {sense!r}")
    eq = np.array([sense == "eq" for sense in senses], dtype=bool)
    flip = np.array([_SENSE_FLIP.get(sense, 1.0) for sense in senses])[~eq]
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    return A[eq], b[eq], flip[:, None] * A[~eq], flip * b[~eq]


# Pivots of a solve between refactorisations of its basis inverse: each
# rank-1 update adds roundoff, and a fresh inverse costs about m updates.
_REFACTOR_EVERY = 50
# A Farkas row's coefficient counts as zero within this share of its largest.
_FARKAS_ZERO = 1e-9


def _violations(d, x, lo, hi, basis) -> np.ndarray:
    """How much each nonbasic column's move improves c.x per unit: -d_j if it
    may rise (x < hi), d_j if it may fall (x > lo), the larger if both, and
    -inf for basic columns and fixed ones."""
    viol = np.maximum(np.where(x < hi, -d, -math.inf), np.where(x > lo, d, -math.inf))
    viol[basis] = -math.inf
    return viol


def _pivot(A, basis, x, Binv, q, w, move, r, x_out, iteration) -> bool:
    """The step both simplex loops take. Column q moves by `move` and x_B by
    -move * w, where w = Binv A_q. With r >= 0 the basic variable of row r
    leaves at its bound x_out, q takes its row, and Binv gets the
    product-form update (row r divided by w[r], a rank-1 correction of the
    others); with r < 0, q ran to its other bound x_out (a bound flip) and
    the basis stays. `iteration` counts this pivot: after every
    _REFACTOR_EVERY-th pivot of the solve Binv is factorised afresh. Returns
    False if B is singular then."""
    x[q] += move
    x[basis] -= move * w
    if r < 0:
        x[q] = x_out
    else:
        x[basis[r]] = x_out
        basis[r] = q
        row = Binv[r] / w[r]
        Binv -= np.outer(w, row)
        Binv[r] = row
    if iteration % _REFACTOR_EVERY:
        return True
    np.take(A, basis, axis=1, out=Binv)  # B in Binv's buffer: no extra m x m copy
    try:
        Binv[...] = np.linalg.inv(Binv)
    except np.linalg.LinAlgError:
        return False
    return True


def _run_simplex(A, c, lo, hi, basis, x, Binv, limits, iteration):
    """Minimize c.x over Ax = b, lo <= x <= hi from the basic solution x.

    `basis` holds one column index per row. Every nonbasic x equals one of
    its bounds exactly, or zero when the column is free, so x and the bounds
    alone say which way a nonbasic column may move: up while x < hi, down
    while x > lo. A column may enter if its reduced cost d_j improves a move
    it has: by -d_j upwards, by d_j downwards. That one rule covers columns
    at a lower or an upper bound, free columns (both ways) and fixed ones
    (neither). Mutates basis, x and Binv in place. Returns (status,
    iterations), where iterations goes on from `iteration` and counts every
    pivot made: OPTIMAL, ITERATION_LIMIT, UNBOUNDED on an unblocked improving
    ray, or NUMERICAL on a singular basis.

    Binv is the inverse of A[:, basis], carried from one call of a solve to
    the next, and each pivot updates it (`_pivot`), so a pivot costs
    matrix-vector products only: the duals y = c_B Binv and the entering
    column w = Binv A_j. A pivot whose step times the entering violation
    improves c.x by at most _OPTIMALITY_TOL makes no progress.
    """
    m, n_total = A.shape
    stall_after = 3 * (n_total + m)  # 3 (n + 2 m) for n variables and m rows
    stall = -1  # the first pivot never counts as a stall
    while iteration < limits.max_iterations:
        d = c - (c[basis] @ Binv) @ A
        viol = _violations(d, x, lo, hi, basis)
        eligible = np.flatnonzero(viol > _OPTIMALITY_TOL)
        if eligible.size == 0:
            return Status.OPTIMAL, iteration
        bland = stall > stall_after
        best = viol[eligible].max()
        near = viol[eligible] >= best - _TIE * max(1.0, best)
        j_in = int(eligible[0] if bland else eligible[np.argmax(near)])
        sigma = 1.0 if d[j_in] < 0 else -1.0

        w = Binv @ A[:, j_in]
        # x_B moves at rate -sigma*w as the entering variable moves by t >= 0.
        # Each basic variable blocks at the bound it heads to; one that barely
        # moves (|rate| <= _FEASIBILITY_TOL) never blocks.
        rate = -sigma * w
        speed = np.abs(rate)
        x_b = x[basis]
        room = np.where(rate > 0, hi[basis] - x_b, x_b - lo[basis])
        step = np.divide(room, speed, out=np.full(m, math.inf), where=speed > _FEASIBILITY_TOL)
        np.maximum(step, 0.0, out=step)
        t = hi[j_in] - lo[j_in]  # bound flip distance (inf if one side open)
        t_min = step.min(initial=math.inf)
        leave_pos, x_out = -1, hi[j_in] if sigma > 0 else lo[j_in]
        if t_min < t - _TIE:
            ties = np.flatnonzero(step - t_min <= _TIE)
            fastest = speed[ties].max()
            near = speed[ties] >= fastest - _TIE * max(1.0, fastest)
            leave_pos = ties[np.argmin(basis[ties]) if bland else np.argmax(near)]
            t = step[leave_pos]
            j_out = basis[leave_pos]
            x_out = hi[j_out] if rate[leave_pos] > 0 else lo[j_out]
        if not math.isfinite(t):
            return Status.UNBOUNDED, iteration
        stall = stall + 1 if float(t) * float(viol[j_in]) <= _OPTIMALITY_TOL else 0
        iteration += 1
        if not _pivot(A, basis, x, Binv, j_in, w, sigma * t, leave_pos, x_out, iteration):
            return Status.NUMERICAL, iteration
    return Status.ITERATION_LIMIT, iteration


def _run_dual(A, c, lo, hi, basis, x, Binv, limits, iteration):
    """Minimize c.x over Ax = b, lo <= x <= hi from a dual feasible basic
    solution x: no nonbasic column's move improves c.x (`_violations`), so
    only basic variables may break their bounds.

    Each pivot takes out the basic variable x_p that breaks its bound by the
    most (of those within _TIE * max(1, e) of the largest excess e, the
    first row; under Bland, the lowest column index) and sets it to that
    bound. Row r of B^-1 A x = B^-1 b says which nonbasic columns can move
    x_p back: one that may rise, or fall, with a coefficient of the right
    sign beyond _FEASIBILITY_TOL. Of those, the one that first brings a
    reduced cost to zero, d_j / g_j for the row's signed coefficient g_j,
    enters, so every reduced cost keeps its sign; ratios within _TIE of the
    least tie and the largest |g_j| wins, as in the primal ratio test (under
    Bland, the lowest column index). A pivot whose ratio times the excess
    raises the dual objective by at most _OPTIMALITY_TOL makes no progress.

    Returns (status, iterations, y): OPTIMAL once no basic variable breaks a
    bound by more than _FEASIBILITY_TOL; INFEASIBLE when no column can move
    x_p, with y = row r of Binv, signed so that y A x over the bounds should
    lie above y b (`_farkas_holds` checks it); ITERATION_LIMIT; or NUMERICAL
    on a singular refactorisation. y is None but for INFEASIBLE.
    """
    m, n_total = A.shape
    stall_after = 3 * (n_total + m)
    stall = -1
    # Which way each nonbasic column may move; a basic column neither.
    rise, fall = x < hi, x > lo
    rise[basis] = fall[basis] = False
    while iteration < limits.max_iterations:
        x_b = x[basis]
        excess = np.maximum(lo[basis] - x_b, x_b - hi[basis])
        worst = excess.max(initial=0.0)
        if worst <= _FEASIBILITY_TOL:
            return Status.OPTIMAL, iteration, None
        bland = stall > stall_after
        if bland:
            r = int(np.where(excess > _FEASIBILITY_TOL, basis, n_total).argmin())
        else:
            r = int((excess >= worst - _TIE * max(1.0, worst)).argmax())
        p = basis[r]
        above = x[p] > hi[p]
        # x_p moves by -alpha_rj per unit rise of x_j, so g_j > 0 where a
        # rise of x_j, and g_j < 0 where a fall, moves x_p back to its bound.
        y = Binv[r] if above else -Binv[r]
        g = y @ A
        can = (g > _FEASIBILITY_TOL) & rise
        can |= (g < -_FEASIBILITY_TOL) & fall
        cand = can.nonzero()[0]
        if cand.size == 0:
            return Status.INFEASIBLE, iteration, -y
        d = c - (c[basis] @ Binv) @ A
        ratio = d[cand] / g[cand]
        np.maximum(ratio, 0.0, out=ratio)
        least = ratio.min()
        ties = cand[ratio - least <= _TIE]
        q = ties[0]
        if ties.size > 1 and not bland:
            size = np.abs(g[ties])
            fastest = size.max()
            q = ties[(size >= fastest - _TIE * max(1.0, fastest)).argmax()]
        w = Binv @ A[:, q]
        bound = hi[p] if above else lo[p]
        stall = stall + 1 if float(least) * float(excess[r]) <= _OPTIMALITY_TOL else 0
        iteration += 1
        if not _pivot(A, basis, x, Binv, q, w, (x[p] - bound) / w[r], r, bound, iteration):
            return Status.NUMERICAL, iteration, None
        rise[q] = fall[q] = False
        rise[p], fall[p] = bound < hi[p], bound > lo[p]
    return Status.ITERATION_LIMIT, iteration, None


def _farkas_holds(A, b, lo, hi, y) -> bool:
    """Whether y proves A x = b, lo <= x <= hi infeasible: the least value
    of y A x over the bounds exceeds y b by more than _FEASIBILITY_TOL *
    max(1, |y b|). Coefficients of y A within _FARKAS_ZERO of the largest
    count as zero, so roundoff on a column with an infinite bound does not
    make the least value -inf."""
    g = y @ A
    g[np.abs(g) <= _FARKAS_ZERO * np.abs(g).max(initial=0.0)] = 0.0
    least = float(g @ np.where(g > 0, lo, np.where(g < 0, hi, 0.0)))
    rhs = float(y @ b)
    return least - rhs > _FEASIBILITY_TOL * max(1.0, abs(rhs))


def _row_tol(A, b, x) -> np.ndarray:
    """_FEASIBILITY_TOL * max(1, |b_i|) per row, plus 1e3 eps * sum_j |A_ij x_j|
    for A_i x's roundoff."""
    roundoff = 1e3 * np.finfo(float).eps * (np.abs(A) @ np.abs(x))
    return _FEASIBILITY_TOL * np.maximum(1.0, np.abs(b)) + roundoff


def _primal_feasible(A, b, lo, hi, x, scale: float) -> bool:
    """Whether x solves the working form A x = b, lo <= x <= hi: no row off
    by more than its `_row_tol`, and no bound violated by more than
    _FEASIBILITY_TOL * scale. The simplex moves x step by step, so a drifted
    basis inverse shows here before a wrong point is called optimal."""
    if (np.abs(A @ x - b) > _row_tol(A, b, x)).any():
        return False
    return bool(np.maximum(lo - x, x - hi).max(initial=0.0) <= _FEASIBILITY_TOL * scale)


def _resting_point(lo, hi) -> np.ndarray:
    """Each column at its finite lower bound, else its finite upper bound,
    else (free) at zero. Logicals have the lower bound 0."""
    return np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))


def _dual_start(A, b, c, lo, hi, basis):
    """(basis, x, Binv) of a dual feasible start from `basis`, or None.

    basis None is the logical basis, whose inverse is I; any other is
    factorised afresh. Each nonbasic column sits at the bound its reduced
    cost d_j wants: the upper one if d_j < -_OPTIMALITY_TOL, else the lower
    one; where that bound is infinite, at its other bound, or 0 if free. The
    start is dual feasible when no column's move then improves c.x by more
    than _OPTIMALITY_TOL. None for a singular basis or one not dual feasible.
    """
    m, n_total = A.shape
    if basis is None:
        basis, Binv = n_total - m + np.arange(m), np.eye(m)
    else:
        basis = np.array(basis)
        try:
            Binv = np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError:
            return None
    d = c - (c[basis] @ Binv) @ A
    x = np.where((d < -_OPTIMALITY_TOL) & np.isfinite(hi), hi, _resting_point(lo, hi))
    if (_violations(d, x, lo, hi, basis) > _OPTIMALITY_TOL).any():
        return None
    x[basis] = 0.0
    x[basis] = Binv @ (b - A @ x)
    return basis, x, Binv


def _primal_phase_1(A, b, lo, hi, m_eq, limits, iters):
    """(status, iterations, basis, x, Binv) of the primal's phase 1 from the
    logical basis (see the module docstring); OPTIMAL means x is feasible.
    `iters` pivots were made before it."""
    m, n_total = A.shape
    n = n_total - m
    x = _resting_point(lo, hi)
    x[n:] = b - A @ x
    basis = n + np.arange(m)
    Binv = np.eye(m)  # the logicals' block of A is I

    # Phase 1 over the logicals p1 of the violated rows.
    p1 = n + np.flatnonzero((np.arange(m) < m_eq) | (x[n:] < 0))
    lo1, hi1, c1 = lo.copy(), hi.copy(), np.zeros(n + m)
    lo1[p1], hi1[p1], c1[p1] = np.minimum(x[p1], 0.0), np.maximum(x[p1], 0.0), np.sign(x[p1])
    while p1.size:
        status, iters = _run_simplex(A, c1, lo1, hi1, basis, x, Binv, limits, iters)
        if status is Status.UNBOUNDED:
            status = Status.NUMERICAL
        if status is not Status.OPTIMAL:
            return status, iters, basis, x, Binv
        ub = p1 >= n + m_eq
        violation = np.where(ub, -x[p1], np.abs(x[p1]))
        off = violation > _row_tol(A[p1 - n], b[p1 - n], x)
        if not off.any():
            break
        release = p1[ub & ~off]
        if release.size == 0:
            return Status.INFEASIBLE, iters, basis, x, Binv
        lo1[release], hi1[release], c1[release] = 0.0, math.inf, 0.0
        p1 = p1[~ub | off]
    x[p1] = 0.0  # rows phase 1 left within tolerance, made exact for phase 2
    return Status.OPTIMAL, iters, basis, x, Binv


def solve_lp(lp: LinearProgram, limits: SolveLimits | None = None) -> LpOutcome:
    """Solve an LP, returning a status-coded outcome (never raising on
    infeasibility or unboundedness).

    The solve starts from `lp.basis` (the logical basis if None). If that
    start is dual feasible the dual simplex runs, else the primal's two
    phases from the logical basis; an INFEASIBLE from the dual that its
    Farkas row does not prove is solved again by the primal.

    When the optimum is not unique, one optimal basic solution is returned;
    which of the tied vertices that is stays unspecified.
    """
    limits = limits or SolveLimits()
    A, n, m_eq = lp.working, lp.num_vars, lp.b_eq.size
    m = A.shape[0]
    b = np.concatenate([lp.b_eq, lp.b_ub])
    lo = np.concatenate([lp.lo, np.zeros(m)])
    hi = np.concatenate([lp.hi, np.where(np.arange(m) < m_eq, 0.0, math.inf)])
    c = np.concatenate([-lp.c if lp.direction == "max" else lp.c, np.zeros(m)])

    start = _dual_start(A, b, c, lo, hi, lp.basis)
    iters = 0
    if start is not None:
        basis, x, Binv = start
        status, iters, y = _run_dual(A, c, lo, hi, basis, x, Binv, limits, 0)
        if status is Status.INFEASIBLE and _farkas_holds(A, b, lo, hi, y):
            return LpOutcome(status=status, iterations=iters, farkas=y)
    if start is None or status is Status.INFEASIBLE:  # unproven: the primal decides
        status, iters, basis, x, Binv = _primal_phase_1(A, b, lo, hi, m_eq, limits, iters)
    if status is Status.OPTIMAL:
        status, iters = _run_simplex(A, c, lo, hi, basis, x, Binv, limits, iters)
    scale = float(np.abs(b).max(initial=1.0))
    if status is Status.OPTIMAL and not _primal_feasible(A, b, lo, hi, x, scale):
        status = Status.NUMERICAL
    if status is not Status.OPTIMAL:
        return LpOutcome(status=status, iterations=iters)
    x = x[:n].copy()
    with np.errstate(over="ignore"):
        value = float(lp.c @ x)
    if not math.isfinite(value):  # finite c and x, but c.x overflowed
        return LpOutcome(status=Status.NUMERICAL, iterations=iters)
    return LpOutcome(status=status, x=x, objective_value=value, iterations=iters, basis=basis)
