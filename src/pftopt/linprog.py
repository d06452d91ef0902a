"""Continuous LP representation and a bounded-variable simplex solver: a dual
simplex reaches a feasible point, and the primal's phase 2 finishes it.

Problems are stated in the standard form

    min/max c.x
    s.t.    A_eq x  = b_eq
            A_ub x <= b_ub
            l <= x <= u

Working form: with m_eq equality rows, m_ub inequality rows (m in all) and
n variables, row i owns the logical column n + i, bounded to [0, 0] on an
equality row and [0, inf) on an inequality row. `LinearProgram` builds
[A_eq; A_ub | I] once; the LPs `with_bounds` makes share it.

Which simplex runs. Every solve takes one route. It starts from
`lp.basis`, m working-form columns (a branch-and-bound child is given its
parent's optimal basis), or from the logical basis when that is None. Each
nonbasic column is put at the bound its reduced cost wants (the upper one
if d_j < -1e-7, else the lower one; if that one is infinite, the other, or
0 if free). A column whose move there still improves c.x by more than 1e-7
(a free column, or a cost that points at an infinite bound) has its cost
shifted by -d_j, so that its reduced cost is 0, and the start is dual
feasible (the cost-modification dual phase 1 of Koberstein and Suhl 2007,
Comput. Optim. Appl. 37). A child's start needs no shift, because only
bounds changed; the logical start needs none when every cost points at a
finite bound, as in most models the builders make (a max-flow source arc
with no capacity needs one). The dual simplex, on the shifted costs, meets
every row and bound; the primal's phase 2 then prices that point on the
true costs (negated for max) and pivots on where a shift or roundoff left
a reduced cost past the tolerance, so UNBOUNDED is found there. A dual
INFEASIBLE must pass a Farkas check: y, the leaving row of B^-1 signed so
that y A x should lie above y b, proves it if the least value of y A x over
the bounds exceeds y b by more than 1e-7 * max(1, |y b|), coefficients
within 1e-9 of the largest counting as zero. y does not depend on c, so
the shift cannot fake a proof. A proven INFEASIBLE carries y
(`LpOutcome.farkas`). A singular start basis, an unproven INFEASIBLE, and a
restricted solve (below) that cannot finish are solved once more, from the
logical basis on every row; unproven there too, the status is NUMERICAL.

Rows held back. A dual start holds back the inequality rows whose logical
is basic in its basis (from the logical basis: every inequality row its
start point meets) when they number at least four times the other rows, as
a p-median LP's n^2 linking rows Y_ij <= X_j do; otherwise it holds none.
The dual simplex then runs on the other rows, gathered from the working
form, with each held row's logical fixed at 0; their B^-1 is I from the
logical basis, else factorised. At each optimum of those rows, every held
row that the point breaks by more than its row tolerance (below) is
appended, its logical basic at the negative slack, and B^-1 grows
blockwise to [[B^-1, 0], [-A_K,B B^-1, I]] for the appended rows K. Their
duals are 0, so every reduced cost keeps its value and the dual simplex
goes on from there, with no refactorisation and no pricing. Once no held
row breaks, phase 2 confirms the point, once; if it pivots onto a point
that breaks a held row, the LP is solved again as above. The basis returned
is the restricted basis plus the held rows' logicals, basic at their slack,
so it starts a solve of the whole LP as any other basis does, and a proven
INFEASIBLE's Farkas row is 0 on the rows still held. An unbounded ray of
the restricted rows is solved again as above too, and the final check
below covers every row.

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

Both loops return a status instead of raising: OPTIMAL, ITERATION_LIMIT
(max_iterations pivots in all, a solve made again included), UNBOUNDED on
an improving ray that no bound blocks (phase 2 only), or NUMERICAL on a
singular basis. The tolerances are fixed: feasibility and optimality 1e-7.
A row is met within 1e-7 * max(1, |b_i|) + 1e3 eps sum_j |A_ij x_j|, and
before OPTIMAL every row must be met and every bound held within
1e-7 * max(1, max |b|), and the objective value must be finite, else the
status is NUMERICAL.
`LpOutcome.iterations` counts every pivot made, whatever the status; at
OPTIMAL `LpOutcome.basis` is the final basis.

A solve keeps one basis inverse through every loop and phase. It starts as
I for the logical basis, or is factorised from the start basis, grows
blockwise as held rows are appended, and is factorised afresh after every
50th pivot of the solve; every other pivot of either loop updates it with
one rank-1 (product-form) correction in one shared step (`_pivot`), so a
pivot costs matrix-vector products, O(m * (m + n)), rather than dense
solves, O(m^3).

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

    max_iterations caps the simplex pivots of each LP solve (the dual
    simplex, phase 2 and a solve made again from the logical basis
    together); in branch and bound every node LP gets the full cap.
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
# Inequality rows are held back only when they outnumber the other rows by
# this factor: a p-median LP's linking rows do (about 14 to 1), a lifted-MTZ
# tour's rows do not (at most 2.1 to 1), and holding rows there slowed its
# root LPs.
_HOLD_RATIO = 4


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


def _wanted_point(d, lo, hi) -> np.ndarray:
    """Each column at the bound its reduced cost d_j wants: the upper one if
    d_j < -_OPTIMALITY_TOL, else the lower one; where that bound is
    infinite, at its other bound, or 0 if free."""
    lower = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
    return np.where((d < -_OPTIMALITY_TOL) & np.isfinite(hi), hi, lower)


def _dual_start(A, b, c, lo, hi, basis, Binv):
    """(basis, x, Binv, c_dual) of a dual feasible start from `basis`, or
    None for a singular basis.

    Binv is the basis's inverse, I for a logical basis, or None to factorise
    it afresh. Each nonbasic column sits at the bound its reduced cost wants
    (`_wanted_point`). A column whose move still improves c.x by more than
    _OPTIMALITY_TOL there (a free column, or a cost that points at an
    infinite bound) has its cost shifted by -d_j in c_dual, so that its
    reduced cost is 0.
    """
    if Binv is None:
        try:
            Binv = np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError:
            return None
    d = c - (c[basis] @ Binv) @ A
    x = _wanted_point(d, lo, hi)
    shift = _violations(d, x, lo, hi, basis) > _OPTIMALITY_TOL
    c_dual = np.where(shift, c - d, c)
    x[basis] = 0.0
    x[basis] = Binv @ (b - A @ x)
    return basis, x, Binv, c_dual


def _held_rows(A, b, c, lo, hi, basis, m_eq) -> np.ndarray | None:
    """The inequality rows a solve from `basis` (None for the logical one)
    holds back: those whose logical is basic in it, less, from the logical
    basis, every row that basis's start point breaks. None unless there are
    some, and at least _HOLD_RATIO times as many as the other rows. (A basis
    that repeats a logical repeats its row here; such a basis is singular,
    and the LP is solved again from the logical basis on every row.)"""
    m, n_total = A.shape
    n = n_total - m
    if m - m_eq < _HOLD_RATIO * m_eq:
        return None  # too few inequality rows, were every one held
    if basis is None:  # the logical basis, at which the reduced costs are c
        x = _wanted_point(c[:n], lo[:n], hi[:n])
        held = m_eq + np.flatnonzero(A[m_eq:, :n] @ x <= b[m_eq:])
    else:
        held = basis[basis >= n + m_eq] - n
    if not held.size or held.size < _HOLD_RATIO * (m - held.size):
        return None
    return held


def _broken_rows(A, b, x, held) -> np.ndarray:
    """The rows of the mask `held` whose A_i x exceeds b_i by more than
    their `_row_tol`."""
    excess = A @ x - b
    rows = np.flatnonzero(held & (excess > _FEASIBILITY_TOL))  # no _row_tol is smaller
    if not rows.size:
        return rows
    return rows[excess[rows] > _row_tol(A[rows], b[rows], x)]


def _solve_dual(A, b, c, lo, hi, basis, limits, iteration):
    """(status, iterations, basis, x, y) of the dual simplex from `basis`
    (None for the logical one) on the costs `_dual_start` shifts, and of
    phase 2 from its point on the true costs c. Iterations go on from
    `iteration`. y is the Farkas row at INFEASIBLE. The status is None when
    the start basis is singular."""
    m, n_total = A.shape
    if basis is None:
        basis, Binv = n_total - m + np.arange(m), np.eye(m)
    else:
        basis, Binv = np.array(basis), None
    start = _dual_start(A, b, c, lo, hi, basis, Binv)
    if start is None:
        return None, iteration, None, None, None
    basis, x, Binv, c_dual = start
    status, iters, y = _run_dual(A, c_dual, lo, hi, basis, x, Binv, limits, iteration)
    if status is Status.OPTIMAL:
        status, iters = _run_simplex(A, c, lo, hi, basis, x, Binv, limits, iters)
    return status, iters, basis, x, y


def _solve_restricted(A, b, c, lo, hi, basis, held, limits):
    """`_solve_dual` from `basis` (None for the logical one) with the rows
    `held` held back, as the module docstring says: basis, x and y are of
    the whole working form. The status is None also when the restricted LP
    has an unbounded ray, or phase 2 moved its point off a held row."""
    m, n_total = A.shape
    n = n_total - m
    fixed = np.zeros(n_total, dtype=bool)  # the held rows' logicals, which rest at 0
    fixed[n + held] = True
    active = np.flatnonzero(~fixed[n:])
    hi = np.where(fixed, 0.0, hi)
    if basis is None:
        basis, Binv = n + active, np.eye(active.size)
    else:
        basis, Binv = basis[~fixed[basis]], None
    rows_r = np.empty((m, n_total))  # the restricted rows, held ones appended as they break
    rows_r[:active.size] = A[active]
    start = _dual_start(rows_r[:active.size], b[active], c, lo, hi, basis, Binv)
    if start is None:
        return None, 0, None, None, None
    basis, x, Binv, c_dual = start
    iters, rows = 0, _broken_rows(A, b, x, fixed[n:])
    while True:
        size, k = basis.size, rows.size
        if k:  # each added row's logical enters the basis at its negative slack
            new = rows_r[size:size + k]
            np.take(A, rows, axis=0, out=new)
            grown = np.eye(size + k)  # [[B^-1, 0], [-A_K,B B^-1, I]]
            grown[:size, :size] = Binv
            grown[size:, :size] = -(new[:, basis] @ Binv)
            Binv, logicals = grown, n + rows
            basis = np.concatenate([basis, logicals])
            active = np.concatenate([active, rows])
            fixed[logicals], hi[logicals] = False, math.inf
            x[logicals] = b[rows] - new @ x
        A_r = rows_r[:size + k]
        status, iters, y = _run_dual(A_r, c_dual, lo, hi, basis, x, Binv, limits, iters)
        if status is not Status.OPTIMAL:
            break
        rows = _broken_rows(A, b, x, fixed[n:])
        if not rows.size:
            break
    if status is Status.OPTIMAL:
        dual_iters = iters
        status, iters = _run_simplex(A_r, c, lo, hi, basis, x, Binv, limits, iters)
        moved = status is Status.OPTIMAL and iters > dual_iters
        if status is Status.UNBOUNDED or moved and _broken_rows(A, b, x, fixed[n:]).size:
            return None, iters, None, None, None
    held = np.flatnonzero(fixed[n:])
    if status is Status.INFEASIBLE:  # y is 0 on the rows still held
        padded = np.zeros(m)
        padded[active] = y
        y = padded
    x[n + held] = np.maximum(b[held] - A[held] @ x, 0.0)  # held logicals basic at their slack
    return status, iters, np.concatenate([basis, n + held]), x, y


def solve_lp(lp: LinearProgram, limits: SolveLimits | None = None) -> LpOutcome:
    """Solve an LP, returning a status-coded outcome (never raising on
    infeasibility or unboundedness).

    The solve starts from `lp.basis` (the logical basis if None). The dual
    simplex, on costs shifted where the start is not dual feasible and on
    the rows that bind when it holds rows back, reaches a feasible point,
    and the primal's phase 2 finishes it on the true costs. A singular
    start, an INFEASIBLE its Farkas row does not prove, or a restricted
    solve that cannot finish is solved once more from the logical basis on
    every row; unproven there too, it is NUMERICAL.

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

    iters, start, held = 0, lp.basis, _held_rows(A, b, c, lo, hi, lp.basis, m_eq)
    while True:
        if held is None:
            status, iters, basis, x, y = _solve_dual(A, b, c, lo, hi, start, limits, iters)
        else:
            status, iters, basis, x, y = _solve_restricted(A, b, c, lo, hi, start, held, limits)
        if status is Status.INFEASIBLE:
            if _farkas_holds(A, b, lo, hi, y):
                return LpOutcome(status=status, iterations=iters, farkas=y)
            status = None  # unproven
        if status is not None or (start is None and held is None):
            break
        start = held = None  # once more, from the logical basis on every row
    if status is None:
        status = Status.NUMERICAL
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
