"""Continuous LP representation and a bounded-variable primal simplex solver.

Problems are stated in the standard form

    min/max c.x
    s.t.    A_eq x  = b_eq
            A_ub x <= b_ub
            l <= x <= u

Working form: with m_eq equality rows, m_ub inequality rows (m in all) and
n variables, row i owns the logical column n + i, bounded to [0, 0] on an
equality row and [0, inf) on an inequality row. `LinearProgram` builds
[A_eq; A_ub | I] once; the LPs `with_bounds` makes share it. Every variable
starts at its finite lower bound, else its finite upper bound, else (free)
at zero; every logical starts basic at its row's residual r.

Phase 1 minimises the violation of every equality row and each inequality
row with r < 0, whose logical gets the bounds [min(r, 0), max(r, 0)] and
the cost sign(r). A feasible point may need such a row slack, so when phase
1 stops with the row met (its logical at zero) the row is released (bounds
[0, inf), cost 0) and phase 1 goes on. INFEASIBLE means a row is still
violated when none is left to release. Phase 2 restores the logical bounds
and minimises the true objective (negated for max).

One revised primal simplex loop runs each phase-1 round and phase 2 and
returns a status instead of raising: OPTIMAL, ITERATION_LIMIT (max_iterations
pivots in all), UNBOUNDED on an improving ray that no bound blocks, or
NUMERICAL on a singular basis. Phase 1 is bounded below, so an unbounded ray
there is reported as NUMERICAL. The tolerances are fixed: feasibility and
optimality 1e-7. A row is met within 1e-7 * max(1, |b_i|) + 1e3 eps
sum_j |A_ij x_j|, and before OPTIMAL every row must be met and every bound
held within 1e-7 * max(1, max |b|), else the status is NUMERICAL.
`LpOutcome.iterations` counts every pivot made, whatever the status.

A solve keeps one basis inverse through every phase. It starts as I, the
inverse of the logicals' block, and is factorised afresh after every 50th
pivot of the solve; every other pivot updates it with one rank-1
(product-form) correction, so a pivot costs matrix-vector products,
O(m * (m + n)), rather than dense solves, O(m^3).

Pricing reads each column's moves off x and its bounds: a nonbasic column
may rise while x < hi and fall while x > lo, and its violation is the larger
of -d_j (rising) and d_j (falling), for reduced costs d = c - c_B B^-1 A.
Columns whose violation exceeds 1e-7 are eligible; of those within
1e-12 * max(1, v) of the largest violation v the one with the lowest column
index enters, or the lowest-index eligible column (Bland) once more than
3 (n + 2 m) pivots in a row made no progress.
Ratio test: a basic variable blocks at the bound it heads to, after
its distance to that bound divided by |rate|; one with |rate| <=
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
    row blocks are views of it, so the rows are stored once. `eq_rows` and
    `ub_rows` give the rows back as (coefficients, rhs) tuples, computed
    when read, for the benchmark's tracer (bench/tracing.py).
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

    def with_bounds(self, lo, hi) -> "LinearProgram":
        """The same problem with new bounds. Objective and rows are shared,
        not copied; only the new bounds are checked."""
        lp = object.__new__(type(self))
        lp.__dict__.update(self.__dict__)
        lo, hi = _checked_bounds(lo, hi, self.num_vars)
        object.__setattr__(lp, "lo", lo)
        object.__setattr__(lp, "hi", hi)
        return lp

    @property
    def num_vars(self) -> int:
        return self.c.size

    # bench/tracing.py counts rows as len(lp.eq_rows) + len(lp.ub_rows).
    @property
    def eq_rows(self) -> tuple:
        return tuple(zip(map(tuple, self.A_eq.tolist()), self.b_eq.tolist()))

    @property
    def ub_rows(self) -> tuple:
        return tuple(zip(map(tuple, self.A_ub.tolist()), self.b_ub.tolist()))


@dataclass(frozen=True)
class LpOutcome:
    status: Status
    x: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = 0  # simplex pivots made, whatever the status


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
    the next. A pivot on row r updates it in product form (row r of Binv
    divided by w[r], and a rank-1 correction of the other rows), so a pivot
    costs matrix-vector products only: the duals y = c_B Binv and the
    entering column w = Binv A_j. After every _REFACTOR_EVERY-th pivot of
    the solve, `iteration` a multiple of it, Binv is factorised afresh.
    """
    m, n_total = A.shape
    stall_after = 3 * (n_total + m)  # 3 (n + 2 m) for n variables and m rows
    stall = 0
    last_obj = math.inf
    while iteration < limits.max_iterations:
        d = c - (c[basis] @ Binv) @ A
        viol = np.maximum(np.where(x < hi, -d, -math.inf), np.where(x > lo, d, -math.inf))
        viol[basis] = -math.inf
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
        leave_pos = -1
        if t_min < t - _TIE:
            ties = np.flatnonzero(step - t_min <= _TIE)
            fastest = speed[ties].max()
            near = speed[ties] >= fastest - _TIE * max(1.0, fastest)
            leave_pos = ties[np.argmin(basis[ties]) if bland else np.argmax(near)]
            t = step[leave_pos]
        if not math.isfinite(t):
            return Status.UNBOUNDED, iteration
        x[j_in] += sigma * t
        x[basis] += rate * t
        if leave_pos < 0:
            # Entering variable ran to its opposite bound: a bound flip.
            x[j_in] = hi[j_in] if sigma > 0 else lo[j_in]
        else:
            j_out = basis[leave_pos]
            x[j_out] = hi[j_out] if rate[leave_pos] > 0 else lo[j_out]
            basis[leave_pos] = j_in
            row = Binv[leave_pos] / w[leave_pos]
            Binv -= np.outer(w, row)
            Binv[leave_pos] = row
        iteration += 1
        if iteration % _REFACTOR_EVERY == 0:
            np.take(A, basis, axis=1, out=Binv)  # B in Binv's buffer: no extra m x m copy
            try:
                Binv[...] = np.linalg.inv(Binv)
            except np.linalg.LinAlgError:
                return Status.NUMERICAL, iteration
        obj = float(c @ x)
        if obj < last_obj - _OPTIMALITY_TOL:
            last_obj = obj
            stall = 0
        else:
            stall += 1
    return Status.ITERATION_LIMIT, iteration


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


def solve_lp(lp: LinearProgram, limits: SolveLimits | None = None) -> LpOutcome:
    """Solve an LP, returning a status-coded outcome (never raising on
    infeasibility or unboundedness).

    When the optimum is not unique, one optimal basic solution is returned;
    which of the tied vertices that is stays unspecified.
    """
    limits = limits or SolveLimits()
    A, n, m_eq = lp.working, lp.num_vars, lp.b_eq.size
    m = A.shape[0]
    b = np.concatenate([lp.b_eq, lp.b_ub])
    eq_row = np.arange(m) < m_eq
    lo = np.concatenate([lp.lo, np.zeros(m)])
    hi = np.concatenate([lp.hi, np.where(eq_row, 0.0, math.inf)])
    start = np.where(np.isfinite(lp.lo), lp.lo, np.where(np.isfinite(lp.hi), lp.hi, 0.0))
    x = np.concatenate([start, np.zeros(m)])
    x[n:] = b - A @ x
    basis = n + np.arange(m)
    Binv = np.eye(m)  # the logicals' block of A is I

    # Phase 1 over the logicals p1 of the violated rows.
    p1 = n + np.flatnonzero(eq_row | (x[n:] < 0))
    lo1, hi1, c1 = lo.copy(), hi.copy(), np.zeros(n + m)
    lo1[p1], hi1[p1], c1[p1] = np.minimum(x[p1], 0.0), np.maximum(x[p1], 0.0), np.sign(x[p1])
    iters = 0
    while p1.size:
        status, iters = _run_simplex(A, c1, lo1, hi1, basis, x, Binv, limits, iters)
        if status is Status.UNBOUNDED:
            status = Status.NUMERICAL
        if status is not Status.OPTIMAL:
            return LpOutcome(status=status, iterations=iters)
        ub = p1 >= n + m_eq
        violation = np.where(ub, -x[p1], np.abs(x[p1]))
        off = violation > _row_tol(A[p1 - n], b[p1 - n], x)
        if not off.any():
            break
        release = p1[ub & ~off]
        if release.size == 0:
            return LpOutcome(status=Status.INFEASIBLE, iterations=iters)
        lo1[release], hi1[release], c1[release] = 0.0, math.inf, 0.0
        p1 = p1[~ub | off]

    x[p1] = 0.0  # rows phase 1 left within tolerance, made exact for phase 2
    c2 = np.concatenate([-lp.c if lp.direction == "max" else lp.c, np.zeros(m)])
    status, iters = _run_simplex(A, c2, lo, hi, basis, x, Binv, limits, iters)
    scale = float(np.abs(b).max(initial=1.0))
    if status is Status.OPTIMAL and not _primal_feasible(A, b, lo, hi, x, scale):
        status = Status.NUMERICAL
    if status is not Status.OPTIMAL:
        return LpOutcome(status=status, iterations=iters)
    x = x[:n].copy()
    return LpOutcome(status=Status.OPTIMAL, x=x, objective_value=float(lp.c @ x), iterations=iters)
