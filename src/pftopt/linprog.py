"""Continuous LP representation and a bounded-variable primal simplex solver.

Problems are stated in the standard form

    min/max c.x
    s.t.    A_eq x  = b_eq
            A_ub x <= b_ub
            l <= x <= u

Working form: with m_eq equality rows, m_ub inequality rows and n variables,
inequality row m_eq + k owns the slack column n + k (bounds [0, inf)), so the
working problem is an equality system over bounded columns. Every column
starts at its finite lower bound, else its finite upper bound, else (free) at
zero. An inequality row whose slack can absorb the start's residual starts
with that slack basic; only the other rows (every equality row, and every
inequality row the start violates) get an artificial column. The residual is
computed from the problem's own rows first, so the count of artificials is
known and the working matrix [A_eq; A_ub | I | artificials] is made in one
allocation. Phase 1 drives the artificials to zero; phase 2 pins them there
and minimizes the true objective (negated for max).

One revised primal simplex loop runs both phases and returns a status
instead of raising: OPTIMAL, ITERATION_LIMIT (max_iterations pivots over both
phases), UNBOUNDED on an improving ray that no bound blocks, or NUMERICAL on
a singular basis. Phase 1 is bounded below, so an unbounded ray there is
reported as NUMERICAL; a phase 1 that ends with artificials above tolerance
gives INFEASIBLE. Before OPTIMAL is returned, the point must solve the
working form: each row to within feasibility_tol times the larger of the
rhs scale and the row's term size, each bound to within feasibility_tol
times the rhs scale; else the status is NUMERICAL. `LpOutcome.iterations`
counts every pivot made, whatever the status.

The loop keeps the basis inverse explicitly. It is factorised afresh when
each phase starts and after every 50 basis changes; a pivot in between
updates it with one rank-1 (product-form) correction, so a pivot costs
matrix-vector products, O(m * (m + n)), rather than dense solves, O(m^3).

Pricing takes the largest reduced-cost violation, or the lowest column index
(Bland) once more than 3 (m_eq + n + 2 m_ub) pivots in a row made no
progress. Ratio test: a basic variable blocks at the bound it heads to, after
its distance to that bound divided by |rate|; one with |rate| <=
feasibility_tol never blocks. A row leaves only if its step is shorter than
the entering variable's bound flip by more than 1e-12. Rows within 1e-12 of
the shortest step tie: the first with the largest |rate| leaves, or under
Bland the one with the lowest column index.
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


@dataclass(frozen=True)
class SolveLimits:
    """Caps and tolerances of a solve.

    max_iterations caps the simplex pivots of each LP solve (phase 1 and
    phase 2 together); in branch and bound every node LP gets the full cap.
    max_nodes caps the node LPs of one branch-and-bound search.
    """

    max_iterations: int = 20000
    max_nodes: int = 200000
    feasibility_tol: float = 1e-7
    optimality_tol: float = 1e-7
    integrality_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iterations <= 0 or self.max_nodes <= 0:
            raise MalformedProblemError("iteration/node limits must be positive")
        if self.feasibility_tol <= 0 or self.optimality_tol <= 0:
            raise MalformedProblemError("tolerances must be positive")


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
    them. `eq_rows` and `ub_rows` give the rows back as (coefficients, rhs)
    tuples, computed when read; they stay because the benchmark's tracer
    (bench/tracing.py) counts rows with them.
    """

    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    direction: str = "min"

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
        for name, value in zip(
            ("c", "A_eq", "b_eq", "A_ub", "b_ub", "lo", "hi"), (c, A_eq, b_eq, A_ub, b_ub, lo, hi)
        ):
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
    eq_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ub_slacks: np.ndarray = field(default_factory=lambda: np.zeros(0))


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


# Basis changes between refactorisations of the kept basis inverse: each
# rank-1 update adds roundoff, and a fresh inverse costs about m updates.
_REFACTOR_EVERY = 50


def _run_simplex(A, c, lo, hi, basis, x, limits, iteration, stall_after):
    """Minimize c.x over Ax = b, lo <= x <= hi from the basic solution x.

    `basis` holds one column index per row. Every nonbasic x equals one of
    its bounds exactly, or zero when the column is free, so x alone says
    where a nonbasic column sits: at its upper bound iff x == hi. Mutates
    basis and x in place. Returns (status, iterations), where iterations
    goes on from `iteration` and counts every pivot made: OPTIMAL,
    ITERATION_LIMIT, UNBOUNDED on an unblocked improving ray, or NUMERICAL
    on a singular basis.

    The loop keeps the basis inverse Binv. It is factorised afresh on entry
    and after every _REFACTOR_EVERY basis changes; in between, a pivot on
    row r updates it in product form (row r of Binv divided by w[r], and a
    rank-1 correction of the other rows), so a pivot costs matrix-vector
    products only: the duals y = c_B Binv and the entering column
    w = Binv A_j.
    """
    m, n_total = A.shape
    opt_tol = limits.optimality_tol
    feas_tol = limits.feasibility_tol
    free = np.isneginf(lo) & np.isposinf(hi)
    bland = False
    stall = 0
    last_obj = math.inf
    Binv = None
    updates = _REFACTOR_EVERY
    while iteration < limits.max_iterations:
        if updates == _REFACTOR_EVERY:
            Binv = None  # let the old inverse go before inv allocates the new one
            try:
                Binv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError:
                return Status.NUMERICAL, iteration
            updates = 0
        in_basis = np.zeros(n_total, dtype=bool)
        in_basis[basis] = True
        nonbasic = np.flatnonzero(~in_basis)
        y = c[basis] @ Binv
        # Pricing over the full width costs one n-vector; gathering
        # A[:, nonbasic] first would copy most of A at every pivot.
        d = (c - y @ A)[nonbasic]
        # Entering candidates: at-lower columns want d < 0, at-upper columns
        # want d > 0, free ones either. Fixed columns (lo == hi) never enter.
        hi_n = hi[nonbasic]
        viol = np.where(free[nonbasic], np.abs(d), np.where(x[nonbasic] == hi_n, d, -d))
        viol[hi_n - lo[nonbasic] <= 0] = -math.inf
        eligible = np.nonzero(viol > opt_tol)[0]
        if eligible.size == 0:
            return Status.OPTIMAL, iteration
        if bland:
            k = eligible[np.argmin(nonbasic[eligible])]
        else:
            k = eligible[np.argmax(viol[eligible])]
        j_in = int(nonbasic[k])
        sigma = 1.0 if d[k] < 0 else -1.0

        w = Binv @ A[:, j_in]
        # x_B moves at rate -sigma*w as the entering variable moves by t >= 0.
        # Each basic variable blocks at the bound it heads to; one that barely
        # moves (|rate| <= feas_tol) never blocks.
        rate = -sigma * w
        speed = np.abs(rate)
        x_b = x[basis]
        room = np.where(rate > 0, hi[basis] - x_b, x_b - lo[basis])
        step = np.divide(room, speed, out=np.full(m, math.inf), where=speed > feas_tol)
        np.maximum(step, 0.0, out=step)
        t = hi[j_in] - lo[j_in]  # bound flip distance (inf if one side open)
        t_min = step.min(initial=math.inf)
        leave_pos = -1
        if t_min < t - 1e-12:
            ties = np.flatnonzero(step - t_min <= 1e-12)
            leave_pos = ties[np.argmin(basis[ties]) if bland else np.argmax(speed[ties])]
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
            updates += 1
        iteration += 1
        obj = float(c @ x)
        if obj < last_obj - opt_tol:
            last_obj = obj
            stall = 0
            bland = False
        else:
            stall += 1
            if stall > stall_after:
                bland = True
    return Status.ITERATION_LIMIT, iteration


def _primal_feasible(A, b, lo, hi, x, feas_tol: float, scale: float) -> bool:
    """Whether x solves the working form A x = b, lo <= x <= hi: no bound
    violated by more than feas_tol * scale, and no row off by more than
    feas_tol times the larger of scale and the row's term size
    sum_j |A_ij x_j|, which bounds the roundoff of A_i x. The simplex moves
    x step by step, so a drifted basis inverse shows here before a wrong
    point is called optimal."""
    size = np.maximum(scale, np.abs(A) @ np.abs(x))
    if (np.abs(A @ x - b) > feas_tol * size).any():
        return False
    return bool(np.maximum(lo - x, x - hi).max(initial=0.0) <= feas_tol * scale)


def solve_lp(lp: LinearProgram, limits: SolveLimits | None = None) -> LpOutcome:
    """Solve an LP, returning a status-coded outcome (never raising on
    infeasibility or unboundedness).

    When the optimum is not unique, one optimal basic solution is returned;
    which of the tied vertices that is stays unspecified.
    """
    limits = limits or SolveLimits()
    n = lp.num_vars
    sign = -1.0 if lp.direction == "max" else 1.0
    m_eq, m_ub = lp.b_eq.size, lp.b_ub.size
    m, n_cols = m_eq + m_ub, n + m_ub
    b = np.concatenate([lp.b_eq, lp.b_ub])

    # Every variable starts at its finite lower bound, else its finite upper
    # bound, else (free) at zero; every slack starts at zero.
    start = np.where(np.isfinite(lp.lo), lp.lo, np.where(np.isfinite(lp.hi), lp.hi, 0.0))
    residual = b - np.concatenate([lp.A_eq @ start, lp.A_ub @ start])
    # A slack that can absorb its row's residual starts basic; every other
    # row gets an artificial column of its own.
    absorbs = (np.arange(m) >= m_eq) & (residual >= 0)
    needy = np.flatnonzero(~absorbs)
    n_art = needy.size
    arts = n_cols + np.arange(n_art)

    # The working form [A_eq; A_ub | I | artificials], made in one
    # allocation: inequality row m_eq + k owns slack column n + k, and row
    # needy[k] owns artificial column n_cols + k.
    A = np.zeros((m, n_cols + n_art))
    A[:m_eq, :n] = lp.A_eq
    A[m_eq:, :n] = lp.A_ub
    A[np.arange(m_eq, m), np.arange(n, n_cols)] = 1.0
    A[needy, arts] = np.where(residual[needy] >= 0, 1.0, -1.0)
    lo = np.concatenate([lp.lo, np.zeros(m_ub + n_art)])
    hi = np.concatenate([lp.hi, np.full(m_ub + n_art, math.inf)])
    x = np.concatenate([start, np.zeros(m_ub), np.abs(residual[needy])])
    basis = np.arange(m) + (n - m_eq)  # each inequality row's slack column
    x[basis[absorbs]] = residual[absorbs]
    basis[needy] = arts

    # Phase 1 drives the artificials to zero. Its objective is bounded below,
    # so an unbounded ray there is a numerical failure.
    stall_after = 3 * (m + n_cols)
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    c1 = np.concatenate([np.zeros(n_cols), np.ones(n_art)])
    status, iters = _run_simplex(A, c1, lo, hi, basis, x, limits, 0, stall_after)
    if status is Status.UNBOUNDED:
        status = Status.NUMERICAL
    if status is Status.OPTIMAL and float(c1 @ x) > limits.feasibility_tol * scale:
        status = Status.INFEASIBLE
    if status is not Status.OPTIMAL:
        return LpOutcome(status=status, iterations=iters)

    # Phase 2: keep the artificials but pin them to zero.
    lo[n_cols:] = 0.0
    hi[n_cols:] = 0.0
    x[n_cols:] = 0.0
    c2 = np.concatenate([sign * lp.c, np.zeros(m_ub + n_art)])
    status, iters = _run_simplex(A, c2, lo, hi, basis, x, limits, iters, stall_after)
    if status is Status.OPTIMAL and not _primal_feasible(
        A, b, lo, hi, x, limits.feasibility_tol, scale
    ):
        status = Status.NUMERICAL
    if status is not Status.OPTIMAL:
        return LpOutcome(status=status, iterations=iters)
    x = x[:n].copy()
    return LpOutcome(
        status=Status.OPTIMAL,
        x=x,
        objective_value=float(lp.c @ x),
        iterations=iters,
        eq_residuals=lp.A_eq @ x - lp.b_eq,
        ub_slacks=lp.b_ub - lp.A_ub @ x,
    )
