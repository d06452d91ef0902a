"""LP-relaxation branch-and-bound for mixed binary/integer/continuous programs.

Node selection is best-bound (ties by insertion order) and branching picks the
most-fractional integer variable, so the search is deterministic. Each node
keeps its parent's optimal basis (m ints) and, while the open nodes' share
stays within _INVERSE_BUDGET bytes, the parent's final basis inverse, one
read-only array that both children share, with its count of updates since
its last factorisation. Its LP re-optimises from there with the dual
simplex: a copy of the carried inverse replaces a factorisation of the
basis, and the count goes on along the path, so the inverse is factorised
afresh after every 50th update along it (`linprog`). A parent whose LP held
rows back carries no inverse, and its children factorise their start. Two
rules settle a child before its LP:

- Bound propagation (Savelsbergh 1994, ORSA J. Comput. 6; Achterberg 2007,
  Constraint Integer Programming). A child popped from the queue first gets
  one round over the rows, each read in `<=` form (an equality row as two),
  whose least activity reads the bound its parent's branching moved: the
  only rows that branching can tighten. A row whose least activity over the
  child's bounds exceeds its rhs settles the child as infeasible, with no
  LP; otherwise each integer column of the row gets the bound the row's
  slack leaves it, rounded inward, and the child and its subtree keep the
  tightened bounds. Continuous bounds, and bounds that are infinite at the
  root, never move.
- An integral objective. When every integer column costs an integer and
  every continuous column costs 0, no solution's value lies strictly
  between two integers, so a node's LP value z (in min sense) is raised to
  the next integer at or above z - min(1e-6 max(1, |z|), 1/2), never below
  z, both where it meets the incumbent and as its children's bound.

`nodes_explored` counts node LPs, so a child settled without one is not
counted. No cuts or heuristics, so the node count rests on the formulation,
and on which vertex of a tied LP optimum each node LP returns: the twenty
lifted-MTZ tours of the benchmark (4 to 8 cities, each also with one arc
forced) take 101 nodes and 882 pivots in all, against 204 and 1,537 without
the two rules.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .linprog import (
    LinearProgram,
    LpOutcome,
    MalformedProblemError,
    SolveLimits,
    Status,
    solve_lp,
)

__all__ = ["VarKind", "MipProblem", "MipOutcome", "branch", "solve_mip"]

# An integer variable within this distance of an integer counts as integral.
_INTEGRALITY_TOL = 1e-6


class VarKind(enum.Enum):
    CONTINUOUS = "C"
    INTEGER = "I"
    BINARY = "B"


@dataclass(frozen=True)
class MipProblem:
    """A `LinearProgram` with a kind and a name per variable. `integer` is a
    read-only mask, computed once: True where the kind is INTEGER or BINARY."""

    base: LinearProgram
    kinds: tuple
    names: tuple
    integer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.base.num_vars
        kinds = tuple(self.kinds)
        names = tuple(self.names)
        if len(kinds) != n or len(names) != n:
            raise MalformedProblemError("kinds and names must match the variable count")
        if any(not isinstance(k, VarKind) for k in kinds):
            raise MalformedProblemError("kinds must be VarKind values")
        if any(not name for name in names):
            raise MalformedProblemError("variable names must be non-empty")
        if len(set(names)) != n:
            repeated = next(name for name, count in Counter(names).items() if count > 1)
            raise MalformedProblemError(f"variable names must be unique; {repeated!r} repeats")
        # Binary variables are clamped into [0, 1] here, and only here.
        base = self.base
        binary = np.array([kind is VarKind.BINARY for kind in kinds], dtype=bool)
        lo = np.where(binary, np.maximum(base.lo, 0.0), base.lo)
        hi = np.where(binary, np.minimum(base.hi, 1.0), base.hi)
        if not (np.array_equal(lo, base.lo) and np.array_equal(hi, base.hi)):
            object.__setattr__(self, "base", base.with_bounds(lo, hi))
        integer = np.array([kind is not VarKind.CONTINUOUS for kind in kinds], dtype=bool)
        integer.flags.writeable = False
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "integer", integer)

    @property
    def num_vars(self) -> int:
        return self.base.num_vars


@dataclass(frozen=True)
class MipOutcome:
    status: Status
    x: np.ndarray | None = None
    objective_value: float | None = None
    nodes_explored: int = 0
    best_bound: float = math.nan
    iterations: int = 0  # simplex pivots summed over every node LP


def branch(node_relaxation: LpOutcome, mip: MipProblem) -> int | None:
    """The index of the most-fractional integer variable of an Optimal
    relaxation, or None when every integer variable is within
    _INTEGRALITY_TOL of an integer. Distances from one half within 1e-12 of
    the best tie, and the lowest index wins."""
    if node_relaxation.status is not Status.OPTIMAL:
        raise ValueError("branching requires an Optimal relaxation")
    x = node_relaxation.x
    frac = x - np.floor(x)
    fractional = mip.integer & (np.minimum(frac, 1.0 - frac) > _INTEGRALITY_TOL)
    if not fractional.any():
        return None
    dist = np.where(fractional, np.abs(frac - 0.5), math.inf)
    return int(np.argmax(dist <= dist.min() + 1e-12))


# Bytes of basis inverses that the open nodes may carry. Each node is charged
# its parent's inverse, though siblings share one array, so the memory held
# stays within the budget; past it, a child factorises its start basis.
_INVERSE_BUDGET = 64 * 2**20

# A row is unmet when its least activity exceeds b by more than this times
# the row's scale, max(1, |b| + sum of |a_k v| over the finite root bounds v
# of its columns); a propagated integer bound is rounded inward past that
# tolerance over |a_k|. An integral objective raises a node value z to the
# next integer at or above z - this * max(1, |z|), the margin capped at 1/2.
_PROPAGATION_TOL = 1e-6


def _integral_objective(mip: MipProblem) -> bool:
    """Whether every point with integral integer columns has an integer
    objective: each integer column costs an integer, each other one 0."""
    c = mip.base.c
    return not np.where(mip.integer, c % 1.0, c).any()


def _raised(value: float) -> float:
    """The least integer at or above an LP value, within roundoff, or the
    value itself when that integer would lie below it."""
    margin = min(_PROPAGATION_TOL * max(1.0, abs(value)), 0.5)
    return max(value, float(math.ceil(value - margin)))


def _changed(values: np.ndarray, changes: dict) -> np.ndarray:
    """`values`, or a copy of it with the entries `changes` maps to new ones."""
    if not changes:
        return values
    values = values.copy()
    values[list(changes)] = list(changes.values())
    return values


class _Propagator:
    """One round of bound propagation after a branching moved one bound.

    Each row of A_eq x = b_eq and A_ub x <= b_ub is read in `<=` form, an
    equality row as two rows (a x <= b and -a x <= -b). A row's least
    activity over a box [lo, hi] reads the lower bound of each positive
    coefficient and the upper bound of each negative one, so raising lo_j or
    lowering hi_j raises the least activity of the rows that read that bound
    and of no other: those rows are the ones a round visits. A bound is
    named by its position in [lo; hi], j for lo_j and n + j for hi_j. A row
    is kept when its least activity over the root bounds is finite; bounds
    only shrink down the tree, so it stays finite. The rows that hold a
    column are read from the matrix the first time a branching on it is
    propagated, as Python lists: they hold a handful of entries, too few for
    array calls to pay for themselves.
    """

    __slots__ = ("A", "b", "m_eq", "integer", "root", "rows")

    def __init__(self, mip: MipProblem) -> None:
        base = mip.base
        self.A = base.working[:, : base.num_vars]  # [A_eq; A_ub]
        self.b = base.b_eq.tolist() + base.b_ub.tolist()
        self.m_eq = base.b_eq.size
        self.integer = mip.integer.tolist()
        self.root = base.lo.tolist(), base.hi.tolist()
        self.rows = {}  # bound position -> the kept `<=` rows that read it, each a `_form`

    def _form(self, b: float, terms: list) -> "tuple | None":
        """The row sum(a_k x_k) <= b over its (k, a_k) terms as (b + tol,
        pos, neg, up, down), or None when its least activity at the root is
        infinite. `pos` and `neg` hold the terms with a_k > 0 and a_k < 0;
        `up` and `down` hold those of integer columns whose upper, resp.
        lower, bound the row's slack caps, where that bound is finite at the
        root (no kept row reads a bound that is infinite there, so capping it
        would only repeat the row to the LP). The tolerance tol is
        _PROPAGATION_TOL times the row's scale, max(1, |b| + the sum of
        |a_k v| over the finite root bounds v of its columns)."""
        (root_lo, root_hi), integer = self.root, self.integer
        pos, neg, up, down = [], [], [], []
        scale = abs(b)
        for k, a in terms:
            lo, hi = root_lo[k], root_hi[k]
            if a > 0:
                if lo == -math.inf:
                    return None
                pos.append((k, a))
                if integer[k] and hi < math.inf:
                    up.append((k, a))
            else:
                if hi == math.inf:
                    return None
                neg.append((k, a))
                if integer[k] and lo > -math.inf:
                    down.append((k, a))
            scale += abs(a) * ((abs(lo) if lo > -math.inf else 0.0) + (abs(hi) if hi < math.inf else 0.0))
        return b + _PROPAGATION_TOL * max(1.0, scale), pos, neg, up, down

    def _file_rows(self, j: int) -> None:
        """Read the rows that hold column j, and file each kept `<=` form
        under the bound of j its least activity reads: rows[j] (lo_j) where
        j's coefficient in it is positive, rows[n + j] (hi_j) where it is
        negative."""
        lower = self.rows[j] = []
        upper = self.rows[len(self.integer) + j] = []
        held = self.A[:, j].nonzero()[0]
        for i, row in zip(held.tolist(), self.A[held].tolist()):
            terms = [(k, a) for k, a in enumerate(row) if a]
            for sign in (1.0, -1.0) if i < self.m_eq else (1.0,):  # an equality as two rows
                form = self._form(sign * self.b[i], [(k, sign * a) for k, a in terms])
                if form is not None:
                    (lower if sign * row[j] > 0 else upper).append(form)

    def tighten(self, position: int, lo: np.ndarray, hi: np.ndarray) -> "tuple | None":
        """One round, within the box [lo, hi], over the rows whose least
        activity reads the bound at `position`. Each row's room is b + tol
        less its least activity. None when a row has no room, or when two
        tightened bounds cross: no integer point is left. Else the box with
        each capped integer column's bound tightened to what the room leaves
        it, rounded inward (new arrays where a bound moved); every row's room
        is taken at the box as given. Continuous bounds never move, nor does a
        bound whose cap overflows to an infinity."""
        if position not in self.rows:
            self._file_rows(position % len(self.integer))
        lo_at, hi_at = lo.item, hi.item
        new_lo, new_hi = {}, {}  # column -> its tightened bound
        for loose, pos, neg, up, down in self.rows[position]:
            room = loose - sum([a * lo_at(k) for k, a in pos]) - sum([a * hi_at(k) for k, a in neg])
            if room < 0.0:
                return None
            for k, a in up:
                cap = lo_at(k) + room / a
                if not math.isfinite(cap):
                    continue  # room / a overflowed: no finite cap on hi_k
                bound = math.floor(cap)
                if bound < new_hi.get(k, hi_at(k)):
                    if bound < new_lo.get(k, lo_at(k)):
                        return None
                    new_hi[k] = bound
            for k, a in down:
                cap = hi_at(k) + room / a
                if not math.isfinite(cap):
                    continue  # room / a overflowed: no finite cap on lo_k
                bound = math.ceil(cap)
                if bound > new_lo.get(k, lo_at(k)):
                    if bound > new_hi.get(k, hi_at(k)):
                        return None
                    new_lo[k] = bound
        return _changed(lo, new_lo), _changed(hi, new_hi)


def solve_mip(mip: MipProblem, limits: SolveLimits | None = None) -> MipOutcome:
    """Exact best-bound branch-and-bound over the LP relaxation tree.

    Every node LP is `mip.base` with the node's bounds, started from its
    parent's optimal basis and, when the parent handed one on and the
    budget allows, its final basis inverse; the first node is the root,
    with the bounds and start of `mip.base`. The node LPs are made by
    `LinearProgram._node`, which shares every array of `mip.base` and takes
    the bounds as given: they come from floor and ceil of a checked point
    and from propagation inside the checked root box. An UNBOUNDED node LP
    ends the solve UNBOUNDED. A node LP that ends unresolved (ITERATION_LIMIT or
    NUMERICAL) leaves its subtree open: the search goes on, and the solve
    ends with that status instead of OPTIMAL or INFEASIBLE, with best_bound
    no higher than the open subtree's bound.

    When the optimum is not unique, one optimal solution is returned: the
    basic solution of the node LP where it was found, with integer variables
    snapped. Which of the tied optima that is stays unspecified.
    """
    limits = limits or SolveLimits()
    base = mip.base
    # Node values are compared in minimization sense; sign flips them back.
    sign = -1.0 if base.direction == "max" else 1.0

    incumbent = None
    incumbent_obj = math.inf
    unresolved = None  # status of the first node the search could not settle
    open_bound = math.inf  # lowest bound of a subtree left open
    nodes = iterations = counter = 0
    integral = _integral_objective(mip)
    propagator = None  # made at the first branching
    carried = 0  # bytes of basis inverses charged to the open nodes
    # A node is (bound, counter, lo, hi, basis, inverse, updates, moved):
    # basis its parent's optimal one, inverse None or the parent's final
    # B^-1 of it with its updates since the last factorisation, and moved
    # the position its parent's branching moved in the box [lo; hi] (i for
    # lo_i, n + i for hi_i, -1 at the root).
    heap = [(-math.inf, counter, base.lo, base.hi, base.basis, None, 0, -1)]
    while heap:
        bound, _, lo, hi, basis, inverse, updates, moved = heapq.heappop(heap)
        if inverse is not None:
            carried -= inverse.nbytes
        if bound >= incumbent_obj - 1e-9:
            continue  # pruned by the incumbent
        if nodes >= limits.max_nodes:
            unresolved = unresolved or Status.ITERATION_LIMIT
            open_bound = min(open_bound, bound)
            break
        if moved >= 0:
            box = propagator.tighten(moved, lo, hi)
            if box is None:
                continue  # no integer point left: infeasible, settled without an LP
            lo, hi = box
        outcome = solve_lp(base._node(lo, hi, basis, inverse, updates), limits)
        nodes += 1
        iterations += outcome.iterations
        if outcome.status is Status.UNBOUNDED:
            # Only the root can be unbounded: a child's region lies inside its parent's.
            return MipOutcome(status=Status.UNBOUNDED, nodes_explored=nodes, iterations=iterations)
        if outcome.status in (Status.ITERATION_LIMIT, Status.NUMERICAL):
            unresolved = unresolved or outcome.status
            open_bound = min(open_bound, bound)
            continue
        if outcome.status is not Status.OPTIMAL:
            continue  # infeasible subproblem
        value = sign * outcome.objective_value
        if integral:
            value = _raised(value)
        if value >= incumbent_obj - 1e-9:
            continue
        i = branch(outcome, mip)
        if i is None:
            incumbent = outcome.x.copy()
            incumbent_obj = value
            continue
        if propagator is None:
            propagator = _Propagator(mip)
        down_hi = hi.copy()
        down_hi[i] = math.floor(outcome.x[i])
        up_lo = lo.copy()
        up_lo[i] = math.ceil(outcome.x[i])
        inverse, updates = outcome.basis_inverse, outcome.inverse_updates
        for child_lo, child_hi, moved in ((lo, down_hi, base.num_vars + i), (up_lo, hi, i)):
            if child_lo[i] > child_hi[i]:
                continue  # a fractional bound left this side no integer: infeasible
            counter += 1
            if inverse is not None and carried + inverse.nbytes > _INVERSE_BUDGET:
                inverse = None  # past the budget: the child factorises its basis
            if inverse is not None:
                carried += inverse.nbytes
            heapq.heappush(heap, (value, counter, child_lo, child_hi, outcome.basis, inverse,
                                  updates, moved))

    if incumbent is None:
        return MipOutcome(
            status=unresolved or Status.INFEASIBLE, nodes_explored=nodes, iterations=iterations
        )
    x = incumbent
    # Snap near-integral values so callers see clean integers (+ 0.0 turns -0.0 into 0.0).
    x[mip.integer] = np.round(x[mip.integer]) + 0.0
    return MipOutcome(
        status=unresolved or Status.OPTIMAL,
        x=x,
        objective_value=float(base.c @ x),
        nodes_explored=nodes,
        best_bound=sign * min(incumbent_obj, open_bound),
        iterations=iterations,
    )
