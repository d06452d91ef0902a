"""LP-relaxation branch-and-bound for mixed binary/integer/continuous programs.

Node selection is best-bound (ties by insertion order) and branching picks the
most-fractional integer variable, so the search is deterministic. No cuts or
heuristics: the instances this toolkit targets solve in a handful of nodes.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .linprog import (
    LinearProgram,
    LpOutcome,
    MalformedProblemError,
    SolveLimits,
    Status,
    solve_lp,
)

__all__ = ["VarKind", "MipProblem", "MipOutcome", "BranchDecision", "branch", "solve_mip"]


class VarKind(enum.Enum):
    CONTINUOUS = "C"
    INTEGER = "I"
    BINARY = "B"


@dataclass(frozen=True)
class MipProblem:
    base: LinearProgram
    kinds: tuple
    names: tuple

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
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "names", names)

    @property
    def num_vars(self) -> int:
        return self.base.num_vars

    def integer_indices(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k is not VarKind.CONTINUOUS]


@dataclass(frozen=True)
class MipOutcome:
    status: Status
    x: np.ndarray | None = None
    objective_value: float | None = None
    nodes_explored: int = 0
    best_bound: float = math.nan
    iterations: int = 0  # simplex pivots summed over every node LP


@dataclass(frozen=True)
class BranchDecision:
    """Branch on variable `index`: floor child adds x <= floor_value, ceil
    child adds x >= ceil_value."""

    index: int
    floor_value: float
    ceil_value: float


def branch(node_relaxation: LpOutcome, mip: MipProblem, tol: float = 1e-6):
    """Pick the most-fractional integer variable of an Optimal relaxation.

    Returns None when every integer variable is already integral; ties in
    fractionality break toward the lowest index.
    """
    if node_relaxation.status is not Status.OPTIMAL:
        raise ValueError("branching requires an Optimal relaxation")
    x = node_relaxation.x
    best_idx = -1
    best_dist = math.inf
    for i in mip.integer_indices():
        frac = x[i] - math.floor(x[i])
        if min(frac, 1.0 - frac) <= tol:
            continue
        dist = abs(frac - 0.5)
        if dist < best_dist - 1e-12:
            best_dist = dist
            best_idx = i
    if best_idx < 0:
        return None
    return BranchDecision(
        index=best_idx,
        floor_value=math.floor(x[best_idx]),
        ceil_value=math.ceil(x[best_idx]),
    )


def solve_mip(mip: MipProblem, limits: SolveLimits | None = None) -> MipOutcome:
    """Exact best-bound branch-and-bound over the LP relaxation tree.

    Every node LP is `mip.base` with the node's bounds. A node LP that ends
    unresolved (ITERATION_LIMIT or NUMERICAL) leaves its subtree open: the
    search goes on, and the solve ends with that status instead of OPTIMAL or
    INFEASIBLE, with best_bound no higher than the open subtree's bound.

    When the optimum is not unique, one optimal solution is returned: the
    basic solution of the node LP where it was found, with integer variables
    snapped. Which of the tied optima that is stays unspecified.
    """
    limits = limits or SolveLimits()
    base = mip.base
    # Node values are compared in minimization sense; sign flips them back.
    sign = -1.0 if base.direction == "max" else 1.0
    tol = limits.integrality_tol

    root = solve_lp(base, limits)
    nodes = 1
    iterations = root.iterations
    if root.status is not Status.OPTIMAL:
        return MipOutcome(status=root.status, nodes_explored=nodes, iterations=iterations)

    incumbent = None
    incumbent_obj = math.inf
    counter = 0
    heap: list[tuple] = []

    def consider(outcome: LpOutcome, lo: np.ndarray, hi: np.ndarray) -> None:
        nonlocal incumbent, incumbent_obj, counter
        value = sign * outcome.objective_value
        decision = branch(outcome, mip, tol)
        if decision is None:
            if value < incumbent_obj - 1e-9:
                incumbent = outcome.x.copy()
                incumbent_obj = value
            return
        i = decision.index
        down_hi = hi.copy()
        down_hi[i] = decision.floor_value
        up_lo = lo.copy()
        up_lo[i] = decision.ceil_value
        for child_lo, child_hi in ((lo, down_hi), (up_lo, hi)):
            if child_lo[i] > child_hi[i]:
                continue  # a fractional bound left this side no integer: infeasible
            counter += 1
            heapq.heappush(heap, (value, counter, child_lo, child_hi))

    consider(root, base.lo, base.hi)
    unresolved = None  # status of the first node the search could not settle
    open_bound = math.inf  # lowest bound of a subtree left open
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
        if outcome.status in (Status.ITERATION_LIMIT, Status.NUMERICAL):
            unresolved = unresolved or outcome.status
            open_bound = min(open_bound, bound)
            continue
        if outcome.status is not Status.OPTIMAL:
            continue  # infeasible subproblem (unbounded cannot appear below a bounded root)
        if sign * outcome.objective_value >= incumbent_obj - 1e-9:
            continue
        consider(outcome, lo, hi)

    if incumbent is None:
        return MipOutcome(
            status=unresolved or Status.INFEASIBLE, nodes_explored=nodes, iterations=iterations
        )
    x = incumbent
    # Snap near-integral values so callers see clean integers.
    for i in mip.integer_indices():
        x[i] = round(x[i])
    return MipOutcome(
        status=unresolved or Status.OPTIMAL,
        x=x,
        objective_value=float(base.c @ x),
        nodes_explored=nodes,
        best_bound=sign * min(incumbent_obj, open_bound),
        iterations=iterations,
    )
