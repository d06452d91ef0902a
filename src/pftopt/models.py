"""Builders that turn networks, distance matrices, and adjacency structures
into solvable mixed-integer problems.

Each builder is a pure function returning a MipProblem and never calls the
solver; only `min_colors` solves, one coloring model per color count. The
coloring model fixes a greedy clique of q areas to colors 0..q-1, which
removes the colors' interchangeability from its search, and `min_colors`
starts its scan at q. A builder fills dense numpy blocks (objective,
equality rows, <= rows, bounds) and hands them to `LinearProgram`, which
copies and checks them once.
Each input holds the checked read-only array its builders index directly:
a `DistanceMatrix` its distances `d`, a `Network` its node-arc `incidence`,
and an `AdjacencySet` its boundary matrix `touches`. Bounds default to
[0, inf); builders state only other bounds, and `MipProblem` clamps binary
variables into [0, 1]. Variable names concatenate the ids of the underlying
formulations (arc variables "X<i><j>", assignment variables "Y<i><j>",
placement variables "X<j>"), so multi-digit ids can collide, and
`MipProblem` then refuses the model, naming the repeated name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import branch_bound
from .branch_bound import MipProblem, VarKind
from .linprog import LinearProgram, Status

__all__ = [
    "InputError",
    "Network",
    "DistanceMatrix",
    "AdjacencySet",
    "PathSet",
    "MinColorsResult",
    "build_shortest_path",
    "build_tour",
    "force_arc",
    "build_set_cover",
    "enumerate_st_paths",
    "build_flow_capture",
    "build_coloring",
    "min_colors",
    "build_service_coverage",
    "build_transportation",
    "build_max_flow",
    "build_facility_location",
]


class InputError(ValueError):
    """Invalid builder input (bad ids, shapes, or parameter ranges)."""


@dataclass(frozen=True)
class Network:
    """Directed arc list; weights are finite and >= 0, capacities >= 0 and
    math.inf for uncapacitated arcs.

    `incidence` is the read-only float node x arc matrix, made once with the
    checks: +1 where an arc enters a node, -1 where it leaves, one row per
    node in node_ids order.
    """

    node_ids: tuple
    arcs: tuple  # of (tail, head, weight, capacity)
    incidence: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = tuple(self.node_ids)
        row = {node: k for k, node in enumerate(nodes)}
        if len(row) != len(nodes):
            raise InputError("duplicate node ids")
        given = tuple(self.arcs)
        incidence = np.zeros((len(nodes), len(given)))
        seen = set()
        arcs = []
        for k, (tail, head, weight, capacity) in enumerate(given):
            if tail not in row or head not in row:
                raise InputError(f"arc ({tail}, {head}) references an unknown node")
            if tail == head:
                raise InputError(f"self-loop on node {tail}")
            if (tail, head) in seen:
                raise InputError(f"duplicate arc ({tail}, {head})")
            seen.add((tail, head))
            weight = float(weight)
            capacity = float(capacity)
            if not 0 <= weight < math.inf:
                raise InputError(f"arc ({tail}, {head}): weight {weight} must be finite, >= 0")
            if not capacity >= 0:
                raise InputError(f"arc ({tail}, {head}): capacity {capacity} must be >= 0")
            arcs.append((tail, head, weight, capacity))
            incidence[row[head], k] = 1.0
            incidence[row[tail], k] = -1.0
        incidence.flags.writeable = False
        object.__setattr__(self, "node_ids", nodes)
        object.__setattr__(self, "arcs", tuple(arcs))
        object.__setattr__(self, "incidence", incidence)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Distances from each of `from_ids` (rows) to each of `to_ids` (columns).

    `d` is a read-only float array of shape len(from_ids) x len(to_ids),
    finite and non-negative, copied and checked once when the matrix is
    made; rows may be given as any nested sequence of equal-length rows.
    """

    from_ids: tuple
    to_ids: tuple
    d: np.ndarray

    def __post_init__(self) -> None:
        from_ids, to_ids = tuple(self.from_ids), tuple(self.to_ids)
        try:
            d = np.array(self.d, dtype=float)
        except (TypeError, ValueError):
            raise InputError("distance matrix rows must be equal-length rows of numbers") from None
        if d.shape == (0,):
            d = d.reshape(0, len(to_ids))
        if d.ndim != 2 or d.shape[0] != len(from_ids):
            raise InputError("distance matrix row count must match from_ids")
        if d.shape[1] != len(to_ids):
            raise InputError("distance matrix column count must match to_ids")
        if not (np.isfinite(d).all() and (d >= 0).all()):
            raise InputError("distances must be finite and non-negative")
        d.flags.writeable = False
        object.__setattr__(self, "from_ids", from_ids)
        object.__setattr__(self, "to_ids", to_ids)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class AdjacencySet:
    """Unordered boundary pairs between areas.

    `touches` is the read-only symmetric boolean area x area matrix, made
    once with the checks: True where two areas share a boundary, False on
    the diagonal, rows and columns in area_ids order.
    """

    area_ids: tuple
    pairs: frozenset  # of frozenset({a, b}) boundary pairs
    touches: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        areas = tuple(self.area_ids)
        index = {a: i for i, a in enumerate(areas)}
        if len(index) != len(areas):
            raise InputError("duplicate area ids")
        touches = np.zeros((len(areas), len(areas)), dtype=bool)
        norm = set()
        for pair in map(frozenset, self.pairs):
            if len(pair) != 2:
                raise InputError(f"pair {set(pair)} must name two distinct areas")
            a, b = pair
            if a not in index or b not in index:
                raise InputError(f"pair ({a}, {b}) references an unknown area")
            norm.add(pair)
            touches[index[a], index[b]] = touches[index[b], index[a]] = True
        touches.flags.writeable = False
        object.__setattr__(self, "area_ids", areas)
        object.__setattr__(self, "pairs", frozenset(norm))
        object.__setattr__(self, "touches", touches)


@dataclass(frozen=True)
class PathSet:
    source: object
    sink: object
    paths: tuple  # of node-id tuples
    flow: tuple  # one f_r >= 0 per path

    def __post_init__(self) -> None:
        paths = tuple(tuple(p) for p in self.paths)
        flows = tuple(float(f) for f in self.flow)
        if len(flows) != len(paths):
            raise InputError("one flow value per path required")
        for p in paths:
            if len(p) < 2 or p[0] != self.source or p[-1] != self.sink:
                raise InputError(f"path {p} must run source -> sink")
            if len(set(p)) != len(p):
                raise InputError(f"path {p} is not simple")
        if any(f < 0 for f in flows):
            raise InputError("path flows must be non-negative")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "flow", flows)


def _check_amounts(values, ids, what: str) -> None:
    """Each of `values` (one per id) must be finite and non-negative."""
    for ident, value in zip(ids, values):
        if not 0 <= value < math.inf:
            raise InputError(f"{what} {ident} must be finite and non-negative, got {value:g}")


def _check_p(p: int, candidates: int) -> None:
    if p < 0:
        raise InputError(f"p must be >= 0, got {p}")
    if p > candidates:
        raise InputError("p exceeds the candidate count")


def _greedy_clique(touches: np.ndarray) -> np.ndarray:
    """The area indices of a clique, in area order: areas are taken by
    degree, highest first (ties in area order), and each one that borders
    every area kept so far is kept."""
    kept = []
    for i in np.argsort(-touches.sum(axis=1), kind="stable"):
        if touches[i, kept].all():
            kept.append(i)
    return np.sort(np.array(kept, dtype=int))


def _shipments(cost: DistanceMatrix, demand, capacity, site: str):
    """The block that transportation and facility location share, over
    shipments at i * len(to_ids) + j from site i to store j: the checked
    demand and capacity lists, the rows meeting each store's demand, the rows
    summing each site's shipments, and the (site id, store id) pairs."""
    m, n = cost.d.shape
    demand = [float(v) for v in demand]
    capacity = [float(u) for u in capacity]
    if len(demand) != n:
        raise InputError("one demand per store required")
    _check_amounts(demand, cost.to_ids, "demand of store")
    if len(capacity) != m:
        raise InputError(f"one capacity per {site} required")
    _check_amounts(capacity, cost.from_ids, f"capacity of {site}")
    pairs = [(f, t) for f in cost.from_ids for t in cost.to_ids]
    return demand, capacity, np.tile(np.eye(n), m), np.kron(np.eye(m), np.ones((1, n))), pairs


def _check_endpoints(net: Network, s, t) -> None:
    if s == t:
        raise InputError("source and sink must differ")
    if s not in net.node_ids or t not in net.node_ids:
        raise InputError("source or sink not in network")


def build_shortest_path(net: Network, s, t) -> MipProblem:
    """One binary per arc; unit flow leaves s and enters t, with single-entry
    caps on every node that has entering arcs."""
    _check_endpoints(net, s, t)
    arcs = net.arcs
    inc = net.incidence
    b_eq = np.zeros(len(net.node_ids))
    b_eq[net.node_ids.index(s)] = -1.0
    b_eq[net.node_ids.index(t)] = 1.0
    entering = inc > 0
    caps = entering[entering.any(axis=1)].astype(float)
    base = LinearProgram([w for _, _, w, _ in arcs], inc, b_eq, caps, np.ones(len(caps)))
    return MipProblem(
        base=base,
        kinds=[VarKind.BINARY] * len(arcs),
        names=[f"X{tail}{head}" for tail, head, _, _ in arcs],
    )


def build_tour(d: DistanceMatrix) -> MipProblem:
    """Minimum-cost closed tour with single-entry/single-exit degree rows and
    MTZ ordering variables u_i (u_1 pinned to 1) to forbid subtours, in the
    lifted form of Desrochers and Laporte (1991, Oper. Res. Lett. 10), whose
    LP bound is tighter than the plain MTZ rows'. The matrix may list its
    columns in any order over the same ids as its rows."""
    ids = d.from_ids
    n = len(ids)
    col = {t: j for j, t in enumerate(d.to_ids)}
    if not (len(col) == len(d.to_ids) == n and col.keys() == set(ids)):
        raise InputError("tour requires a square distance matrix over one id set")
    if n < 3:
        raise InputError("tour requires at least 3 nodes")
    dist = d.d[:, [col[t] for t in ids]]  # columns in row order
    tails, heads = np.nonzero(~np.eye(n, dtype=bool))  # arcs i->j, i != j, row-major
    n_arcs = tails.size
    n_total = n_arcs + n  # arcs then u_1..u_N
    arcs = np.arange(n_arcs)

    A_eq = np.zeros((2 * n, n_total))
    A_eq[heads, arcs] = 1.0  # entry: exactly one arc into j
    A_eq[n + tails, arcs] = 1.0  # exit: exactly one arc out of i
    # Lifted MTZ: u_i - u_j + (N-1)*X_ij + (N-3)*X_ji <= N - 2 for arcs between
    # cities 2..N, in arc order. On a tour arc it forces u_j = u_i + 1, and it
    # cuts off every 2-cycle.
    inner = arcs[(tails > 0) & (heads > 0)]
    reverse = heads * (n - 1) + tails - (tails > heads)  # index of arc j->i
    mtz = np.arange(inner.size)
    A_ub = np.zeros((inner.size, n_total))
    A_ub[mtz, n_arcs + tails[inner]] = 1.0
    A_ub[mtz, n_arcs + heads[inner]] = -1.0
    A_ub[mtz, inner] = float(n - 1)
    A_ub[mtz, reverse[inner]] = float(n - 3)

    c = np.zeros(n_total)
    c[:n_arcs] = dist[tails, heads]
    lo = np.zeros(n_total)
    hi = np.full(n_total, math.inf)
    lo[n_arcs], hi[n_arcs] = 1.0, 1.0
    lo[n_arcs + 1 :], hi[n_arcs + 1 :] = 2.0, float(n)
    base = LinearProgram(c, A_eq, np.ones(2 * n), A_ub, np.full(inner.size, float(n - 2)), lo, hi)
    names = [f"X{ids[i]}{ids[j]}" for i, j in zip(tails.tolist(), heads.tolist())]
    names += [f"U{node}" for node in ids]
    return MipProblem(
        base=base, kinds=[VarKind.BINARY] * n_arcs + [VarKind.INTEGER] * n, names=names
    )


def force_arc(mip: MipProblem, i, j) -> MipProblem:
    """Return a copy of a tour problem with X_i_j pinned to 1 through its lower
    bound (sensitivity runs); the rows are shared with `mip`."""
    name = f"X{i}{j}"
    if name not in mip.names:
        raise InputError(f"arc {name} not in model")
    lo = mip.base.lo.copy()
    lo[mip.names.index(name)] = 1.0
    return MipProblem(base=mip.base.with_bounds(lo, mip.base.hi), kinds=mip.kinds, names=mip.names)


def build_set_cover(adj: AdjacencySet, cost) -> MipProblem:
    """Minimum-cost covering: every area's closed neighborhood (itself plus
    boundary sharers) must contain at least one placement."""
    areas = adj.area_ids
    n = len(areas)
    cost = [float(c) for c in cost]
    if len(cost) != n:
        raise InputError("one cost per area required")
    for area, c in zip(areas, cost):
        if not 0 < c < math.inf:
            raise InputError(f"cost of area {area} must be finite and positive, got {c:g}")
    covers = np.eye(n) + adj.touches  # row: the area's closed neighborhood
    # covers @ x >= 1, negated into <= form.
    base = LinearProgram(cost, A_ub=-covers, b_ub=np.full(n, -1.0))
    return MipProblem(base=base, kinds=[VarKind.BINARY] * n, names=[f"X{a}" for a in areas])


def enumerate_st_paths(net: Network, s, t, flows=None) -> PathSet:
    """All simple directed s->t paths by depth-first search, each node's
    out-arcs visited in arc-list order. Default per-path flow is the minimum
    arc weight along the path; `flows` overrides the whole vector."""
    _check_endpoints(net, s, t)
    out_arcs: dict = {node: [] for node in net.node_ids}
    weight = {}
    for tail, head, w, _ in net.arcs:
        out_arcs[tail].append(head)
        weight[(tail, head)] = w
    paths: list[tuple] = []
    stack = [s]
    on_path = {s}
    untried = [iter(out_arcs[s])]  # per stack node: the out-arcs not yet followed
    done = object()  # ids may be any hashable, None included
    while untried:
        head = next(untried[-1], done)
        if head is done:
            untried.pop()
            on_path.discard(stack.pop())
        elif head == t:
            paths.append((*stack, t))
        elif head not in on_path:
            stack.append(head)
            on_path.add(head)
            untried.append(iter(out_arcs[head]))
    if flows is None:
        flows = [
            min(weight[(p[k], p[k + 1])] for k in range(len(p) - 1)) for p in paths
        ]
    return PathSet(source=s, sink=t, paths=tuple(paths), flow=tuple(flows))


def build_flow_capture(ps: PathSet, candidates, p: int) -> MipProblem:
    """Place p facilities on candidate nodes to maximize the captured path
    flow; a path counts iff at least one placed node lies on it."""
    candidates = tuple(candidates)
    _check_p(p, len(candidates))
    if ps.source in candidates or ps.sink in candidates:
        raise InputError("source and sink nodes cannot be candidates")
    n_x = len(candidates)
    n_y = len(ps.paths)
    n = n_x + n_y
    cand_idx = {node: k for k, node in enumerate(candidates)}
    A_eq = np.zeros((1, n))
    A_eq[0, :n_x] = 1.0  # exactly p placements
    A_ub = np.zeros((n_y, n))  # Y_r <= placements on path r
    A_ub[:, n_x:] = np.eye(n_y)
    for r, path in enumerate(ps.paths):
        for node in path:
            if node in cand_idx:
                A_ub[r, cand_idx[node]] = -1.0
    base = LinearProgram(
        np.concatenate([np.zeros(n_x), ps.flow]), A_eq, [float(p)], A_ub, np.zeros(n_y),
        direction="max",
    )
    return MipProblem(
        base=base,
        kinds=[VarKind.BINARY] * n,
        names=[f"X{node}" for node in candidates] + [f"Y{r + 1}" for r in range(n_y)],
    )


def build_coloring(adj: AdjacencySet, colors: int) -> MipProblem:
    """Feasibility model: one color per area, boundary pairs never share a
    color. Variables are laid out in per-color blocks (x[k*N + i]).

    Colors are interchangeable, so the first min(q, colors) areas of a greedy
    clique of q areas take colors 0, 1, ... in area order, through their lower
    bounds: a coloring exists iff one exists with the clique so fixed. With
    fewer colors than q, the root LP is infeasible."""
    if colors < 1:
        raise InputError("need at least one color")
    areas = adj.area_ids
    n_areas = len(areas)
    n = n_areas * colors
    edges = np.argwhere(np.triu(adj.touches))  # rows (a, b), a < b, row-major
    rows = np.arange(len(edges))
    ends = np.zeros((len(edges), n_areas))  # row: the two areas of a boundary pair
    ends[rows, edges[:, 0]] = ends[rows, edges[:, 1]] = 1.0
    clique = _greedy_clique(adj.touches)[:colors]
    lo = np.zeros(n)
    lo[np.arange(len(clique)) * n_areas + clique] = 1.0  # clique area j takes color j
    base = LinearProgram(
        np.ones(n),
        np.tile(np.eye(n_areas), colors),  # one color per area
        np.ones(n_areas),
        np.kron(np.eye(colors), ends),  # per color: a pair never shares it
        np.ones(colors * len(edges)),
        lo,
    )
    return MipProblem(
        base=base,
        kinds=[VarKind.BINARY] * n,
        names=[f"{areas[i]}_{k}" for k in range(colors) for i in range(n_areas)],
    )


@dataclass(frozen=True)
class MinColorsResult:
    # OPTIMAL with the smallest count, INFEASIBLE when no count up to
    # max_colors works, or the unresolved status of the solve that stopped the scan
    status: Status
    colors: int | None = None  # set only when status is OPTIMAL
    assignment: dict = field(default_factory=dict)  # area -> color index (0-based)


def min_colors(adj: AdjacencySet, max_colors: int) -> MinColorsResult:
    """Smallest feasible color count by ascending scan over q..max_colors,
    where q (at least 1) is the size of the greedy clique `build_coloring`
    fixes: a q-clique needs q colors. A count whose solve ends unresolved
    (ITERATION_LIMIT or NUMERICAL) without a coloring stops the scan with that
    status, since no larger count could then be proven the smallest."""
    if max_colors < 1:
        raise InputError(f"max_colors must be >= 1, got {max_colors}")
    areas = adj.area_ids
    n_areas = len(areas)
    q = len(_greedy_clique(adj.touches))
    for k in range(max(1, q), max_colors + 1):
        outcome = branch_bound.solve_mip(build_coloring(adj, k))
        if outcome.x is not None:  # a coloring found settles k, whatever else is left open
            assignment = {}
            for color in range(k):
                for i, area in enumerate(areas):
                    if outcome.x[color * n_areas + i] > 0.5:
                        assignment[area] = color
            return MinColorsResult(Status.OPTIMAL, colors=k, assignment=assignment)
        if outcome.status is not Status.INFEASIBLE:
            return MinColorsResult(outcome.status)
    return MinColorsResult(Status.INFEASIBLE)


def build_service_coverage(d: DistanceMatrix, p: int) -> MipProblem:
    """Open exactly p servers among the candidate columns and assign every
    demand row to exactly one open server, minimizing total distance."""
    n_demand = len(d.from_ids)
    m_cand = len(d.to_ids)
    _check_p(p, m_cand)
    n_y = n_demand * m_cand  # Y_ij at j * n_demand + i (candidate-major blocks)
    n = n_y + m_cand

    A_eq = np.zeros((n_demand + 1, n))
    A_eq[:n_demand, :n_y] = np.tile(np.eye(n_demand), m_cand)  # each demand served once
    A_eq[n_demand, n_y:] = 1.0  # exactly p servers open
    A_ub = np.zeros((n_y, n))  # linking: Y_ij <= X_j, in Y order
    A_ub[:, :n_y] = np.eye(n_y)
    A_ub[np.arange(n_y), n_y + np.arange(n_y) // n_demand] = -1.0
    c = np.zeros(n)
    c[:n_y] = d.d.T.ravel()
    base = LinearProgram(c, A_eq, [1.0] * n_demand + [float(p)], A_ub, np.zeros(n_y))
    names = [
        f"Y{d.from_ids[i]}{d.to_ids[j]}" for j in range(m_cand) for i in range(n_demand)
    ] + [f"X{c}" for c in d.to_ids]
    return MipProblem(base=base, kinds=[VarKind.BINARY] * n, names=names)


def build_transportation(cost: DistanceMatrix, demand, capacity) -> MipProblem:
    """Integer shipments X_ij meeting every store's demand exactly, with one
    capacity per supplier capping its row (a design capacity is the total
    demand for each supplier)."""
    demand, capacity, meet, supply, pairs = _shipments(cost, demand, capacity, "supplier")
    base = LinearProgram(cost.d.ravel(), meet, demand, supply, capacity)
    names = [f"X{f}{t}" for f, t in pairs]
    return MipProblem(base=base, kinds=[VarKind.INTEGER] * len(pairs), names=names)


def build_max_flow(net: Network, s, t, sink_cap: float | None = None) -> MipProblem:
    """Continuous arc flows, capacity bounds, conservation at every
    intermediate node, maximizing total flow out of the source. An optional
    sink_cap caps the total flow into the sink."""
    _check_endpoints(net, s, t)
    if sink_cap is not None and not 0 <= sink_cap < math.inf:
        raise InputError(f"sink_cap must be finite and non-negative, got {sink_cap:g}")
    arcs = net.arcs
    inc = net.incidence
    inner = [k for k, node in enumerate(net.node_ids) if node not in (s, t)]
    A_ub = b_ub = None
    if sink_cap is not None:  # total flow into the sink
        A_ub = inc[[net.node_ids.index(t)]] > 0
        b_ub = [float(sink_cap)]
    base = LinearProgram(
        [1.0 if tail == s else 0.0 for tail, _, _, _ in arcs],
        inc[inner],
        np.zeros(len(inner)),
        A_ub,
        b_ub,
        hi=[cap for _, _, _, cap in arcs],
        direction="max",
    )
    return MipProblem(
        base=base,
        kinds=[VarKind.CONTINUOUS] * len(arcs),
        names=[f"X{tail}{head}" for tail, head, _, _ in arcs],
    )


def build_facility_location(unit_cost: DistanceMatrix, fixed_cost, demand, capacity) -> MipProblem:
    """Open/close binaries X_i with linking rows sum_j Y_ij <= u_i X_i,
    minimizing unit shipping plus fixed operating cost.

    Facilities with identical costs tie, so the optimal shipment split among
    them need not be unique; the solvers return one optimal basic solution
    and do not specify which one.
    """
    demand, capacity, meet, supply, pairs = _shipments(unit_cost, demand, capacity, "facility")
    n_fac = len(unit_cost.from_ids)
    fixed_cost = [float(f) for f in fixed_cost]
    if len(fixed_cost) != n_fac:
        raise InputError("one fixed cost per facility required")
    _check_amounts(fixed_cost, unit_cost.from_ids, "fixed cost of facility")
    if sum(capacity) < sum(demand):
        raise InputError("total capacity below total demand")
    n_y = len(pairs)  # Y_ij, then X_i
    A_eq = np.hstack([meet, np.zeros((len(demand), n_fac))])  # each store's demand met
    # linking: sum_j Y_ij - u_i X_i <= 0
    A_ub = np.hstack([supply, np.diag([-u for u in capacity])])
    c = np.concatenate([unit_cost.d.ravel(), fixed_cost])
    base = LinearProgram(c, A_eq, demand, A_ub, np.zeros(n_fac))
    names = [f"Y{f}{t}" for f, t in pairs] + [f"X{f}" for f in unit_cost.from_ids]
    kinds = [VarKind.INTEGER] * n_y + [VarKind.BINARY] * n_fac
    return MipProblem(base=base, kinds=kinds, names=names)
