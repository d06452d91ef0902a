"""Builders that turn networks, distance matrices, and adjacency structures
into solvable mixed-integer problems.

Each builder is a pure function returning a MipProblem and never calls the
solver; only `min_colors` solves, one coloring model per color count. A
builder fills dense numpy blocks (objective, equality rows, <= rows, bounds)
and hands them to `LinearProgram`, which copies and checks them once.
Distances come in as the checked array of a `DistanceMatrix`, indexed
directly. Bounds default to [0, inf); builders state only other bounds, and
`MipProblem` clamps binary variables into [0, 1]. Variable names concatenate
the ids of the underlying formulations (arc variables "X<i><j>", assignment
variables "Y<i><j>", placement variables "X<j>"), so multi-digit ids can
collide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .branch_bound import MipProblem, VarKind
from .linprog import LinearProgram

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
    math.inf for uncapacitated arcs."""

    node_ids: tuple
    arcs: tuple  # of (tail, head, weight, capacity)

    def __post_init__(self) -> None:
        nodes = tuple(self.node_ids)
        if len(set(nodes)) != len(nodes):
            raise InputError("duplicate node ids")
        node_set = set(nodes)
        seen = set()
        arcs = []
        for tail, head, weight, capacity in self.arcs:
            if tail not in node_set or head not in node_set:
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
        object.__setattr__(self, "node_ids", nodes)
        object.__setattr__(self, "arcs", tuple(arcs))


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
    area_ids: tuple
    pairs: frozenset  # of frozenset({a, b}) boundary pairs

    def __post_init__(self) -> None:
        areas = tuple(self.area_ids)
        if len(set(areas)) != len(areas):
            raise InputError("duplicate area ids")
        area_set = set(areas)
        norm = set()
        for pair in map(frozenset, self.pairs):
            if len(pair) != 2:
                raise InputError(f"pair {set(pair)} must name two distinct areas")
            a, b = pair
            if a not in area_set or b not in area_set:
                raise InputError(f"pair ({a}, {b}) references an unknown area")
            norm.add(pair)
        object.__setattr__(self, "area_ids", areas)
        object.__setattr__(self, "pairs", frozenset(norm))

    def neighbors(self, area) -> list:
        out = [b for pair in self.pairs for b in pair if area in pair and b != area]
        order = {a: i for i, a in enumerate(self.area_ids)}
        return sorted(set(out), key=order.__getitem__)


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


def _incidence(net: Network) -> np.ndarray:
    """Node-arc incidence, one row per node in node_ids order: +1 where an
    arc enters the node, -1 where it leaves."""
    row = {node: k for k, node in enumerate(net.node_ids)}
    inc = np.zeros((len(net.node_ids), len(net.arcs)))
    for idx, (tail, head, _, _) in enumerate(net.arcs):
        inc[row[head], idx] = 1.0
        inc[row[tail], idx] = -1.0
    return inc


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
    inc = _incidence(net)
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


def _tour_arc_names(n: int) -> list[tuple]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


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
    arc_pairs = _tour_arc_names(n)
    n_arcs = len(arc_pairs)
    n_total = n_arcs + n  # arcs then u_1..u_N
    arcs = np.arange(n_arcs)
    tails = np.array([i for i, _ in arc_pairs]) - 1
    heads = np.array([j for _, j in arc_pairs]) - 1

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
    names = [f"X{ids[i - 1]}{ids[j - 1]}" for i, j in arc_pairs]
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
    index = {a: i for i, a in enumerate(areas)}
    covers = np.eye(n)  # row: the area's closed neighborhood
    for pair in adj.pairs:
        a, b = (index[area] for area in pair)
        covers[a, b] = covers[b, a] = 1.0
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

    def dfs(node) -> None:
        if node == t:
            paths.append(tuple(stack))
            return
        for head in out_arcs.get(node, ()):
            if head in on_path:
                continue
            stack.append(head)
            on_path.add(head)
            dfs(head)
            stack.pop()
            on_path.discard(head)

    dfs(s)
    if flows is None:
        flows = [
            min(weight[(p[k], p[k + 1])] for k in range(len(p) - 1)) for p in paths
        ]
    elif len(tuple(flows)) != len(paths):
        raise InputError("override flows must match the path count")
    return PathSet(source=s, sink=t, paths=tuple(paths), flow=tuple(flows))


def build_flow_capture(ps: PathSet, candidates, p: int) -> MipProblem:
    """Place p facilities on candidate nodes to maximize the captured path
    flow; a path counts iff at least one placed node lies on it."""
    candidates = tuple(candidates)
    if p < 0:
        raise InputError(f"p must be >= 0, got {p}")
    if p > len(candidates):
        raise InputError("p exceeds the candidate count")
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
    color. Variables are laid out in per-color blocks (x[k*N + i])."""
    if colors < 1:
        raise InputError("need at least one color")
    areas = adj.area_ids
    n_areas = len(areas)
    n = n_areas * colors
    index = {a: i for i, a in enumerate(areas)}
    edges = sorted(sorted(index[a] for a in pair) for pair in adj.pairs)
    ends = np.zeros((len(edges), n_areas))  # row: the two areas of a boundary pair
    for e, (a, b) in enumerate(edges):
        ends[e, a] = ends[e, b] = 1.0
    base = LinearProgram(
        np.ones(n),
        np.tile(np.eye(n_areas), colors),  # one color per area
        np.ones(n_areas),
        np.kron(np.eye(colors), ends),  # per color: a pair never shares it
        np.ones(colors * len(edges)),
    )
    return MipProblem(
        base=base,
        kinds=[VarKind.BINARY] * n,
        names=[f"{areas[i]}_{k}" for k in range(colors) for i in range(n_areas)],
    )


@dataclass(frozen=True)
class MinColorsResult:
    colors: int | None  # None when no count up to max_colors works
    assignment: dict = field(default_factory=dict)  # area -> color index (0-based)


def min_colors(adj: AdjacencySet, max_colors: int) -> MinColorsResult:
    """Smallest feasible color count in 1..max_colors by ascending scan."""
    from .branch_bound import solve_mip  # looked up per call, so a rebinding takes effect
    from .linprog import Status

    if max_colors < 1:
        raise InputError(f"max_colors must be >= 1, got {max_colors}")
    areas = adj.area_ids
    n_areas = len(areas)
    for k in range(1, max_colors + 1):
        outcome = solve_mip(build_coloring(adj, k))
        if outcome.status is Status.OPTIMAL:
            assignment = {}
            for color in range(k):
                for i, area in enumerate(areas):
                    if outcome.x[color * n_areas + i] > 0.5:
                        assignment[area] = color
            return MinColorsResult(colors=k, assignment=assignment)
    return MinColorsResult(colors=None)


def build_service_coverage(d: DistanceMatrix, p: int) -> MipProblem:
    """Open exactly p servers among the candidate columns and assign every
    demand row to exactly one open server, minimizing total distance."""
    n_demand = len(d.from_ids)
    m_cand = len(d.to_ids)
    if p < 0:
        raise InputError(f"p must be >= 0, got {p}")
    if p > m_cand:
        raise InputError("p exceeds the candidate count")
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
    m_sup = len(cost.from_ids)
    n_dem = len(cost.to_ids)
    demand = [float(v) for v in demand]
    capacity = [float(u) for u in capacity]
    if len(demand) != n_dem:
        raise InputError("one demand per store required")
    _check_amounts(demand, cost.to_ids, "demand of store")
    if len(capacity) != m_sup:
        raise InputError("one capacity per supplier required")
    _check_amounts(capacity, cost.from_ids, "capacity of supplier")
    # X_ij at i * n_dem + j; demand rows meet each store, supply rows cap each supplier.
    base = LinearProgram(
        cost.d.ravel(),
        np.tile(np.eye(n_dem), m_sup),
        demand,
        np.kron(np.eye(m_sup), np.ones((1, n_dem))),
        capacity,
    )
    names = [
        f"X{cost.from_ids[i]}{cost.to_ids[j]}" for i in range(m_sup) for j in range(n_dem)
    ]
    return MipProblem(base=base, kinds=[VarKind.INTEGER] * (m_sup * n_dem), names=names)


def build_max_flow(net: Network, s, t, sink_cap: float | None = None) -> MipProblem:
    """Continuous arc flows, capacity bounds, conservation at every
    intermediate node, maximizing total flow out of the source. An optional
    sink_cap caps the total flow into the sink."""
    _check_endpoints(net, s, t)
    if sink_cap is not None and not 0 <= sink_cap < math.inf:
        raise InputError(f"sink_cap must be finite and non-negative, got {sink_cap:g}")
    arcs = net.arcs
    inc = _incidence(net)
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
    n_fac = len(unit_cost.from_ids)
    m_store = len(unit_cost.to_ids)
    fixed_cost = [float(f) for f in fixed_cost]
    demand = [float(v) for v in demand]
    capacity = [float(u) for u in capacity]
    if len(fixed_cost) != n_fac or len(capacity) != n_fac:
        raise InputError("one fixed cost and capacity per facility required")
    if len(demand) != m_store:
        raise InputError("one demand per store required")
    _check_amounts(demand, unit_cost.to_ids, "demand of store")
    _check_amounts(capacity, unit_cost.from_ids, "capacity of facility")
    _check_amounts(fixed_cost, unit_cost.from_ids, "fixed cost of facility")
    if sum(capacity) < sum(demand):
        raise InputError("total capacity below total demand")
    n_y = n_fac * m_store  # Y_ij at i * m_store + j, then X_i
    n = n_y + n_fac

    A_eq = np.zeros((m_store, n))
    A_eq[:, :n_y] = np.tile(np.eye(m_store), n_fac)  # each store's demand met
    A_ub = np.zeros((n_fac, n))  # linking: sum_j Y_ij - u_i X_i <= 0
    A_ub[:, :n_y] = np.kron(np.eye(n_fac), np.ones((1, m_store)))
    A_ub[np.arange(n_fac), n_y + np.arange(n_fac)] = [-u for u in capacity]
    c = np.concatenate([unit_cost.d.ravel(), fixed_cost])
    base = LinearProgram(c, A_eq, demand, A_ub, np.zeros(n_fac))
    names = [
        f"Y{unit_cost.from_ids[i]}{unit_cost.to_ids[j]}"
        for i in range(n_fac)
        for j in range(m_store)
    ] + [f"X{f}" for f in unit_cost.from_ids]
    kinds = [VarKind.INTEGER] * n_y + [VarKind.BINARY] * n_fac
    return MipProblem(base=base, kinds=kinds, names=names)
