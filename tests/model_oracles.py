"""Independent oracles and small helpers shared by the model tests.

Each oracle answers a builder's question by exhaustive search or
backtracking, with no use of the solver, so a test can compare the two.
"""

import itertools
import math

from pftopt.models import Network


def network(weights, capacities=None):
    """The seven-node network of `weights` ((tail, head) -> weight), with the
    arcs uncapacitated unless `capacities` gives each one."""
    arcs = tuple(
        (t, h, w, math.inf if capacities is None else float(capacities[(t, h)]))
        for (t, h), w in weights.items()
    )
    return Network(node_ids=tuple(range(1, 8)), arcs=arcs)


def selected(mip, out, prefix="X"):
    """Names starting with `prefix` whose value in the solution exceeds 0.5."""
    return {
        name
        for name, value in zip(mip.names, out.x)
        if name.startswith(prefix) and value > 0.5
    }


def capture_oracle(routes, candidates, p):
    """Largest flow captured by p of `candidates` over (path, flow) routes."""
    best = 0.0
    for subset in itertools.combinations(candidates, p):
        captured = sum(
            flow for path, flow in routes if set(path) & set(subset)
        )
        best = max(best, captured)
    return best


def cover_oracle(areas, closed, costs):
    """Cheapest placement set meeting every area's closed neighborhood."""
    best = math.inf
    n = len(areas)
    for mask in range(1 << n):
        picked = {areas[i] for i in range(n) if mask >> i & 1}
        if all(closed[a] & picked for a in areas):
            best = min(best, sum(costs[i] for i in range(n) if mask >> i & 1))
    return best


def chromatic_oracle(areas, pairs):
    """Smallest K admitting a proper coloring, by backtracking."""
    adjacency = {a: set() for a in areas}
    for a, b in pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    order = sorted(areas, key=lambda a: -len(adjacency[a]))

    def colorable(k):
        assigned = {}

        def place(idx):
            if idx == len(order):
                return True
            area = order[idx]
            for color in range(k):
                if all(assigned.get(nb) != color for nb in adjacency[area]):
                    assigned[area] = color
                    if place(idx + 1):
                        return True
                    del assigned[area]
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def tour_oracle(d, required_arc=None):
    """Exhaustive minimum closed-tour length for a square matrix, over the
    tours that use `required_arc` (0-based (i, j)) when one is given."""
    n = len(d)
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        arcs = [(order[i], order[(i + 1) % n]) for i in range(n)]
        if required_arc is not None and required_arc not in arcs:
            continue
        best = min(best, sum(d[a][b] for a, b in arcs))
    return best


def service_oracle(d, p):
    """Least total distance from every row to its nearest of p columns."""
    m = len(d[0])
    best = math.inf
    for subset in itertools.combinations(range(m), p):
        best = min(best, sum(min(row[j] for j in subset) for row in d))
    return best
