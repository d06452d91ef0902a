"""Acceptance suite: one test per release criterion.

Every test records a single ``ACCEPTANCE`` pass/fail line (replayed by the
terminal-summary hook in conftest so pytest capture cannot hide it) and then
asserts each of its sub-checks so a failure pinpoints the criterion involved.
"""

import math
import random

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from model_oracles import (
    capture_oracle,
    chromatic_oracle,
    cover_oracle,
    criterion_8_tours,
    network,
    selected,
    service_oracle,
    tour_oracle,
)

from pftopt import models
from pftopt.branch_bound import solve_mip
from pftopt.linprog import LinearProgram, Status, solve_lp
from pftopt.models import (
    AdjacencySet,
    DistanceMatrix,
    InputError,
    PathSet,
)
from pftopt.pft import compile_pft, parse_pft, render_pft
from pftopt.spatial import DistanceCsvError, parse_distance_matrix, parse_gal

ROAD = {
    (1, 2): 688, (1, 3): 373, (1, 4): 1016, (2, 4): 519, (2, 5): 1066,
    (3, 4): 821, (3, 6): 1065, (4, 5): 671, (4, 6): 794, (4, 7): 851,
    (5, 7): 349, (6, 7): 631,
}
CAPACITIES = {
    (1, 2): 5, (1, 3): 3, (1, 4): 2, (2, 4): 5, (2, 5): 3, (3, 4): 5,
    (3, 6): 3, (4, 5): 1, (4, 6): 3, (4, 7): 4, (5, 7): 5, (6, 7): 1,
}
BOUNDARY_PAIRS = [
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (3, 6), (4, 6),
    (4, 7), (5, 6), (5, 8), (5, 9), (6, 7), (6, 8), (7, 8), (8, 9), (8, 10),
    (9, 10), (9, 11), (10, 11),
]
ROUTES = [
    ((1, 2, 5, 7), 4), ((1, 2, 4, 5, 7), 1), ((1, 4, 5, 7), 1), ((1, 4, 7), 1),
    ((1, 4, 6, 7), 1), ((1, 3, 4, 5, 7), 1), ((1, 3, 4, 7), 1),
    ((1, 3, 4, 6, 7), 1), ((1, 3, 6, 7), 4),
]
SHIP_COST = ((2, 4, 5, 2, 1), (3, 1, 3, 2, 3))
STORE_DEMAND = (500, 900, 1800, 200, 700)
FACILITY_UNIT = ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5), (5, 4, 3, 2, 1))
FACILITY_FIXED = (20, 30, 20, 30)
FACILITY_DEMAND = (10, 20, 30, 40, 50)
FACILITY_CAPACITY = (60, 10, 50, 55)
# Reference split with warehouse 1 at its 60-unit capacity: one end of the
# tied optimal face (warehouse 1 may ship anywhere in [45, 60] at cost 410).
FACILITY_WITNESS = {
    "Y11": 10, "Y12": 20, "Y13": 30, "Y34": 35, "Y44": 5, "Y45": 50,
    "X1": 1, "X3": 1, "X4": 1,
}

PFT_FIXTURES = (
    "shortest_path.pft.csv",
    "transport_two_warehouse.pft.csv",
    "maxflow_seven_node.pft.csv",
    "warehouse_siting.pft.csv",
)


def _report(number: int, label: str, checks) -> None:
    """Record the criterion's pass/fail line, then assert each sub-check."""
    ok = all(passed for _, passed in checks)
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE criterion {number:2d} ({label}): {verdict}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    for name, passed in checks:
        assert passed, f"criterion {number} sub-check failed: {name}"


def _values(mip, out):
    return dict(zip(mip.names, out.x))


def test_criterion_1_shortest_path():
    mip = models.build_shortest_path(network(ROAD), 1, 7)
    out = solve_mip(mip)
    _report(1, "shortest path", [
        ("status Optimal", out.status is Status.OPTIMAL),
        ("objective exactly 1867", round(out.objective_value) == 1867
         and abs(out.objective_value - 1867.0) < 1e-9),
        ("selected arcs {X14, X47}", selected(mip, out) == {"X14", "X47"}),
    ])


def test_criterion_2_flow_capture():
    ps = PathSet(
        source=1,
        sink=7,
        paths=tuple(path for path, _ in ROUTES),
        flow=tuple(flow for _, flow in ROUTES),
    )
    candidates = (2, 3, 4, 5, 6)
    checks = []
    mip3 = models.build_flow_capture(ps, candidates, 3)
    out3 = solve_mip(mip3)
    checks.append(("p=3 objective 15", out3.status is Status.OPTIMAL
                   and abs(out3.objective_value - 15.0) < 1e-9))
    checks.append(("p=3 placements {X2, X3, X4}",
                   selected(mip3, out3, "X") == {"X2", "X3", "X4"}))
    out4 = solve_mip(models.build_flow_capture(ps, candidates, 4))
    checks.append(("p=4 objective 15", abs(out4.objective_value - 15.0) < 1e-9))
    out2 = solve_mip(models.build_flow_capture(ps, candidates, 2))
    oracle2 = capture_oracle(ROUTES, candidates, 2)
    checks.append(("p=2 strictly below 15", out2.objective_value < 15.0 - 1e-9))
    checks.append(("p=2 equals C(5,2) oracle",
                   abs(out2.objective_value - oracle2) < 1e-9))
    _report(2, "flow capturing", checks)


def test_criterion_3_set_cover():
    adj = AdjacencySet(
        area_ids=tuple(range(1, 12)),
        pairs=frozenset(frozenset(p) for p in BOUNDARY_PAIRS),
    )
    closed = {a: {a, *adj.neighbors(a)} for a in adj.area_ids}
    checks = []
    uniform = solve_mip(models.build_set_cover(adj, [1.0] * 11))
    checks.append(("uniform objective 3", uniform.status is Status.OPTIMAL
                   and abs(uniform.objective_value - 3.0) < 1e-9))
    costs = [2.0 if a in (1, 4, 7) else 1.0 for a in adj.area_ids]
    mip = models.build_set_cover(adj, costs)
    out = solve_mip(mip)
    checks.append(("waterfront exactly 3 placements",
                   len(selected(mip, out)) == 3))
    oracle = cover_oracle(adj.area_ids, closed, costs)
    checks.append(("waterfront cost equals brute force",
                   abs(out.objective_value - oracle) < 1e-9))
    _report(3, "set covering", checks)


def test_criterion_4_coloring():
    adj = AdjacencySet(
        area_ids=tuple(range(1, 12)),
        pairs=frozenset(frozenset(p) for p in BOUNDARY_PAIRS),
    )
    checks = []
    four = solve_mip(models.build_coloring(adj, 4))
    checks.append(("K=4 feasible", four.status is Status.OPTIMAL))
    result = models.min_colors(adj, 11)
    oracle = chromatic_oracle(adj.area_ids, BOUNDARY_PAIRS)
    checks.append(("min_colors matches backtracking oracle",
                   result.colors is not None and result.colors == oracle))
    one = solve_mip(models.build_coloring(adj, 1))
    checks.append(("K=1 infeasible", one.status is Status.INFEASIBLE))
    _report(4, "coloring", checks)


def test_criterion_5_transportation():
    cost = DistanceMatrix(from_ids=("A", "B"), to_ids=(1, 2, 3, 4, 5), d=SHIP_COST)
    checks = []
    fixed = solve_mip(
        models.build_transportation(cost, STORE_DEMAND, (1000, 3200))
    )
    checks.append(("fixed capacity objective 8600",
                   fixed.status is Status.OPTIMAL
                   and abs(fixed.objective_value - 8600.0) < 1e-9))
    mip = models.build_transportation(cost, STORE_DEMAND, [sum(STORE_DEMAND)] * 2)
    out = solve_mip(mip)
    checks.append(("design objective 8400",
                   out.status is Status.OPTIMAL
                   and abs(out.objective_value - 8400.0) < 1e-9))
    shipped = {
        w: sum(v for name, v in _values(mip, out).items() if name.startswith(f"X{w}"))
        for w in ("A", "B")
    }
    checks.append(("design shipped totals (1400, 2700)",
                   abs(shipped["A"] - 1400.0) < 1e-9
                   and abs(shipped["B"] - 2700.0) < 1e-9))
    _report(5, "transportation", checks)


def test_criterion_6_max_flow():
    net = network({arc: 1.0 for arc in CAPACITIES}, CAPACITIES)
    mip = models.build_max_flow(net, 1, 7)
    out = solve_mip(mip)
    checks = [
        ("objective exactly 9", out.status is Status.OPTIMAL
         and abs(out.objective_value - 9.0) < 1e-9),
    ]
    values = _values(mip, out)
    worst = 0.0
    for node in range(2, 7):
        inflow = sum(values[f"X{t}{h}"] for t, h in CAPACITIES if h == node)
        outflow = sum(values[f"X{t}{h}"] for t, h in CAPACITIES if t == node)
        worst = max(worst, abs(inflow - outflow))
    checks.append(("conservation residuals within 1e-7", worst <= 1e-7))
    _report(6, "max flow", checks)


def _shipped(values):
    return {
        i: sum(v for name, v in values.items() if name.startswith(f"Y{i}"))
        for i in (1, 2, 3, 4)
    }


def _split_checks(shipped):
    """Linking-row facts that every optimum of the facility instance shares.

    Warehouses 1 and 3 have identical unit and fixed costs, so any split of
    the 95 units warehouse 4 cannot cover is optimal and no particular split
    is pinned. Every optimum keeps each linking row, ships 150 - 55 = 95
    from the pair, and ships nothing from closed warehouse 2.
    """
    return [
        ("warehouse-1 linking row holds (ships <= 60)", shipped[1] <= 60.0 + 1e-9),
        ("warehouse-3 linking row holds (ships <= 50)", shipped[3] <= 50.0 + 1e-9),
        ("warehouses 1 and 3 ship 95 together",
         abs(shipped[1] + shipped[3] - 95.0) < 1e-9),
        ("closed warehouse 2 ships 0", abs(shipped[2]) < 1e-9),
    ]


def _split_ok(shipped):
    return all(passed for _, passed in _split_checks(shipped))


def test_criterion_7_facility_location():
    cost = DistanceMatrix(
        from_ids=(1, 2, 3, 4), to_ids=(1, 2, 3, 4, 5), d=FACILITY_UNIT
    )
    mip = models.build_facility_location(
        cost, FACILITY_FIXED, FACILITY_DEMAND, FACILITY_CAPACITY
    )
    out = solve_mip(mip)
    values = _values(mip, out)
    checks = [
        ("objective exactly 410", out.status is Status.OPTIMAL
         and abs(out.objective_value - 410.0) < 1e-9),
        ("open pattern X = (1, 0, 1, 1)",
         [round(values[f"X{i}"]) for i in (1, 2, 3, 4)] == [1, 0, 1, 1]),
    ]
    shipped = _shipped(values)
    received = {
        j: sum(values[f"Y{i}{j}"] for i in (1, 2, 3, 4)) for j in (1, 2, 3, 4, 5)
    }
    checks.append(("demand rows satisfied exactly", all(
        abs(received[j] - FACILITY_DEMAND[j - 1]) < 1e-9 for j in (1, 2, 3, 4, 5)
    )))
    checks += _split_checks(shipped)
    checks.append(("warehouse-4 linking row tight (ships 55)",
                   abs(shipped[4] - 55.0) < 1e-9))
    witness = [float(FACILITY_WITNESS.get(name, 0)) for name in mip.names]
    witness_cost = sum(c * v for c, v in zip(mip.base.c, witness))
    checks.append(("reference split feasible at cost 410",
                   _solution_satisfies(mip, witness)
                   and abs(witness_cost - 410.0) < 1e-9))
    checks.append(("reference split passes the split checks",
                   _split_ok(_shipped(FACILITY_WITNESS))))
    checks.append(("split checks reject off-optimum shipments", not any(
        _split_ok({1: w1, 2: 0.0, 3: w3})
        for w1, w3 in ((61.0, 34.0), (45.0, 49.0), (46.0, 50.0))
    )))
    _report(7, "facility location", checks)


def test_criterion_8_tour():
    checks = []
    for trial, (d, (i0, j0)) in enumerate(criterion_8_tours()):
        n = len(d)
        ids = tuple(range(1, n + 1))
        dm = DistanceMatrix(from_ids=ids, to_ids=ids, d=d)
        mip = models.build_tour(dm)
        out = solve_mip(mip)
        checks.append((f"instance {trial} matches enumeration",
                       out.status is Status.OPTIMAL
                       and abs(out.objective_value - tour_oracle(d)) < 1e-6))
        u = sorted(
            round(v) for name, v in zip(mip.names, out.x) if name.startswith("U")
        )
        checks.append((f"instance {trial} u-values are 1..{n}",
                       u == list(range(1, n + 1))))
        forced_out = solve_mip(models.force_arc(mip, i0 + 1, j0 + 1))
        forced_oracle = tour_oracle(d, (i0, j0))
        checks.append((f"instance {trial} forced arc matches restricted enumeration",
                       abs(forced_out.objective_value - forced_oracle) < 1e-6))
    _report(8, "tour", checks)


def test_criterion_9_service_coverage():
    rng = random.Random(359)
    checks = []
    for trial in range(10):
        d = [[float(rng.randint(1, 40)) for _ in range(9)] for _ in range(9)]
        ids = tuple(range(1, 10))
        dm = DistanceMatrix(from_ids=ids, to_ids=ids, d=d)
        out = solve_mip(models.build_service_coverage(dm, 3))
        checks.append((f"instance {trial} matches C(9,3) oracle",
                       out.status is Status.OPTIMAL
                       and abs(out.objective_value - service_oracle(d, 3)) < 1e-6))
    _report(9, "service coverage", checks)


def _solution_satisfies(mip, x, tol=1e-6):
    """Re-evaluate every row, bound, and integrality condition from scratch."""
    lp = mip.base
    for coeffs, rhs in lp.eq_rows:
        if abs(sum(a * v for a, v in zip(coeffs, x)) - rhs) > tol:
            return False
    for coeffs, rhs in lp.ub_rows:
        if sum(a * v for a, v in zip(coeffs, x)) > rhs + tol:
            return False
    for lo, hi, v in zip(lp.lo, lp.hi, x):
        if v < lo - tol or v > hi + tol:
            return False
    for i in np.flatnonzero(mip.integer):
        if abs(x[i] - round(x[i])) > tol:
            return False
    return True


def test_criterion_10_solver_properties(fixtures):
    checks = []
    sign = {"min": 1.0, "max": -1.0}
    instances = [
        (name, compile_pft(parse_pft((fixtures / name).read_text())))
        for name in PFT_FIXTURES
    ]
    for name, mip in instances:
        root = solve_lp(mip.base)
        out = solve_mip(mip)
        s = sign[mip.base.direction]
        checks.append((f"{name} root bound below optimum",
                       root.status is Status.OPTIMAL
                       and out.status is Status.OPTIMAL
                       and s * root.objective_value
                       <= s * out.objective_value + 1e-7))
        checks.append((f"{name} solution passes re-evaluation",
                       _solution_satisfies(mip, out.x)))
    infeasible = solve_lp(
        LinearProgram([1.0], A_ub=[[1.0]], b_ub=[-1.0], lo=[0.0], hi=[math.inf])
    )
    checks.append(("crafted infeasible LP returns status 2",
                   infeasible.status.value == 2))
    unbounded = solve_lp(
        LinearProgram([-1.0], lo=[0.0], hi=[math.inf])
    )
    checks.append(("crafted unbounded LP returns status 3",
                   unbounded.status.value == 3))
    _report(10, "solver properties", checks)


def test_criterion_11_parsers(fixtures):
    checks = []
    for name in PFT_FIXTURES:
        text = (fixtures / name).read_text()
        pft = parse_pft(text)
        checks.append((f"{name} render/parse round-trip",
                       parse_pft(render_pft(pft)) == pft))
    weights = parse_gal((fixtures / "neighborhoods.gal").read_text())
    pairs = {
        frozenset((a, b)) for a in weights.neighbors for b in weights.neighbors[a]
    }
    checks.append(("neighborhoods.gal yields 21 unordered pairs", len(pairs) == 21))
    duplicate = "from,to,dist\n1,2,3\n1,2,4\n2,1,3\n2,2,0\n1,1,0\n"
    try:
        parse_distance_matrix(duplicate)
        checks.append(("duplicate cells rejected", False))
    except DistanceCsvError:
        checks.append(("duplicate cells rejected", True))
    gappy = "from,to,dist\n1,1,0\n1,2,3\n2,2,0\n"
    try:
        parse_distance_matrix(gappy)
        checks.append(("gaps rejected", False))
    except DistanceCsvError:
        checks.append(("gaps rejected", True))
    _report(11, "parsers", checks)
