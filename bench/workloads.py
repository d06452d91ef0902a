"""Inputs of the three workloads, built with the standard library alone.

The worker (which imports pftopt) and the oracle (which never does) both call
these functions, so each side rebuilds the same instances on its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("tour-bnb", "pmedian-lp", "paper-exercises")

# Every run measures whole passes over its workload's operation list. Two
# passes give at least 40 operations, so op_s.tail has 10 samples beyond it.
MIN_PASSES = 2
# Seconds one untraced pass takes on the reference machine (README.md). They
# turn --seconds into a number of passes without reading a clock, so a run's
# work depends only on its arguments.
REFERENCE_PASS_S = {"tour-bnb": 25.0, "pmedian-lp": 12.0, "paper-exercises": 7.5}

# The instance lists are fixed; --seed sets the order of the operations in a
# pass. Drawing the instances from --seed swings the work of a run far more
# than the machine does: criterion-8 tours from Random(1) took over 200 s a
# pass against 25 s, and two seeded p-median lists differed by 13 % in
# ops_per_s (README.md).
CRITERION_8_SEED = 20260826  # acceptance criterion 8 in tests/test_acceptance.py
PMEDIAN_SEED = 1


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / REFERENCE_PASS_S[workload]))


def order(seed: int, count: int) -> list[int]:
    """The seeded order in which a pass visits the operations."""
    idx = list(range(count))
    random.Random(seed).shuffle(idx)
    return idx


# --- tour-bnb ---------------------------------------------------------------


@dataclass(frozen=True)
class TourInstance:
    n: int
    d: tuple  # symmetric n x n, zero diagonal
    forced: tuple  # (i, j), 1-based cities, pinned in the variant


def tour_instances(seed: int = CRITERION_8_SEED) -> list[TourInstance]:
    """The acceptance-criterion-8 generator: ten symmetric tours, n = 4..8,
    each with one arc to force, drawn in the same order as the test draws
    them."""
    rng = random.Random(seed)
    out = []
    for _ in range(10):
        n = rng.randint(4, 8)
        d = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d[i][j] = d[j][i] = float(rng.randint(1, 99))
        i0, j0 = rng.sample(range(n), 2)
        out.append(TourInstance(n, tuple(map(tuple, d)), (i0 + 1, j0 + 1)))
    return out


def tour_ops() -> list[tuple[str, int, bool]]:
    """(key, instance index, forced?) for the 20 solves of one pass."""
    return [
        (f"tour{k}{'-forced' if forced else ''}", k, forced)
        for k in range(10)
        for forced in (False, True)
    ]


# --- pmedian-lp -------------------------------------------------------------

# Four instances for each of five sizes; every one solves at its root LP.
PMEDIAN_SHAPES = tuple((n, p) for n in (11, 12, 13, 14, 15) for p in (3, 4, 3, 4))


@dataclass(frozen=True)
class PmedianInstance:
    n: int  # demand points = candidate sites
    p: int  # servers to open
    d: tuple  # integer distances, d[i][j] from demand i to site j


def pmedian_instances(seed: int = PMEDIAN_SEED) -> list[PmedianInstance]:
    """Points on a 1000 x 1000 grid; distances are rounded Euclidean."""
    rng = random.Random(seed)
    out = []
    for n, p in PMEDIAN_SHAPES:
        pts = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(n)]
        d = tuple(tuple(float(round(math.dist(a, b))) for b in pts) for a in pts)
        out.append(PmedianInstance(n, p, d))
    return out


def pmedian_pft(inst: PmedianInstance) -> str:
    """The p-median model as a PFT v1 table with variables Y<i>_<j> (demand i
    served by site j) and X<j> (site j open)."""
    n, p = inst.n, inst.p
    cons = [f"D{i}" for i in range(1, n + 1)] + ["P"]
    cons += [f"L{i}_{j}" for j in range(1, n + 1) for i in range(1, n + 1)]
    col = {name: k for k, name in enumerate(cons)}
    lines = [f"#PFT v1 dir=min title=p-median n={n} p={p}", "var,kind," + ",".join(cons) + ",obj"]
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            cells = [""] * len(cons)
            cells[col[f"D{i}"]] = "1"
            cells[col[f"L{i}_{j}"]] = "1"
            lines.append(f"Y{i}_{j},B," + ",".join(cells) + f",{inst.d[i - 1][j - 1]:g}")
    for j in range(1, n + 1):
        cells = [""] * len(cons)
        cells[col["P"]] = "1"
        for i in range(1, n + 1):
            cells[col[f"L{i}_{j}"]] = "-1"
        lines.append(f"X{j},B," + ",".join(cells) + ",0")
    lines.append("@sense,," + ",".join(["eq"] * (n + 1) + ["le"] * (n * n)) + ",")
    lines.append("@rhs,," + ",".join(["1"] * n + [str(p)] + ["0"] * (n * n)) + ",")
    return "\n".join(lines) + "\n"


# --- paper-exercises --------------------------------------------------------

# The paper's small exercises that the CLI reads from CSVs: the same data as
# tests/test_cli.py, plus a six-city tour and a nine-point service model.
TRANSPORT_COST = (("A", (2, 4, 5, 2, 1)), ("B", (3, 1, 3, 2, 3)))
TRANSPORT_DEMAND = (500, 900, 1800, 200, 700)
TRANSPORT_CAPACITY = (1000, 3200)
FACILITY_UNIT = ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5), (5, 4, 3, 2, 1))
FACILITY_DEMAND = (10, 20, 30, 40, 50)
FACILITY_CAPACITY = (60, 10, 50, 55)
FACILITY_FIXED = (20, 30, 20, 30)
TOUR_POINTS = ((0, 0), (4, 1), (7, 5), (3, 8), (-2, 6), (1, 3))
SERVICE_POINTS = ((0, 0), (2, 1), (9, 2), (10, 0), (5, 8), (4, 9), (8, 9), (1, 6), (6, 4))
SERVICE_OPEN = 2
COVER_COSTS = (3, 1, 2, 2, 1, 3, 2, 1, 2, 3, 1)


def tour_matrix() -> list[list[float]]:
    return [[float(round(math.dist(a, b))) for b in TOUR_POINTS] for a in TOUR_POINTS]


def service_matrix() -> list[list[float]]:
    return [[float(round(math.dist(a, b))) for b in SERVICE_POINTS] for a in SERVICE_POINTS]


def _linear_csv(header: str, rows) -> str:
    return header + "\n" + "".join(f"{a},{b},{v:g}\n" for a, b, v in rows)


def write_paper_inputs(workdir: Path) -> None:
    """The CSVs the exercises read that tests/fixtures does not ship."""
    n = len(TOUR_POINTS)
    tour = tour_matrix()
    (workdir / "tour.csv").write_text(_linear_csv(
        "from,to,dist",
        ((i + 1, j + 1, tour[i][j]) for i in range(n) for j in range(n))))
    m = len(SERVICE_POINTS)
    service = service_matrix()
    (workdir / "service.csv").write_text(_linear_csv(
        "demand,candidate,distance",
        ((i + 1, j + 1, service[i][j]) for i in range(m) for j in range(m))))
    (workdir / "transport.csv").write_text(_linear_csv(
        "from,to,cost",
        ((s, j + 1, c) for s, costs in TRANSPORT_COST for j, c in enumerate(costs))))
    (workdir / "facility.csv").write_text(_linear_csv(
        "facility,store,cost",
        ((i + 1, j + 1, c) for i, costs in enumerate(FACILITY_UNIT) for j, c in enumerate(costs))))


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def paper_ops(fixtures: Path, workdir: Path) -> list[tuple[str, list[str]]]:
    """(key, argv) for one pass: every subcommand of the CLI."""
    f = {name: str(fixtures / name) for name in (
        "shortest_path.pft.csv", "transport_two_warehouse.pft.csv",
        "warehouse_siting.pft.csv", "maxflow_seven_node.pft.csv",
        "intercity_road.net.csv", "intercity_geodesic.net.csv",
        "capacitated.net.csv", "neighborhoods.gal", "demo.gal")}
    w = {name: str(workdir / name) for name in (
        "tour.csv", "service.csv", "transport.csv", "facility.csv", "colors.csv")}
    det = ["--deterministic"]
    ops = []
    for name in ("shortest_path", "transport_two_warehouse", "warehouse_siting",
                 "maxflow_seven_node"):
        path = f[f"{name}.pft.csv"]
        as_json = ["--json"] if name == "transport_two_warehouse" else []
        ops.append((f"solve:{name}", ["solve", "--pft", path] + as_json + det))
        ops.append((f"audit:{name}", ["audit", "--pft", path, "--json"]))
    net = ["--source", "1", "--sink", "7"]
    ops += [
        ("shortest-path:road", ["shortest-path", "--net", f["intercity_road.net.csv"]] + net + det),
        ("shortest-path:geodesic",
         ["shortest-path", "--net", f["intercity_geodesic.net.csv"]] + net + det),
        ("maxflow", ["maxflow", "--net", f["capacitated.net.csv"]] + net + det),
        ("maxflow:sink-cap",
         ["maxflow", "--net", f["capacitated.net.csv"]] + net + ["--sink-cap", "5"] + det),
        ("flow-capture",
         ["flow-capture", "--net", f["intercity_road.net.csv"]] + net + ["--placements", "2"] + det),
        ("tour", ["tour", "--dist", w["tour.csv"]] + det),
        ("tour:forced", ["tour", "--dist", w["tour.csv"], "--force-arc", "1,3"] + det),
        ("cover", ["cover", "--gal", f["neighborhoods.gal"]] + det),
        ("cover:cost", ["cover", "--gal", f["neighborhoods.gal"], "--cost", _csv_list(COVER_COSTS)]
         + det),
        ("color:neighborhoods", ["color", "--gal", f["neighborhoods.gal"], "--max-colors", "4"]
         + det),
        ("color:demo-out", ["color", "--gal", f["demo.gal"], "--max-colors", "3",
                            "--out", w["colors.csv"]] + det),
        ("color:demo-one", ["color", "--gal", f["demo.gal"], "--max-colors", "1"] + det),
        ("service", ["service", "--dist", w["service.csv"], "--open", str(SERVICE_OPEN)] + det),
        ("transport:fixed", ["transport", "--cost", w["transport.csv"],
                             "--demand", _csv_list(TRANSPORT_DEMAND),
                             "--capacity", _csv_list(TRANSPORT_CAPACITY)] + det),
        ("transport:design", ["transport", "--cost", w["transport.csv"],
                              "--demand", _csv_list(TRANSPORT_DEMAND),
                              "--design-capacity", "--json"] + det),
        ("facility", ["facility", "--cost", w["facility.csv"],
                      "--demand", _csv_list(FACILITY_DEMAND),
                      "--capacity", _csv_list(FACILITY_CAPACITY),
                      "--fixed", _csv_list(FACILITY_FIXED)] + det),
    ]
    return ops
