"""Independent answers for every operation, and the verdict on a run.

Runs in its own process after the worker has ended, so scipy and networkx
stay out of the measured process's time and memory. Nothing here imports
pftopt: brute force, networkx and scipy's HiGHS give the reference answers.

    python3 bench/oracle.py --workload W --workdir DIR
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

FIXTURES = BENCH.parent / "tests" / "fixtures"
ERROR_CODES = (1, 64, 65)  # the CLI's exit codes for errors (not for infeasible)


# --- brute force --------------------------------------------------------------


def tour_optimum(d, forced=None) -> float:
    """Shortest closed tour by enumerating every order of cities 2..n;
    forced = (i, j) keeps only tours that use arc i -> j."""
    n = len(d)
    best = math.inf
    for rest in itertools.permutations(range(2, n + 1)):
        cycle = (1,) + rest
        arcs = list(zip(cycle, cycle[1:] + (1,)))
        if forced is not None and tuple(forced) not in arcs:
            continue
        best = min(best, sum(d[i - 1][j - 1] for i, j in arcs))
    return best


def pmedian_optimum(d, p: int) -> float:
    """Enumerate every set of p open sites; each demand uses its nearest."""
    m = len(d[0])
    return min(sum(min(row[j] for j in sites) for row in d)
               for sites in itertools.combinations(range(m), p))


def read_gal(path: Path):
    """(areas, boundary pairs) of a .gal file."""
    lines = [line.split() for line in path.read_text().splitlines() if line.split()]
    count = int(lines[0][1])
    areas, pairs = [], set()
    for k in range(count):
        area, n_nb = lines[1 + 2 * k]
        areas.append(area)
        for nb in lines[2 + 2 * k][: int(n_nb)]:
            pairs.add(tuple(sorted((area, nb))))
    return areas, sorted(pairs)


def cover_optimum(areas, pairs, cost) -> float:
    closed = {a: {a} for a in areas}
    for a, b in pairs:
        closed[a].add(b)
        closed[b].add(a)
    best = math.inf
    for mask in range(1, 1 << len(areas)):
        chosen = {a for k, a in enumerate(areas) if mask >> k & 1}
        if all(closed[a] & chosen for a in areas):
            best = min(best, sum(cost[k] for k, a in enumerate(areas) if a in chosen))
    return best


def chromatic_number(areas, pairs) -> int:
    adj = {a: set() for a in areas}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)

    def colorable(k: int) -> bool:
        color: dict = {}

        def place(idx: int) -> bool:
            if idx == len(areas):
                return True
            area = areas[idx]
            for c in range(k):
                if all(color.get(nb) != c for nb in adj[area]):
                    color[area] = c
                    if place(idx + 1):
                        return True
                    del color[area]
            return False

        return place(0)

    return next(k for k in range(1, len(areas) + 1) if colorable(k))


# --- networkx -----------------------------------------------------------------


def read_net(path: Path) -> nx.DiGraph:
    g = nx.DiGraph()
    for row in list(csv.reader(io.StringIO(path.read_text())))[1:]:
        if not row:
            continue
        tail, head, weight = int(row[0]), int(row[1]), float(row[2])
        attrs = {"weight": weight}
        if len(row) > 3 and row[3].strip():
            attrs["capacity"] = float(row[3])
        g.add_edge(tail, head, **attrs)
    return g


def max_flow(g: nx.DiGraph, s, t, sink_cap=None) -> float:
    if sink_cap is not None:
        g = g.copy()
        g.add_edge(t, "sink*", capacity=sink_cap)
        t = "sink*"
    return nx.maximum_flow_value(g, s, t)


def flow_capture_optimum(g: nx.DiGraph, s, t, placements: int) -> float:
    """Paths carry the smallest arc weight on them; try every placement."""
    paths = [(set(p), min(g[a][b]["weight"] for a, b in zip(p, p[1:])))
             for p in nx.all_simple_paths(g, s, t)]
    candidates = [v for v in g.nodes if v not in (s, t)]
    return max(sum(f for nodes, f in paths if nodes & set(placed))
               for placed in itertools.combinations(candidates, placements))


# --- scipy HiGHS ------------------------------------------------------------


def highs(c, rows, lo, hi, integer, maximize=False) -> float:
    """Optimum of min/max c.x over rows (coefficient list, sense, rhs)."""
    c = np.asarray(c, dtype=float)
    cons = []
    if rows:
        A = np.array([coeffs for coeffs, _, _ in rows], dtype=float)
        rhs = np.array([b for _, _, b in rows], dtype=float)
        sense = [s for _, s, _ in rows]
        lb = np.where([s in ("eq", "ge") for s in sense], rhs, -np.inf)
        ub = np.where([s in ("eq", "le") for s in sense], rhs, np.inf)
        cons.append(LinearConstraint(A, lb, ub))
    res = milp(-c if maximize else c, constraints=cons, integrality=np.asarray(integer),
               bounds=Bounds(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return -res.fun if maximize else res.fun


def read_pft(path: Path) -> dict:
    """The PFT v1 dialect read with the csv module alone."""
    lines = path.read_text().splitlines()
    direction = lines[0].split("dir=")[1].split()[0]
    rows = [r for r in csv.reader(io.StringIO("\n".join(lines[1:]))) if r]
    header = rows[0]
    has_bounds = header[-2:] == ["lb", "ub"]
    obj = header.index("obj")
    cons = header[2:obj]
    num = lambda cell: float(cell) if cell.strip() else 0.0  # noqa: E731
    names, kinds, cost, columns, lo, hi = [], [], [], [], [], []
    senses = rhs = None
    for r in rows[1:]:
        if r[0] == "@sense":
            senses = r[2: 2 + len(cons)]
        elif r[0] == "@rhs":
            rhs = [num(cell) for cell in r[2: 2 + len(cons)]]
        else:
            names.append(r[0])
            kinds.append(r[1])
            columns.append([num(cell) for cell in r[2:obj]])
            cost.append(num(r[obj]))
            lb = r[-2].strip() if has_bounds else ""
            ub = r[-1].strip() if has_bounds else ""
            lo.append(float(lb) if lb else 0.0)
            hi.append(float(ub) if ub else (1.0 if r[1] == "B" else math.inf))
    rows_out = [([col[k] for col in columns], senses[k], rhs[k]) for k in range(len(cons))]
    return {"direction": direction, "names": names, "kinds": kinds, "cost": cost,
            "cons": cons, "rows": rows_out, "lo": lo, "hi": hi}


def pft_optimum(model: dict) -> float:
    return highs(model["cost"], model["rows"], model["lo"], model["hi"],
                 [k != "C" for k in model["kinds"]], model["direction"] == "max")


def pft_rows(model: dict):
    """The PFT's constraints and bounds in check_rows form, by variable name."""
    names = model["names"]
    rows = [({n: a for n, a in zip(names, coeffs) if a}, sense, rhs)
            for coeffs, sense, rhs in model["rows"]]
    for name, lo, hi in zip(names, model["lo"], model["hi"]):
        rows.append(({name: 1.0}, "ge", lo))
        if math.isfinite(hi):
            rows.append(({name: 1.0}, "le", hi))
    return rows


def audit_findings(model: dict) -> set:
    """The four structural audit rules, as (kind, subject) pairs."""
    found = set()
    for k, name in enumerate(model["cons"]):
        coeffs, sense, _ = model["rows"][k]
        nonzero = [a for a in coeffs if a != 0]
        if not nonzero:
            found.add(("ZeroColumn", name))
        elif len(nonzero) == 1 and nonzero[0] == 1:
            found.add(("EqColumnSingleton" if sense == "eq" else "UbRowSingleton", name))
    for i, name in enumerate(model["names"]):
        if all(coeffs[i] == 0 for coeffs, _, _ in model["rows"]):
            found.add(("ZeroRow", name))
    return found


def transport_model(design: bool):
    suppliers = [s for s, _ in workloads.TRANSPORT_COST]
    stores = range(1, len(workloads.TRANSPORT_DEMAND) + 1)
    names = [f"X{s}{j}" for s in suppliers for j in stores]
    cost = [c for _, costs in workloads.TRANSPORT_COST for c in costs]
    caps = ([sum(workloads.TRANSPORT_DEMAND)] * len(suppliers) if design
            else workloads.TRANSPORT_CAPACITY)
    rows = [({f"X{s}{j}": 1.0 for s in suppliers}, "eq", dem)
            for j, dem in zip(stores, workloads.TRANSPORT_DEMAND)]
    rows += [({f"X{s}{j}": 1.0 for j in stores}, "le", cap) for s, cap in zip(suppliers, caps)]
    return names, cost, rows, [0.0] * len(names), [math.inf] * len(names), [True] * len(names)


def facility_model():
    fac = range(1, len(workloads.FACILITY_UNIT) + 1)
    stores = range(1, len(workloads.FACILITY_DEMAND) + 1)
    names = [f"Y{i}{j}" for i in fac for j in stores] + [f"X{i}" for i in fac]
    cost = [c for costs in workloads.FACILITY_UNIT for c in costs] + list(workloads.FACILITY_FIXED)
    rows = [({f"Y{i}{j}": 1.0 for i in fac}, "eq", dem)
            for j, dem in zip(stores, workloads.FACILITY_DEMAND)]
    rows += [({**{f"Y{i}{j}": 1.0 for j in stores}, f"X{i}": -cap}, "le", 0.0)
             for i, cap in zip(fac, workloads.FACILITY_CAPACITY)]
    n_y = len(fac) * len(stores)
    hi = [math.inf] * n_y + [1.0] * len(fac)
    return names, cost, rows, [0.0] * len(names), hi, [True] * len(names)


def named_optimum(model) -> float:
    names, cost, rows, lo, hi, integer = model
    dense = [([coeffs.get(n, 0.0) for n in names], sense, rhs) for coeffs, sense, rhs in rows]
    return highs(cost, dense, lo, hi, integer)


# --- per-operation checks -----------------------------------------------------


def _solved(answer, expected_code=0) -> list[str]:
    if answer["code"] != expected_code:
        return [f"exit code {answer['code']} != {expected_code}: {answer['err'].strip()}"]
    return []


def _pmedian_answer(report: dict, pattern: str):
    y, x = {}, {}
    for name, v in report["variables"].items():
        if name[0] == "Y":
            i, j = name[1:].split("_") if pattern == "split" else (name[1], name[2:])
            y[(int(i), int(j))] = v
        else:
            x[int(name[1:])] = v
    return y, x


def paper_checks(workdir: Path) -> dict:
    """op key -> function(answer) -> problems, for every exercise."""
    fx = {}

    def pft_check(name):
        model = read_pft(FIXTURES / f"{name}.pft.csv")
        optimum = pft_optimum(model)
        rows = pft_rows(model)

        def check(answer):
            report = checks.parse_report(answer["out"])
            return (_solved(answer) + checks.check_objective(report["objective"], optimum)
                    + checks.check_rows(rows, report["variables"], name))

        def audit(answer):
            expected = audit_findings(model)
            got = {(f["kind"], f["subject"]) for f in json.loads(answer["out"])}
            return _solved(answer) + ([] if got == expected else [f"audit {got} != {expected}"])

        fx[f"solve:{name}"] = check
        fx[f"audit:{name}"] = audit

    for name in ("shortest_path", "transport_two_warehouse", "warehouse_siting",
                 "maxflow_seven_node"):
        pft_check(name)

    def objective_check(optimum):
        return lambda answer: _solved(answer) + checks.check_objective(
            checks.parse_report(answer["out"])["objective"], optimum)

    road = read_net(FIXTURES / "intercity_road.net.csv")
    geodesic = read_net(FIXTURES / "intercity_geodesic.net.csv")
    cap = read_net(FIXTURES / "capacitated.net.csv")

    def path_check(g):
        optimum = nx.shortest_path_length(g, 1, 7, weight="weight")

        def check(answer):
            report = checks.parse_report(answer["out"])
            arcs = {(int(n[1]), int(n[2])) for n, v in report["variables"].items() if v == 1.0}
            node, length, seen = 1, 0.0, 0
            succ = dict(arcs)
            while node != 7 and node in succ and seen <= len(arcs):
                length += g[node][succ[node]]["weight"]
                node, seen = succ[node], seen + 1
            problems = [] if node == 7 and seen == len(arcs) else [f"arcs {arcs} not a 1-7 path"]
            return (_solved(answer) + problems
                    + checks.check_objective(report["objective"], optimum)
                    + checks.check_objective(length, optimum, "path length"))

        return check

    fx["shortest-path:road"] = path_check(road)
    fx["shortest-path:geodesic"] = path_check(geodesic)
    fx["maxflow"] = objective_check(max_flow(cap, 1, 7))
    fx["maxflow:sink-cap"] = objective_check(max_flow(cap, 1, 7, sink_cap=5))
    fx["flow-capture"] = objective_check(flow_capture_optimum(road, 1, 7, 2))

    tour_d = workloads.tour_matrix()

    def tour_check(forced):
        optimum = tour_optimum(tour_d, forced)

        def check(answer):
            report = checks.parse_report(answer["out"])
            return _solved(answer) + checks.check_tour(
                tour_d, report["variables"], report["objective"], optimum, forced)

        return check

    fx["tour"] = tour_check(None)
    fx["tour:forced"] = tour_check((1, 3))

    areas, pairs = read_gal(FIXTURES / "neighborhoods.gal")
    for key, cost in (("cover", [1.0] * len(areas)), ("cover:cost", workloads.COVER_COSTS)):
        fx[key] = objective_check(cover_optimum(areas, pairs, cost))

    def color_check(gal, colors_csv=None):
        g_areas, g_pairs = read_gal(FIXTURES / gal)
        chromatic = chromatic_number(g_areas, g_pairs)

        def check(answer):
            lines = answer["out"].splitlines()
            colors = int(lines[1].split(": ")[1])
            assignment = {}
            for line in lines[2:]:
                area, color = line.strip().split(" = ")
                assignment[area] = int(color)
            problems = checks.check_coloring(g_pairs, assignment, colors, chromatic)
            if colors_csv is not None:
                written = colors_csv.read_text().splitlines()
                expected = ["id,Color"] + [f"{a},{c}" for a, c in assignment.items()]
                if written != expected:
                    problems.append(f"{colors_csv.name} holds {written}")
            return _solved(answer) + problems

        return check

    fx["color:neighborhoods"] = color_check("neighborhoods.gal")
    fx["color:demo-out"] = color_check("demo.gal", workdir / "colors.csv")

    demo_areas, demo_pairs = read_gal(FIXTURES / "demo.gal")

    def demo_one(answer):
        if chromatic_number(demo_areas, demo_pairs) <= 1:
            return ["demo.gal is 1-colorable, expected exit 0"]
        return _solved(answer, 2) + ([] if "status: Infeasible" in answer["out"]
                                     else ["no Infeasible status"])

    fx["color:demo-one"] = demo_one

    service_d = workloads.service_matrix()
    service_opt = pmedian_optimum(service_d, workloads.SERVICE_OPEN)

    def service(answer):
        report = checks.parse_report(answer["out"])
        y, x = _pmedian_answer(report, "concat")
        return _solved(answer) + checks.check_pmedian(
            service_d, workloads.SERVICE_OPEN, y, x, report["objective"], service_opt)

    fx["service"] = service

    def named_check(model):
        optimum = named_optimum(model)
        rows = model[2]

        def check(answer):
            report = checks.parse_report(answer["out"])
            return (_solved(answer) + checks.check_objective(report["objective"], optimum)
                    + checks.check_rows(rows, report["variables"], "model"))

        return check

    fx["transport:fixed"] = named_check(transport_model(design=False))
    fx["transport:design"] = named_check(transport_model(design=True))
    fx["facility"] = named_check(facility_model())
    return fx


# --- verdict ----------------------------------------------------------------


def checkers(workload: str, workdir: Path) -> dict:
    if workload == "tour-bnb":
        out = {}
        instances = workloads.tour_instances()
        for key, k, forced in workloads.tour_ops():
            inst = instances[k]
            arc = inst.forced if forced else None
            optimum = tour_optimum(inst.d, arc)

            def check(answer, d=inst.d, arc=arc, optimum=optimum):
                status = [] if answer["status"] == 0 else [f"status {answer['status']}"]
                return status + checks.check_tour(d, answer["x"], answer["objective"],
                                                  optimum, arc)

            out[key] = check
        return out
    if workload == "pmedian-lp":
        out = {}
        for k, inst in enumerate(workloads.pmedian_instances()):
            optimum = pmedian_optimum(inst.d, inst.p)

            def check(answer, inst=inst, optimum=optimum):
                report = checks.parse_report(answer["out"])
                y, x = _pmedian_answer(report, "split")
                return _solved(answer) + checks.check_pmedian(
                    inst.d, inst.p, y, x, report["objective"], optimum)

            out[f"pmedian{k:02d}"] = check
        return out
    return paper_checks(workdir)


def failed(answer: dict) -> bool:
    return "error" in answer or answer.get("code") in ERROR_CODES


def verdict(workload: str, workdir: Path, records: list) -> dict:
    """Check every answer and that each operation answers alike in every
    pass (the CLI runs with --deterministic, so its bytes must match)."""
    table = checkers(workload, workdir)
    wrong, failures, first = [], [], {}
    for rec in records:
        key, answer = rec["op"], rec["answer"]
        if failed(answer):
            failures.append(f"{key}: failed: {answer.get('error') or answer.get('err')}")
            continue
        try:
            found = table[key](answer)
        except (ValueError, LookupError, TypeError) as exc:  # output in no expected form
            found = [f"answer not understood: {exc!r}"]
        wrong += [f"{key}: {p}" for p in found]
        if key in first and first[key] != answer:
            wrong.append(f"{key}: answer differs between passes")
        first.setdefault(key, answer)
    attempted = {rec["op"] for rec in records}
    wrong += [f"{key}: never attempted" for key in sorted(set(table) - attempted)]
    return {"correct": not wrong, "attempted": len(records), "failed": len(failures),
            "problems": failures + wrong}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    records = json.loads((args.workdir / "result.json").read_text())["records"]
    out = verdict(args.workload, args.workdir, records)
    (args.workdir / "verdict.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
