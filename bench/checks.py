"""Checks of pftopt's answers against independently computed optima.

Every check returns a list of problems; an empty list means the answer holds.
Standard library only, so the self-tests can corrupt answers cheaply.
"""

from __future__ import annotations

import json
import re

TOL = 1e-6


def close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOL * max(1.0, abs(b))


def check_objective(reported, expected, label: str = "objective") -> list[str]:
    if close(reported, expected):
        return []
    return [f"{label} {reported} != {expected}"]


def parse_report(out: str) -> dict:
    """The CLI's text or JSON report as {status, objective, variables, nodes}."""
    if out.lstrip().startswith("{"):
        doc = json.loads(out)
        return {"status": doc["status"], "objective": doc.get("objective"),
                "variables": {v["name"]: v["value"] for v in doc.get("variables", ())},
                "nodes": doc.get("nodes")}
    report = {"status": None, "objective": None, "variables": {}, "nodes": None}
    for line in out.splitlines():
        if line.startswith("status: "):
            report["status"] = line[len("status: "):]
        elif line.startswith("objective: "):
            report["objective"] = float(line[len("objective: "):])
        elif line.startswith("nodes: "):
            report["nodes"] = int(line[len("nodes: "):])
        else:
            match = re.fullmatch(r"  (\S+) = (\S+)", line)
            if match:
                report["variables"][match.group(1)] = float(match.group(2))
    return report


def _is_binary(v: float) -> bool:
    return v == 0.0 or v == 1.0


def check_tour(d, x: dict, objective, optimum, forced=None) -> list[str]:
    """A single Hamiltonian cycle through cities 1..n, MTZ orders u equal to
    each city's position on it (exactly 1..n), the forced arc used, and a
    length equal to the reported objective and to the optimum. Arc names are
    X<i><j> and order names U<i>, single-digit ids."""
    n = len(d)
    problems = []
    succ, pred = {}, {}
    u = {}
    for name, v in x.items():
        if name[0] == "X":
            i, j = int(name[1]), int(name[2])
            if not _is_binary(v):
                problems.append(f"arc {name} = {v} is not 0/1")
            elif v == 1.0:
                if i in succ or j in pred:
                    problems.append(f"city {i} or {j} has two arcs")
                succ[i], pred[j] = j, i
        elif name[0] == "U":
            u[int(name[1:])] = v
    if problems:
        return problems
    cycle = [1]
    while len(cycle) <= n and succ.get(cycle[-1], 1) != 1:
        cycle.append(succ[cycle[-1]])
    if len(succ) != n or sorted(cycle) != list(range(1, n + 1)) or succ.get(cycle[-1]) != 1:
        problems.append(f"arcs {sorted(succ.items())} are not one Hamiltonian cycle")
        return problems
    positions = [u.get(city) for city in cycle]
    if positions != [float(k) for k in range(1, n + 1)]:
        problems.append(f"u along the tour is {positions}, not exactly 1..{n}")
    if forced is not None and succ.get(forced[0]) != forced[1]:
        problems.append(f"forced arc {forced} not in the tour")
    length = sum(d[i - 1][j - 1] for i, j in succ.items())
    problems += check_objective(objective, length, "reported objective vs tour length")
    problems += check_objective(length, optimum, "tour length vs enumeration")
    return problems


def check_pmedian(d, p: int, y: dict, x: dict, objective, optimum) -> list[str]:
    """Exactly p sites open, every demand assigned once to an open site, and
    the objective recomputed from Y equal to the reported one and to the
    optimum. y maps (i, j) and x maps j (1-based) to reported values."""
    n = len(d)
    values = list(y.values()) + list(x.values())
    if not all(_is_binary(v) for v in values):
        return [f"non-binary values {sorted(v for v in values if not _is_binary(v))}"]
    problems = []
    open_sites = {j for j, v in x.items() if v == 1.0}
    if len(open_sites) != p:
        problems.append(f"{len(open_sites)} sites open, not {p}")
    for i in range(1, n + 1):
        sites = [j for (k, j), v in y.items() if k == i and v == 1.0]
        if len(sites) != 1:
            problems.append(f"demand {i} assigned {len(sites)} times")
        elif sites[0] not in open_sites:
            problems.append(f"demand {i} assigned to closed site {sites[0]}")
    cost = sum(d[i - 1][j - 1] * v for (i, j), v in y.items())
    problems += check_objective(objective, cost, "reported objective vs assignment cost")
    problems += check_objective(cost, optimum, "assignment cost vs enumeration")
    return problems


def check_rows(rows, values: dict, label: str) -> list[str]:
    """rows: (coefficients {name: a}, sense, rhs); values: name -> value,
    absent names are zero."""
    problems = []
    for k, (coeffs, sense, rhs) in enumerate(rows):
        lhs = sum(a * values.get(name, 0.0) for name, a in coeffs.items())
        slack = TOL * max(1.0, abs(rhs))
        bad = ((sense == "eq" and abs(lhs - rhs) > slack)
               or (sense == "le" and lhs > rhs + slack)
               or (sense == "ge" and lhs < rhs - slack))
        if bad:
            problems.append(f"{label} row {k}: {lhs} {sense} {rhs} fails")
    return problems


def check_coloring(pairs, assignment: dict, colors: int, chromatic: int) -> list[str]:
    problems = []
    if colors != chromatic:
        problems.append(f"{colors} colors reported, chromatic number is {chromatic}")
    for a, b in pairs:
        if assignment.get(a) is None or assignment.get(a) == assignment.get(b):
            problems.append(f"areas {a} and {b} share a color or lack one")
    if any(not 0 <= c < colors for c in assignment.values()):
        problems.append("color index out of range")
    return problems
