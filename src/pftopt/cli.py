"""Command-line front door.

Subcommands read PFT/network/spatial files (parsed and checked by `pft` and
`spatial`), build the matching model, solve it, and print a report (text by
default, JSON behind --json). Exit codes: 0 optimal/feasible, 2 infeasible,
3 unbounded, 64 usage error or a file that cannot be read or written, 65 parse
error, 1 anything else. Input warnings go to stderr as `warning:` lines.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
import warnings

from . import models, pft as pft_mod, spatial
from .branch_bound import MipProblem, MipOutcome, solve_mip
from .linprog import Status

USAGE_ERROR = 64
PARSE_ERROR = 65

_STATUS_TEXT = {
    Status.OPTIMAL: "Optimal",
    Status.ITERATION_LIMIT: "IterationLimit",
    Status.INFEASIBLE: "Infeasible",
    Status.UNBOUNDED: "Unbounded",
    Status.NUMERICAL: "Numerical",
}

_STATUS_EXIT = {
    Status.OPTIMAL: 0,
    Status.INFEASIBLE: 2,
    Status.UNBOUNDED: 3,
}


def _num(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:.12g}"


def _report(mip: MipProblem, outcome: MipOutcome, wall: float | None, as_json: bool) -> str:
    """The report of one solve: status, objective, the variables with
    |value| > 1e-9, and (text only) each row's activity and the wall time."""
    status = _STATUS_TEXT[outcome.status]
    x = outcome.x
    objective = None if x is None else float(outcome.objective_value)
    nonzero = [] if x is None else [
        (name, float(value)) for name, value in zip(mip.names, x) if abs(value) > 1e-9
    ]
    if as_json:
        doc = {
            "status": status,
            "objective": objective,
            "variables": [{"name": n, "value": v} for n, v in nonzero],
            "nodes": outcome.nodes_explored,
            "iterations": outcome.iterations,
        }
        return json.dumps(doc, indent=2) + "\n"
    out = [f"status: {status}"]
    if x is not None:
        out.append(f"objective: {_num(objective)}")
        if nonzero:
            out.append("variables:")
            out.extend(f"  {name} = {_num(value)}" for name, value in nonzero)
        base = mip.base
        for j, (lhs, rhs) in enumerate(zip((base.A_eq @ x).tolist(), base.b_eq.tolist())):
            out.append(f"eq[{j}]: {_num(lhs)} = {_num(rhs)}")
        for j, (lhs, rhs) in enumerate(zip((base.A_ub @ x).tolist(), base.b_ub.tolist())):
            out.append(f"ub[{j}]: {_num(lhs)} <= {_num(rhs)}")
    out.append(f"nodes: {outcome.nodes_explored}")
    out.append(f"iterations: {outcome.iterations}")
    if wall is not None:
        out.append(f"time_s: {wall:.3f}")
    return "\n".join(out) + "\n"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _float_list(text: str, option: str) -> list[float]:
    """The numbers of a comma-separated option value; blank items are skipped."""
    values = []
    for tok in filter(None, (tok.strip() for tok in text.split(","))):
        try:
            values.append(float(tok))
        except ValueError:
            raise models.InputError(f"{option}: {tok!r} is not a number") from None
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pftopt", description="Formulation-table MILP toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="suppress the wall-time field for byte-identical output",
        )

    p = sub.add_parser("solve", help="solve a generic PFT file")
    p.add_argument("--pft", required=True)
    common(p)

    p = sub.add_parser("audit", help="run the structural audit on a PFT file")
    p.add_argument("--pft", required=True)
    common(p)

    def network(p: argparse.ArgumentParser) -> None:
        for flag in ("--net", "--source", "--sink"):
            p.add_argument(flag, required=True)

    def matrix(p: argparse.ArgumentParser, flag: str, **kwargs) -> None:
        # Every matrix command reads its CSV into args.matrix.
        p.add_argument(flag, required=True, dest="matrix", metavar=flag[2:].upper(), **kwargs)

    p = sub.add_parser("shortest-path", help="shortest s-t path over a network CSV")
    network(p)
    common(p)

    p = sub.add_parser("tour", help="minimum-cost closed tour from a distance CSV")
    matrix(p, "--dist")
    p.add_argument(
        "--force-arc",
        action="append",
        default=[],
        metavar="I,J",
        help="pin arc i->j into the tour (repeatable)",
    )
    common(p)

    p = sub.add_parser("cover", help="minimum-cost set cover from a .gal file")
    p.add_argument("--gal", required=True)
    p.add_argument("--cost", help="comma-separated per-area costs (default all 1)")
    common(p)

    p = sub.add_parser("flow-capture", help="flow-capturing placement over a network CSV")
    network(p)
    p.add_argument("--placements", type=int, required=True)
    p.add_argument("--flows", help="comma-separated per-path flow overrides")
    common(p)

    p = sub.add_parser("color", help="fewest-colors zone heterogeneity from a .gal file")
    p.add_argument("--gal", required=True)
    p.add_argument("--max-colors", type=int, required=True)
    p.add_argument("--out", help="write an id,Color assignment CSV here")
    common(p)

    p = sub.add_parser("service", help="p-server service coverage from a distance CSV")
    matrix(p, "--dist")
    p.add_argument("--open", type=int, required=True, dest="open_count")
    common(p)

    p = sub.add_parser("transport", help="supply/demand shipment optimization")
    matrix(p, "--cost", help="linear from,to,cost CSV")
    p.add_argument("--demand", required=True, help="comma-separated per-store demand")
    supply = p.add_mutually_exclusive_group(required=True)
    supply.add_argument("--capacity", help="comma-separated per-supplier capacity")
    supply.add_argument(
        "--design-capacity",
        action="store_true",
        help="cap each supplier at total demand instead of fixed capacity",
    )
    common(p)

    p = sub.add_parser("maxflow", help="maximum s-t flow over a capacitated network CSV")
    network(p)
    p.add_argument("--sink-cap", type=float)
    common(p)

    p = sub.add_parser("facility", help="fixed-charge warehouse location")
    matrix(p, "--cost", help="linear facility,store,unit-cost CSV")
    p.add_argument("--demand", required=True)
    p.add_argument("--capacity", required=True)
    p.add_argument("--fixed", required=True)
    common(p)

    return parser


def _build_model(args) -> MipProblem | None:
    """Dispatch to the builder for the chosen subcommand."""
    cmd = args.command
    if cmd == "solve":
        return pft_mod.compile_pft(pft_mod.parse_pft(_read(args.pft)))
    if cmd == "cover":
        adj = spatial.weights_to_pairs(spatial.parse_gal(_read(args.gal)))
        cost = _float_list(args.cost, "--cost") if args.cost else [1.0] * len(adj.area_ids)
        return models.build_set_cover(adj, cost)
    if hasattr(args, "net"):  # shortest-path, maxflow, flow-capture
        net = spatial.parse_network(_read(args.net))
        s, t = args.source.strip(), args.sink.strip()
        if cmd == "shortest-path":
            return models.build_shortest_path(net, s, t)
        if cmd == "maxflow":
            return models.build_max_flow(net, s, t, sink_cap=args.sink_cap)
        flows = _float_list(args.flows, "--flows") if args.flows else None
        ps = models.enumerate_st_paths(net, s, t, flows=flows)
        candidates = [n for n in net.node_ids if n not in (s, t)]
        return models.build_flow_capture(ps, candidates, args.placements)
    d = spatial.parse_distance_matrix(_read(args.matrix))
    if cmd == "tour":
        mip = models.build_tour(d)
        for spec in args.force_arc:
            ends = [tok.strip() for tok in spec.split(",")]
            if len(ends) != 2 or not all(ends):
                raise models.InputError(f"--force-arc expects I,J, got {spec!r}")
            mip = models.force_arc(mip, *ends)
        return mip
    if cmd == "service":
        return models.build_service_coverage(d, args.open_count)
    if cmd == "transport":
        demand = _float_list(args.demand, "--demand")
        if args.design_capacity:
            capacity = [sum(demand)] * len(d.from_ids)
        else:
            capacity = _float_list(args.capacity, "--capacity")
        return models.build_transportation(d, demand, capacity)
    if cmd == "facility":
        return models.build_facility_location(
            d,
            _float_list(args.fixed, "--fixed"),
            _float_list(args.demand, "--demand"),
            _float_list(args.capacity, "--capacity"),
        )
    raise AssertionError(cmd)


def _run_audit(args, stdout) -> int:
    table = pft_mod.parse_pft(_read(args.pft))
    findings = pft_mod.audit_pft(table)
    if args.json:
        doc = [
            {"kind": f.kind.value, "subject": f.subject, "message": f.message}
            for f in findings
        ]
        stdout.write(json.dumps(doc, indent=2) + "\n")
    elif findings:
        for finding in findings:
            stdout.write(f"{finding.kind.value}: {finding.message}\n")
    else:
        stdout.write("no findings\n")
    return 0


def _run_color(args, stdout) -> int:
    started = time.perf_counter()
    adj = spatial.weights_to_pairs(spatial.parse_gal(_read(args.gal)))
    result = models.min_colors(adj, args.max_colors)
    wall = None if args.deterministic else time.perf_counter() - started
    if result.status is not Status.OPTIMAL:
        status = _STATUS_TEXT[result.status]
        if args.json:
            doc = {"status": status, "max_colors": args.max_colors}
            stdout.write(json.dumps(doc, indent=2) + "\n")
        elif result.status is Status.INFEASIBLE:
            stdout.write(f"status: Infeasible\nno coloring with up to {args.max_colors} colors\n")
        else:
            stdout.write(f"status: {status}\n")
        return _STATUS_EXIT.get(result.status, 1)
    if args.json:
        doc = {
            "status": "Optimal",
            "colors": result.colors,
            "assignment": {str(k): v for k, v in result.assignment.items()},
        }
        stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        stdout.write(f"status: Optimal\ncolors: {result.colors}\n")
        for area, color in result.assignment.items():
            stdout.write(f"  {area} = {color}\n")
        if wall is not None:
            stdout.write(f"time_s: {wall:.3f}\n")
    if args.out:
        text = spatial.write_assignment_csv(
            result.assignment, id_header="id", label_header="Color"
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def run(argv, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        # argparse prints usage errors and --help itself; send them to our streams.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # Each warning of this call reaches `stderr` as it is raised, however often
    # the process has shown it before.
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: stderr.write(f"warning: {message}\n")
        try:
            if args.command == "audit":
                return _run_audit(args, stdout)
            if args.command == "color":
                return _run_color(args, stdout)
            started = time.perf_counter()
            mip = _build_model(args)
            outcome = solve_mip(mip)
            wall = None if args.deterministic else time.perf_counter() - started
            stdout.write(_report(mip, outcome, wall, args.json))
            return _STATUS_EXIT.get(outcome.status, 1)
        except (pft_mod.PftParseError, spatial.GalParseError, spatial.DistanceCsvError) as exc:
            stderr.write(f"parse error: {exc}\n")
            return PARSE_ERROR
        except (OSError, ValueError) as exc:  # InputError and MalformedProblemError too
            stderr.write(f"error: {exc}\n")
            return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
