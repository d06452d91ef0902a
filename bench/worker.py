"""The process that runs a workload's operations against pftopt.

One caller in one process, closed loop: each operation starts when the
previous one has returned. The worker writes its timings, answers and
(traced) layer split as JSON; the oracle process checks the answers.

    python3 bench/worker.py --workload W --seed N --passes P --trace 0|1 --workdir DIR
    python3 bench/worker.py --workload W --seed N --workdir DIR --setup-only
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from pftopt import branch_bound, cli, models  # noqa: E402
from pftopt.models import DistanceMatrix  # noqa: E402

import workloads  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def _tour_setup(workdir: Path):
    mips = []
    for inst in workloads.tour_instances():
        ids = tuple(range(1, inst.n + 1))
        mip = models.build_tour(DistanceMatrix(from_ids=ids, to_ids=ids, d=inst.d))
        mips.append((mip, models.force_arc(mip, *inst.forced)))

    def solve(k: int, forced: bool):
        mip = mips[k][forced]
        out = branch_bound.solve_mip(mip)
        x = {} if out.x is None else {
            name: float(v) for name, v in zip(mip.names, out.x) if v != 0.0}
        return {"status": int(out.status), "objective": out.objective_value,
                "x": x, "nodes": out.nodes_explored}

    return [(key, (lambda k=k, forced=forced: solve(k, forced)))
            for key, k, forced in workloads.tour_ops()]


def _cli_op(argv: list[str]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(argv, stdout=out, stderr=err)
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}

    return call


def _pmedian_setup(workdir: Path):
    ops = []
    for k, inst in enumerate(workloads.pmedian_instances()):
        path = workdir / f"pmedian{k:02d}.pft.csv"
        path.write_text(workloads.pmedian_pft(inst))
        ops.append((f"pmedian{k:02d}", _cli_op(["solve", "--pft", str(path), "--deterministic"])))
    return ops


def _paper_setup(workdir: Path):
    workloads.write_paper_inputs(workdir)
    return [(key, _cli_op(argv)) for key, argv in workloads.paper_ops(FIXTURES, workdir)]


SETUP = {"tour-bnb": _tour_setup, "pmedian-lp": _pmedian_setup,
         "paper-exercises": _paper_setup}


def setup(workload: str, seed: int, workdir: Path):
    """The operations of one pass, in the seeded order."""
    ops = SETUP[workload](workdir)
    return [ops[i] for i in workloads.order(seed, len(ops))]


def run_pass(ops, records: list, pass_no: int, tracer=None) -> float:
    """Run every operation once; returns the wall time of the pass."""
    started = time.perf_counter()
    for key, call in ops:
        if tracer is not None:
            tracer.op = f"{pass_no}:{key}"
        t0 = time.perf_counter()
        try:
            answer = call()
        except Exception as exc:  # an operation that raises counts as failed
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        records.append({"op": key, "pass": pass_no, "s": time.perf_counter() - t0,
                        "answer": answer})
    return time.perf_counter() - started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--passes", type=int, default=workloads.MIN_PASSES)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ops = setup(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    records: list = []
    result = {"ops_per_pass": len(ops)}
    if args.trace:
        # One untraced pass, then the same pass traced: their difference is
        # the cost of tracing. Imported here so that set-up stays untraced.
        import tracing

        untraced_s = run_pass(ops, records, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s = run_pass(ops, records, 1, tracer)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = traced_s - untraced_s
        result["layers"] = layers
        tracer.write_jsonl(args.workdir / "trace.jsonl")
    else:
        result["loop_s"] = sum(run_pass(ops, records, p) for p in range(args.passes))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["records"] = records
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
