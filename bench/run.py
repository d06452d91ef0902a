"""Benchmark of pftopt: one command, three workloads, answers checked.

    python3 bench/run.py --workload tour-bnb|pmedian-lp|paper-exercises \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer split of
one traced pass (see README.md). Every process this starts has ended when it
returns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

# One BLAS thread: the solver's pivots then repeat exactly from run to run
# (with two threads, pivot counts on the same LP differ), and the second of
# the machine's two cores is left to the rest of the system.
OPENBLAS_THREADS = "1"
SETUP_PROBES = 5  # fresh processes timed for setup_s; their median is reported
TAIL_BEYOND = 10  # op_s.tail is the slowest time with this many samples above it
WORKER_TIMEOUT_S = 150
ORACLE_TIMEOUT_S = 60


def _python(script: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=OPENBLAS_THREADS)
    cmd = [sys.executable, str(BENCH / script), *args]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(result: dict, setup_s: float) -> dict:
    times = [rec["s"] for rec in result["records"]]
    tail_s, tail_pct = tail(times)
    print(f"# op_s.tail is p{tail_pct:g} of {len(times)} operations "
          f"({TAIL_BEYOND} beyond it)")
    return {
        "ops_per_s": (len(times) / result["loop_s"], "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


LAYER_UNITS = {"bnb.nodes": "count", "bnb.nodes_per_s": "1/s", "bnb.lp_optimal_ratio": "ratio",
               "lp.solves": "count", "lp.pivots": "count", "lp.pivots_per_solve": "count",
               "lp.ms_per_pivot": "ms", "lp.rows": "count", "lp.cols": "count",
               "pft.input_kb": "kB", "models.vars": "count", "models.rows": "count"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure at least this long, in whole passes (two at least)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "pftopt" / "__init__.py", ROOT / "tests" / "fixtures"):
        if not needed.exists():
            print(f"bench: {needed.relative_to(ROOT)} is missing; run from a checkout of the "
                  "repository", file=sys.stderr)
            return 2

    out_dir = ROOT / ".bench_out"
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--workdir", str(workdir)]
        job = common + ["--seed", str(args.seed)]
        setups = [json.loads(_python("worker.py", *job, "--setup-only",
                                     timeout=WORKER_TIMEOUT_S).stdout)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes = workloads.passes_for(args.workload, args.seconds)
        _python("worker.py", *job, "--passes", str(passes), "--trace", str(args.trace),
                timeout=WORKER_TIMEOUT_S)
        _python("oracle.py", *common, timeout=ORACLE_TIMEOUT_S)
        result = json.loads((workdir / "result.json").read_text())
        verdict = json.loads((workdir / "verdict.json").read_text())
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.copy(workdir / "trace.jsonl", out_dir / f"{stem}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in verdict["problems"][:20]:
        print(f"# problem: {problem}")
    print(f"# {args.workload}: {len(result['records'])} operations "
          f"({result['ops_per_pass']} a pass), OPENBLAS_NUM_THREADS={OPENBLAS_THREADS}")
    if args.trace:
        metrics = {name: (value, LAYER_UNITS.get(name, "s"))
                   for name, value in result["layers"].items()}
    else:
        metrics = end_to_end(result, statistics.median(setups))
    doc = {"correct": verdict["correct"], "attempted": verdict["attempted"],
           "failed": verdict["failed"],
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
