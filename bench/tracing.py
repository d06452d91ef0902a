"""Layer spans for the traced run, recorded from the benchmark's side.

`Tracer.install` rebinds public functions of pftopt's modules to timing
wrappers, so every call that goes through a module attribute opens a span.
Spans stay in memory; `layer_metrics` folds them into the per-layer split,
where a layer's self time is its span minus the spans of its direct
children.
"""

from __future__ import annotations

import functools
import json
import time

from pftopt import branch_bound, cli, models, pft, spatial
from pftopt.linprog import Status

# Span fields: [layer, start, end, parent index, op key, count]
LAYER, START, END, PARENT, OP, COUNT = range(6)


def _lp_count(args, outcome):
    lp = args[0]
    rows = len(lp.eq_rows) + len(lp.ub_rows)
    return (outcome.iterations, outcome.status is Status.OPTIMAL, rows, lp.num_vars)


def _mip_count(args, outcome):
    base = args[0].base
    return (outcome.nodes_explored, base.num_vars, len(base.eq_rows) + len(base.ub_rows))


def _text_count(args, _result):
    return len(args[0])


def _targets():
    """(module, attribute, layer, counter) for every traced function."""
    out = [
        (cli, "run", "cli", None),
        (cli, "build_parser", "cli.parser", None),
        (cli, "solve_mip", "bnb", _mip_count),
        (branch_bound, "solve_mip", "bnb", _mip_count),
        (branch_bound, "solve_lp", "lp", _lp_count),
        (pft, "parse_pft", "pft.parse", _text_count),
        (pft, "compile_pft", "pft.compile", None),
        (pft, "audit_pft", "pft.audit", None),
        (spatial, "parse_gal", "spatial", None),
        (spatial, "parse_distance_matrix", "spatial", None),
        (spatial, "weights_to_pairs", "spatial", None),
    ]
    builders = [name for name in models.__all__ if name.startswith("build_")]
    for name in builders + ["force_arc", "enumerate_st_paths", "min_colors"]:
        out.append((models, name, "models", None))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None  # key of the operation in progress
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module, name, layer, count in _targets():
            original = getattr(module, name)
            setattr(module, name, self._wrap(original, layer, count))
            self._saved.append((module, name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, original, layer, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (layer, start, end, parent, op, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "parent": parent, "op": op, "layer": layer,
                                     "start": start, "end": end, "count": count}) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer split of one traced pass."""
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    first_lp = {}  # bnb span -> duration of its first (root) LP
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += duration[index]
            if span[LAYER] == "lp" and parent not in first_lp:
                first_lp[parent] = duration[index]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    for index, span in enumerate(spans):
        layer = span[LAYER]
        total[layer] = total.get(layer, 0.0) + duration[index]
        self_time[layer] = self_time.get(layer, 0.0) + duration[index] - child_time[index]

    lp = [s[COUNT] for s in spans if s[LAYER] == "lp"]
    mips = [s[COUNT] for s in spans if s[LAYER] == "bnb"]
    solves = len(lp)
    pivots = sum(c[0] for c in lp)
    nodes = sum(c[0] for c in mips)
    lp_s = total.get("lp", 0.0)
    bnb_s = total.get("bnb", 0.0)
    return {
        "bnb.nodes": nodes,
        "bnb.self_s": self_time.get("bnb", 0.0),
        "bnb.nodes_per_s": nodes / bnb_s if bnb_s else 0.0,
        "bnb.lp_optimal_ratio": sum(c[1] for c in lp) / solves if solves else 0.0,
        "lp.solves": solves,
        "lp.pivots": pivots,
        "lp.pivots_per_solve": pivots / solves if solves else 0.0,
        "lp.s": lp_s,
        "lp.ms_per_pivot": 1000.0 * lp_s / pivots if pivots else 0.0,
        "lp.root_s": sum(first_lp.values()),
        "lp.rows": sum(c[2] for c in lp) / solves if solves else 0.0,
        "lp.cols": sum(c[3] for c in lp) / solves if solves else 0.0,
        "pft.parse_s": self_time.get("pft.parse", 0.0),
        "pft.compile_s": self_time.get("pft.compile", 0.0),
        "pft.audit_s": self_time.get("pft.audit", 0.0),
        "pft.input_kb": sum(s[COUNT] for s in spans if s[LAYER] == "pft.parse") / 1024.0,
        "cli.parser_s": total.get("cli.parser", 0.0),
        "cli.self_s": self_time.get("cli", 0.0),
        "spatial.parse_s": self_time.get("spatial", 0.0),
        "models.build_s": self_time.get("models", 0.0),
        "models.vars": sum(c[1] for c in mips),
        "models.rows": sum(c[2] for c in mips),
    }
