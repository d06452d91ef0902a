"""Self-tests of the benchmark: oracles, answer checks and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pftopt import branch_bound  # noqa: E402

# The four-city square of tests/test_cli.py: 1-2-3-4-1 costs 1+2+3+4 = 10;
# with arc 1->3 forced the best tour is 1-3-4-2-1 = 9+3+8+1 = 21.
SQUARE = [[0, 1, 9, 4], [1, 0, 2, 8], [9, 2, 0, 3], [4, 8, 3, 0]]
SQUARE_TOUR = {"X12": 1.0, "X23": 1.0, "X34": 1.0, "X41": 1.0,
               "U1": 1.0, "U2": 2.0, "U3": 3.0, "U4": 4.0}
# Three points on a line at 0, 5 and 9: one site serves best from the middle
# (5 + 0 + 4 = 9); two sites leave one demand 4 away.
LINE = [[0, 5, 9], [5, 0, 4], [9, 4, 0]]


# --- oracles against instances solved by hand -----------------------------------


def test_tour_oracle():
    assert oracle.tour_optimum(SQUARE) == 10
    assert oracle.tour_optimum(SQUARE, forced=(1, 3)) == 21


def test_pmedian_oracle():
    assert oracle.pmedian_optimum(LINE, 1) == 9
    assert oracle.pmedian_optimum(LINE, 2) == 4


def test_cover_and_coloring_oracles():
    path = (["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert oracle.cover_optimum(*path, [1, 1, 1]) == 1  # b covers all three
    assert oracle.cover_optimum(*path, [1, 5, 1]) == 2  # a and c beat b
    assert oracle.chromatic_number(*path) == 2
    assert oracle.chromatic_number(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")]) == 3
    assert oracle.chromatic_number(["a"], []) == 1


def test_gal_reader():
    areas, pairs = oracle.read_gal(oracle.FIXTURES / "demo.gal")
    assert areas == ["A", "B", "C"]
    assert pairs == [("A", "B"), ("B", "C")]


def test_network_oracles(tmp_path):
    net = tmp_path / "net.csv"
    # s=1 -> 2 -> 9 carries min(4, 4) = 4; 1 -> 3 -> 9 carries 1; 1 -> 9 is direct.
    net.write_text("tail,head,weight,capacity\n1,2,4,3\n2,9,4,2\n1,3,1,\n3,9,1,1\n1,9,10,1\n")
    g = oracle.read_net(net)
    assert oracle.max_flow(g, 1, 9) == 4  # 2 via node 2, 1 via node 3, 1 direct
    assert oracle.max_flow(g, 1, 9, sink_cap=3) == 3
    assert oracle.flow_capture_optimum(g, 1, 9, 1) == 4  # place on node 2
    assert oracle.flow_capture_optimum(g, 1, 9, 2) == 5


def test_highs_oracle():
    # min 2x + 3y, x + y >= 3.5, x <= 2: x = 2, y = 2 when integer (10),
    # y = 1.5 when continuous (8.5).
    rows = [([1, 1], "ge", 3.5)]
    assert oracle.highs([2, 3], rows, [0, 0], [2, 9], [True, True]) == pytest.approx(10)
    assert oracle.highs([2, 3], rows, [0, 0], [2, 9], [False, False]) == pytest.approx(8.5)
    assert oracle.highs([1, 1], [([1, 2], "le", 4)], [0, 0], [9, 9], [True, True],
                        maximize=True) == pytest.approx(4)


def test_paper_models_match_the_papers_answers():
    # tests/test_cli.py: fixed capacity 8600, design capacity 8400, facility 410.
    assert oracle.named_optimum(oracle.transport_model(design=False)) == pytest.approx(8600)
    assert oracle.named_optimum(oracle.transport_model(design=True)) == pytest.approx(8400)
    assert oracle.named_optimum(oracle.facility_model()) == pytest.approx(410)


def test_pft_reader_and_audit(tmp_path):
    path = tmp_path / "loose.pft.csv"
    path.write_text("#PFT v1 dir=max title=loose\nvar,kind,cap,obj,lb,ub\n"
                    "x1,C,1,1,,\nx2,I,,1,,3\n@sense,,le,\n@rhs,,9,\n")
    model = oracle.read_pft(path)
    assert model["direction"] == "max" and model["hi"] == [float("inf"), 3.0]
    assert oracle.audit_findings(model) == {("UbRowSingleton", "cap"), ("ZeroRow", "x2")}
    assert oracle.pft_optimum(model) == pytest.approx(12)


# --- checks reject corrupted answers -----------------------------------------------


def test_objective_off_by_one_is_rejected():
    assert checks.check_objective(1867, 1867) == []
    assert checks.check_objective(1868, 1867)
    assert checks.check_objective(None, 1867)


def test_tour_check():
    assert checks.check_tour(SQUARE, SQUARE_TOUR, 10, 10) == []
    split = {"X12": 1.0, "X21": 1.0, "X34": 1.0, "X43": 1.0,
             "U1": 1.0, "U2": 2.0, "U3": 3.0, "U4": 4.0}
    assert any("Hamiltonian" in p for p in checks.check_tour(SQUARE, split, 10, 10))
    wrong_u = dict(SQUARE_TOUR, U3=4.0, U4=3.0)
    assert any("u along" in p for p in checks.check_tour(SQUARE, wrong_u, 10, 10))
    assert checks.check_tour(SQUARE, SQUARE_TOUR, 10, 10, forced=(1, 3))
    assert checks.check_tour(SQUARE, SQUARE_TOUR, 11, 10)
    assert checks.check_tour(SQUARE, SQUARE_TOUR, 10, 9)


def test_pmedian_check():
    y = {(1, 2): 1.0, (2, 2): 1.0, (3, 2): 1.0}
    assert checks.check_pmedian(LINE, 1, y, {2: 1.0}, 9, 9) == []
    too_many = checks.check_pmedian(LINE, 1, y, {1: 1.0, 2: 1.0}, 9, 9)
    assert any("2 sites open" in p for p in too_many)
    twice = {**y, (1, 1): 1.0}
    assert any("assigned 2 times" in p for p in checks.check_pmedian(LINE, 1, twice, {2: 1.0}, 9, 9))
    closed = {(1, 1): 1.0, (2, 2): 1.0, (3, 2): 1.0}
    assert any("closed site" in p for p in checks.check_pmedian(LINE, 1, closed, {2: 1.0}, 4, 9))
    assert checks.check_pmedian(LINE, 1, y, {2: 1.0}, 10, 9)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = worker.cli.run(argv, stdout=out, stderr=err)
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("paper")
    workloads.write_paper_inputs(workdir)
    ops = dict(workloads.paper_ops(oracle.FIXTURES, workdir))
    return ops, oracle.paper_checks(workdir)


def test_every_paper_answer_passes(paper):
    ops, fx = paper
    assert set(ops) == set(fx)
    for key, argv in ops.items():
        if key != "color:neighborhoods":  # the slow scan is covered by the runs
            assert fx[key](_cli(argv)) == [], key


def test_max_flow_one_unit_short_is_rejected(paper):
    ops, fx = paper
    answer = _cli(ops["maxflow"])
    assert "objective: 9\n" in answer["out"]
    short = dict(answer, out=answer["out"].replace("objective: 9\n", "objective: 8\n"))
    assert fx["maxflow"](short)


def test_corrupted_paper_answers_are_rejected(paper):
    ops, fx = paper
    answer = _cli(ops["solve:warehouse_siting"])
    off = dict(answer, out=answer["out"].replace("objective: 410", "objective: 411"))
    assert fx["solve:warehouse_siting"](off)
    answer = _cli(ops["service"])
    extra = dict(answer, out=answer["out"].replace("variables:\n", "variables:\n  X1 = 1\n"))
    assert any("sites open" in p for p in fx["service"](extra))
    assert any("exit code 64" in p for p in fx["service"](dict(answer, code=64)))


def test_verdict_counts_failures_and_pass_differences(paper, monkeypatch):
    ops, fx = paper
    answer = _cli(ops["maxflow"])
    records = [{"op": "maxflow", "answer": answer},
               {"op": "maxflow", "answer": dict(answer, out=answer["out"] + " ")},
               {"op": "cover", "answer": {"error": "RuntimeError: boom"}},
               {"op": "audit:shortest_path", "answer": dict(answer, out="not json")}]
    table = {key: fx[key] for key in ("maxflow", "cover", "audit:shortest_path")}
    monkeypatch.setattr(oracle, "checkers", lambda *args: table)
    out = oracle.verdict("paper-exercises", Path("."), records)
    assert out["attempted"] == 4 and out["failed"] == 1
    assert not out["correct"]
    assert any("differs between passes" in p for p in out["problems"])
    assert any("answer not understood" in p for p in out["problems"])


# --- tracing ------------------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(k) for k in range(40, 0, -1)])
    assert (value, pct) == (30.0, 75.0)


def _slice(tmp_path):
    """A cheap mix of both paths into the solver: direct solve_mip calls on
    small tours and CLI runs through pft, spatial and models."""
    tours = [op for op in worker._tour_setup(tmp_path) if op[0] in ("tour2", "tour3-forced")]
    workloads.write_paper_inputs(tmp_path)
    cli_ops = [(key, worker._cli_op(argv))
               for key, argv in workloads.paper_ops(oracle.FIXTURES, tmp_path)
               if key in ("solve:warehouse_siting", "cover", "tour")]
    return tours + cli_ops


def test_traced_and_untraced_runs_count_alike(tmp_path, monkeypatch):
    """Untraced, pivots are read by a bare counter and nodes from the
    answers; tracing must see the same counts and change no answer."""
    ops = _slice(tmp_path)
    pivots = []
    solve_lp = branch_bound.solve_lp

    def counting(lp, limits=None):
        outcome = solve_lp(lp, limits)
        pivots.append(outcome.iterations)
        return outcome

    untraced: list = []
    monkeypatch.setattr(branch_bound, "solve_lp", counting)
    worker.run_pass(ops, untraced, 0)
    monkeypatch.undo()

    layers = []
    for pass_no in (1, 2):
        traced: list = []
        tracer = tracing.Tracer()
        tracer.install()
        try:
            worker.run_pass(ops, traced, pass_no, tracer)
        finally:
            tracer.uninstall()
        assert branch_bound.solve_lp is solve_lp  # every binding restored
        assert [r["answer"] for r in traced] == [r["answer"] for r in untraced]
        layers.append(tracing.layer_metrics(tracer.spans))

    reported = [r["answer"].get("nodes") or checks.parse_report(r["answer"]["out"])["nodes"]
                for r in untraced]
    assert layers[0]["bnb.nodes"] == sum(reported)
    assert layers[0]["lp.pivots"] == sum(pivots)
    assert layers[0]["lp.solves"] == len(pivots)
    for name in ("bnb.nodes", "lp.pivots", "lp.solves", "models.vars", "models.rows",
                 "pft.input_kb"):
        assert layers[0][name] == layers[1][name], name
    for name in ("cli.parser_s", "pft.parse_s", "spatial.parse_s", "models.build_s",
                 "bnb.self_s", "lp.root_s"):
        assert layers[0][name] > 0, name
    json.dumps(layers)  # plain numbers only


# --- the command's contract -------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = dict(tracing.layer_metrics([]), **{"trace.overhead_s": 0.0})
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
    for m in spec["per_layer"]:
        assert run.LAYER_UNITS.get(m["name"], "s") == m["unit"], m["name"]
    fake = {"records": [{"s": float(k)} for k in range(40)], "loop_s": 40.0, "peak_rss_mb": 1.0}
    metrics = run.end_to_end(fake, 0.2)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_a_tree_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "tour-bnb", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
