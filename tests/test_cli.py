"""End-to-end tests for the command-line interface."""

import io
import json
import os
import pathlib
import random
import subprocess
import sys
import types

import pytest

import pftopt
from pftopt import branch_bound, cli
from pftopt.cli import PARSE_ERROR, USAGE_ERROR, run
from pftopt.linprog import SolveLimits

def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _pmedian_pft(d, p):
    """The p-median model over the n x n distances d as a PFT table, laid out
    as the benchmark's pmedian-lp files: Y<i>_<j> serves demand i from site j,
    X<j> opens site j."""
    n = len(d)
    cons = [f"D{i}" for i in range(n)] + ["P"] + [f"L{i}_{j}" for j in range(n) for i in range(n)]
    col = {name: k for k, name in enumerate(cons)}
    lines = [f"#PFT v1 dir=min title=p-median n={n} p={p}", "var,kind," + ",".join(cons) + ",obj"]
    for j in range(n):
        for i in range(n):
            cells = [""] * len(cons)
            cells[col[f"D{i}"]] = cells[col[f"L{i}_{j}"]] = "1"
            lines.append(f"Y{i}_{j},B," + ",".join(cells) + f",{d[i][j]}")
    for j in range(n):
        cells = [""] * len(cons)
        cells[col["P"]] = "1"
        for i in range(n):
            cells[col[f"L{i}_{j}"]] = "-1"
        lines.append(f"X{j},B," + ",".join(cells) + ",0")
    lines.append("@sense,," + ",".join(["eq"] * (n + 1) + ["le"] * (n * n)) + ",")
    lines.append("@rhs,," + ",".join(["1"] * n + [str(p)] + ["0"] * (n * n)) + ",")
    return "\n".join(lines) + "\n"


class TestSolve:
    def test_shortest_path_fixture(self, fixtures):
        code, out, _ = _run(["solve", "--pft", str(fixtures / "shortest_path.pft.csv")])
        assert code == 0
        assert "status: Optimal" in out
        assert "objective: 1867" in out
        assert "X14" in out and "X47" in out

    def test_json_report_matches_text(self, fixtures):
        path = str(fixtures / "shortest_path.pft.csv")
        code, out, _ = _run(["solve", "--pft", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"status", "objective", "variables", "nodes", "iterations"}
        assert doc["status"] == "Optimal"
        assert doc["objective"] == pytest.approx(1867.0)
        names = {v["name"] for v in doc["variables"]}
        assert names == {"X14", "X47"}

    def test_iterations_are_the_pivots_of_every_node_lp(self, fixtures, monkeypatch):
        pivots = []
        original = branch_bound.solve_lp

        def counting(lp, limits=None):
            outcome = original(lp, limits)
            pivots.append(outcome.iterations)
            return outcome

        monkeypatch.setattr(branch_bound, "solve_lp", counting)
        path = str(fixtures / "warehouse_siting.pft.csv")
        code, out, _ = _run(["solve", "--pft", path, "--deterministic"])
        assert code == 0
        assert len(pivots) > 1 and sum(pivots) > 0
        assert f"iterations: {sum(pivots)}\n" in out
        pivots.clear()
        _, out, _ = _run(["solve", "--pft", path, "--json"])
        assert json.loads(out)["iterations"] == sum(pivots)

    def test_deterministic_output_is_byte_identical(self, fixtures):
        argv = ["solve", "--pft", str(fixtures / "transport_two_warehouse.pft.csv"), "--deterministic"]
        _, first, _ = _run(argv)
        _, second, _ = _run(argv)
        assert first == second
        assert "time_s" not in first

    def test_pivots_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # The README's 12-point p-median: d[i][j] = d[j][i] drawn for i < j.
        rng = random.Random(0)
        d = [[0] * 12 for _ in range(12)]
        for i in range(12):
            for j in range(i + 1, 12):
                d[i][j] = d[j][i] = rng.randint(1, 99)
        path = tmp_path / "pmedian.pft.csv"
        path.write_text(_pmedian_pft(d, 3))
        src = str(pathlib.Path(pftopt.__file__).parents[1])
        script = "import sys; from pftopt.cli import run; sys.exit(run(sys.argv[1:]))"
        argv = [sys.executable, "-c", script, "solve", "--pft", str(path), "--json", "--deterministic"]
        reports = []
        for threads in ("1", "2"):
            pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            reports.append(json.loads(done.stdout))
        assert reports[0]["nodes"] == reports[1]["nodes"]
        assert reports[0]["iterations"] == reports[1]["iterations"]
        assert reports[0]["objective"] == reports[1]["objective"] == 151

    def test_infeasible_exits_2(self, tmp_path):
        text = (
            "#PFT v1 dir=min title=empty region\n"
            "var,kind,a,b,obj\n"
            "x,C,1,1,1\n"
            "@sense,,le,ge,\n"
            "@rhs,,1,2,\n"
        )
        path = tmp_path / "infeasible.pft.csv"
        path.write_text(text)
        code, out, _ = _run(["solve", "--pft", str(path)])
        assert code == 2
        assert "Infeasible" in out

    def test_unbounded_exits_3(self, tmp_path):
        text = (
            "#PFT v1 dir=max title=no ceiling\n"
            "var,kind,obj\n"
            "x,C,1\n"
        )
        path = tmp_path / "unbounded.pft.csv"
        path.write_text(text)
        code, out, _ = _run(["solve", "--pft", str(path)])
        assert code == 3
        assert "Unbounded" in out

    def test_overflowing_objective_exits_1(self, tmp_path):
        # x = 1e308 meets the row, but the objective 1e308 * 1e308 overflows.
        path = tmp_path / "overflow.pft.csv"
        path.write_text(
            "#PFT v1 dir=max title=overflow\n"
            "var,kind,cap,obj\n"
            "x,C,1,1e308\n"
            "y,C,1,1e308\n"
            "@sense,,le,\n"
            "@rhs,,1e308,\n"
        )
        code, out, err = _run(["solve", "--pft", str(path), "--deterministic"])
        assert code == 1
        assert out.startswith("status: Numerical\n") and "objective" not in out
        assert err == ""  # the overflow is the status, not an input warning

    def test_a_tiny_coefficient_on_an_integer_column_solves(self, tmp_path):
        # Propagating the branch on R1's y divides its room, about 1e10, by
        # 1e-300: the cap on x overflows and must leave x's bound alone.
        path = tmp_path / "tiny.pft.csv"
        path.write_text(
            "#PFT v1 dir=max title=tiny coefficient\n"
            "var,kind,R1,R2,obj,lb,ub\n"
            "x,I,1e-300,1,1,0,10\n"
            "y,I,1,2,1.5,0,10\n"
            "@sense,,le,le,\n"
            "@rhs,,1e10,27,\n"
        )
        code, out, err = _run(["solve", "--pft", str(path), "--deterministic"])
        assert (code, err) == (0, "")
        assert out.startswith("status: Optimal\n") and "objective: 22.5\n" in out

    def test_report_keeps_12_significant_digits(self, tmp_path):
        path = tmp_path / "large.pft.csv"
        path.write_text("#PFT v1 dir=min title=t\nvar,kind,obj,lb,ub\nx,C,1,1234567.5,\n")
        code, out, _ = _run(["solve", "--pft", str(path), "--deterministic"])
        assert code == 0
        assert "objective: 1234567.5\n" in out and "  x = 1234567.5\n" in out

    @pytest.mark.parametrize("command", ["solve", "color"])
    def test_time_s_spans_the_input_read(self, fixtures, monkeypatch, command):
        # A fake clock that only reading the input advances: every command
        # starts timing before its read, so each reports exactly that second.
        now = [0.0]
        read = cli._read

        def slow_read(path):
            now[0] += 1.0
            return read(path)

        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(cli, "_read", slow_read)
        argv = {
            "solve": ["solve", "--pft", str(fixtures / "shortest_path.pft.csv")],
            "color": ["color", "--gal", str(fixtures / "demo.gal"), "--max-colors", "3"],
        }[command]
        code, out, _ = _run(argv)
        assert code == 0
        assert out.endswith("time_s: 1.000\n")

    def test_malformed_pft_exits_65(self, tmp_path):
        path = tmp_path / "bad.pft.csv"
        path.write_text("var,kind,obj\nx,C,1\n")
        code, _, err = _run(["solve", "--pft", str(path)])
        assert code == PARSE_ERROR
        assert "parse error" in err

    @pytest.mark.parametrize("command", ["solve", "audit"])
    def test_non_numeric_bound_exits_65(self, tmp_path, command):
        path = tmp_path / "bad.pft.csv"
        path.write_text(
            "#PFT v1 dir=max title=t\n"
            "var,kind,land,obj,lb,ub\n"
            "x1,C,1,3,,abc\n"
            "@sense,,le,\n"
            "@rhs,,10,\n"
        )
        code, _, err = _run([command, "--pft", str(path)])
        assert code == PARSE_ERROR
        assert "line 3, column 6" in err

    @pytest.mark.parametrize("command", ["solve", "audit"])
    @pytest.mark.parametrize(
        "header, row, where",
        [
            ("var,kind,land,land,obj", "x1,C,1,1,3", "line 2, column 4"),
            ("var,kind,land,obj", "x1,C,nan,3", "line 3, column 3"),
            ("var,kind,land,obj,lb,ub", "x1,C,1,3,nan,", "line 3, column 5"),
        ],
        ids=["duplicate-column", "nan-coeff", "nan-lb"],
    )
    def test_bad_table_cell_exits_65(self, tmp_path, command, header, row, where):
        path = tmp_path / "bad.pft.csv"
        path.write_text(f"#PFT v1 dir=max title=t\n{header}\n{row}\n@sense,,le,le,\n@rhs,,9,9,\n")
        code, _, err = _run([command, "--pft", str(path)])
        assert code == PARSE_ERROR
        assert where in err

    @pytest.mark.parametrize("command", ["solve", "audit"])
    @pytest.mark.parametrize("tag", ["@sense,,ge,", "@rhs,,9,"], ids=["sense", "rhs"])
    def test_repeated_tag_line_exits_65(self, tmp_path, command, tag):
        path = tmp_path / "twice.pft.csv"
        path.write_text(
            f"#PFT v1 dir=max title=t\nvar,kind,cap,obj\nx,C,1,1\n@sense,,le,\n@rhs,,4,\n{tag}\n"
        )
        code, out, err = _run([command, "--pft", str(path)])
        assert code == PARSE_ERROR
        repeated = tag.split(",")[0]
        assert out == "" and err == f"parse error: repeated {repeated} line (line 6)\n"

    @pytest.mark.parametrize("bounds", ["inf,", ",-inf"], ids=["lb-inf", "ub-minus-inf"])
    def test_bound_admitting_no_value_exits_64(self, tmp_path, bounds):
        path = tmp_path / "empty.pft.csv"
        path.write_text(f"#PFT v1 dir=min title=t\nvar,kind,obj,lb,ub\nx,C,1,{bounds}\n")
        code, out, err = _run(["solve", "--pft", str(path)])
        assert code == USAGE_ERROR
        assert out == "" and "error:" in err

    def test_missing_file_exits_64(self):
        code, _, _ = _run(["solve", "--pft", "/nonexistent.pft.csv"])
        assert code == USAGE_ERROR

    def test_missing_network_exits_64_naming_the_path(self, tmp_path):
        missing = str(tmp_path / "absent.net.csv")
        code, out, err = _run(["shortest-path", "--net", missing, "--source", "1", "--sink", "2"])
        assert (code, out) == (USAGE_ERROR, "")
        assert err.startswith("error: ") and missing in err

    def test_column_flags_are_gone(self, tmp_path):
        code, out, err = _run(["tour", "--dist", str(tmp_path / "d.csv"), "--from-col", "0"])
        assert (code, out) == (USAGE_ERROR, "")
        assert "unrecognized arguments: --from-col 0" in err

    def test_unknown_subcommand_exits_64(self):
        code, _, _ = _run(["frobnicate"])
        assert code == USAGE_ERROR

    def test_missing_required_option_writes_usage_to_stderr(self, capsys):
        code, out, err = _run(["tour"])
        assert (code, out) == (USAGE_ERROR, "")
        assert err.startswith("usage: pftopt tour")
        assert "the following arguments are required: --dist" in err
        assert capsys.readouterr() == ("", "")

    def test_help_writes_to_stdout(self, capsys):
        code, out, err = _run(["tour", "--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: pftopt tour") and "--force-arc I,J" in out
        assert capsys.readouterr() == ("", "")


class TestAudit:
    def test_clean_fixture(self, fixtures):
        code, out, _ = _run(["audit", "--pft", str(fixtures / "transport_two_warehouse.pft.csv")])
        assert code == 0
        assert out == "no findings\n"

    def test_findings_reported(self, tmp_path):
        text = (
            "#PFT v1 dir=min title=loose\n"
            "var,kind,cap,obj\n"
            "x1,C,1,1\n"
            "x2,C,,1\n"
            "@sense,,le,\n"
            "@rhs,,9,\n"
        )
        path = tmp_path / "loose.pft.csv"
        path.write_text(text)
        code, out, _ = _run(["audit", "--pft", str(path)])
        assert code == 0
        assert "UbRowSingleton" in out
        assert "ZeroRow" in out

    def test_json_findings(self, tmp_path):
        path = tmp_path / "loose.pft.csv"
        path.write_text(
            "#PFT v1 dir=min title=loose\n"
            "var,kind,cap,obj\n"
            "x1,C,1,1\n"
            "@sense,,le,\n"
            "@rhs,,9,\n"
        )
        code, out, _ = _run(["audit", "--pft", str(path), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc and all({"kind", "subject", "message"} <= set(f) for f in doc)


class TestNetworkCommands:
    def test_shortest_path(self, fixtures):
        code, out, _ = _run(
            [
                "shortest-path",
                "--net", str(fixtures / "intercity_road.net.csv"),
                "--source", "1",
                "--sink", "7",
            ]
        )
        assert code == 0
        assert "objective: 1867" in out

    def test_maxflow(self, fixtures):
        code, out, _ = _run(
            [
                "maxflow",
                "--net", str(fixtures / "capacitated.net.csv"),
                "--source", "1",
                "--sink", "7",
            ]
        )
        assert code == 0
        assert "objective: 9" in out

    def test_maxflow_sink_cap(self, fixtures):
        code, out, _ = _run(
            [
                "maxflow",
                "--net", str(fixtures / "capacitated.net.csv"),
                "--source", "1",
                "--sink", "7",
                "--sink-cap", "5",
            ]
        )
        assert code == 0
        assert "objective: 5" in out

    def test_flow_capture(self, tmp_path):
        # two parallel two-hop routes; one placement captures the heavier one
        net = tmp_path / "net.csv"
        net.write_text(
            "tail,head,weight,capacity\n1,2,4,\n2,9,4,\n1,3,1,\n3,9,1,\n"
        )
        code, out, _ = _run(
            [
                "flow-capture",
                "--net", str(net),
                "--source", "1",
                "--sink", "9",
                "--placements", "1",
            ]
        )
        assert code == 0
        assert "objective: 4" in out
        assert "X2" in out

    def test_flow_capture_mixed_int_and_text_ids(self, tmp_path):
        net = tmp_path / "net.csv"
        net.write_text("tail,head,weight,capacity\n1,hub,3,\nhub,2,4,\n1,2,9,\n")
        code, out, err = _run(
            ["flow-capture", "--net", str(net), "--source", "1", "--sink", "2",
             "--placements", "1", "--deterministic"]
        )
        assert (code, err) == (0, "")
        assert "objective: 3\n" in out
        assert "  Xhub = 1\n" in out and "  Y1 = 1\n" in out

    def test_zero_padded_ids_are_distinct_nodes(self, tmp_path):
        net = tmp_path / "net.csv"
        net.write_text("tail,head,weight\n01,2,5\n1,2,7\n")
        code, out, err = _run(["shortest-path", "--net", str(net), "--source", "1", "--sink", "2"])
        assert (code, err) == (0, "")
        assert "objective: 7\n" in out


    @pytest.mark.parametrize(
        "command, row, message",
        [
            ("shortest-path", "1,2,abc,", "line 3: weight 'abc' is not numeric"),
            ("maxflow", "1,2", "line 3: rows need tail,head,weight[,capacity]"),
            ("flow-capture", "1,2,nan,", "line 3: weight 'nan' must be finite and non-negative"),
            ("maxflow", "1,2,1,-4", "line 3: capacity '-4' must be non-negative"),
            ("shortest-path", ",3,5,", "line 3: tail id is blank"),
        ],
        ids=["non-numeric-weight", "short-row", "nan-weight", "negative-capacity", "blank-tail"],
    )
    def test_bad_network_row_exits_65(self, tmp_path, command, row, message):
        net = tmp_path / "net.csv"
        net.write_text(f"tail,head,weight,capacity\n2,3,1,\n{row}\n")
        extra = ["--placements", "1"] if command == "flow-capture" else []
        code, out, err = _run([command, "--net", str(net), "--source", "1", "--sink", "3"] + extra)
        assert code == PARSE_ERROR
        assert out == "" and err == f"parse error: {message}\n"


class TestSpatialCommands:
    def test_color_infeasible_exit_2(self, fixtures):
        code, out, _ = _run(
            ["color", "--gal", str(fixtures / "demo.gal"), "--max-colors", "1"]
        )
        assert code == 2
        assert "Infeasible" in out
        assert out == "status: Infeasible\nno coloring with up to 1 colors\n"

    def test_color_json(self, fixtures):
        demo = str(fixtures / "demo.gal")
        code, out, _ = _run(["color", "--gal", demo, "--max-colors", "1", "--json"])
        assert code == 2
        assert out == json.dumps({"status": "Infeasible", "max_colors": 1}, indent=2) + "\n"
        code, out, _ = _run(["color", "--gal", demo, "--max-colors", "3", "--json"])
        assert code == 0
        doc = {"status": "Optimal", "colors": 2, "assignment": {"A": 0, "C": 0, "B": 1}}
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_color_unresolved_scan_reports_its_status(self, fixtures, monkeypatch):
        original = branch_bound.solve_mip

        def capped(mip, limits=None):
            return original(mip, SolveLimits(max_iterations=5))

        monkeypatch.setattr(branch_bound, "solve_mip", capped)
        argv = ["color", "--gal", str(fixtures / "neighborhoods.gal"), "--max-colors", "4"]
        assert _run(argv) == (1, "status: IterationLimit\n", "")
        doc = {"status": "IterationLimit", "max_colors": 4}
        assert _run(argv + ["--json"]) == (1, json.dumps(doc, indent=2) + "\n", "")

    def test_color_writes_assignment(self, fixtures, tmp_path):
        out_path = tmp_path / "colors.csv"
        code, out, _ = _run(
            [
                "color",
                "--gal", str(fixtures / "demo.gal"),
                "--max-colors", "3",
                "--out", str(out_path),
                "--deterministic",
            ]
        )
        assert code == 0
        assert "colors: 2" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "id,Color"
        assert len(lines) == 4

    def test_unwritable_out_exits_64(self, fixtures, tmp_path):
        code, out, err = _run(
            ["color", "--gal", str(fixtures / "demo.gal"), "--max-colors", "3",
             "--out", str(tmp_path), "--deterministic"]
        )
        assert code == USAGE_ERROR
        assert "colors: 2" in out
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_input_warnings_reach_stderr_on_every_call(self, tmp_path, capsys):
        path = tmp_path / "loose.gal"
        path.write_text("0 3 x id\n1 1\n2\n2 2\n1 4\n3 0\n")
        argv = ["color", "--gal", str(path), "--max-colors", "2", "--deterministic"]
        runs = [_run(argv) for _ in range(2)]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 0 and out.startswith("status: Optimal\n")
        assert err == (
            "warning: neighbor ids not listed as areas: ['4']\n"
            "warning: asymmetric neighbor mentions: [('2', '4')]\n"
        )
        assert capsys.readouterr() == ("", "")

    def test_cover(self, fixtures):
        code, out, _ = _run(["cover", "--gal", str(fixtures / "neighborhoods.gal")])
        assert code == 0
        assert "objective: 3" in out

    def test_malformed_gal_exits_65(self, tmp_path):
        path = tmp_path / "bad.gal"
        path.write_text("0 2 demo id\nA 1\n")
        code, _, err = _run(["color", "--gal", str(path), "--max-colors", "2"])
        assert code == PARSE_ERROR
        assert "parse error" in err

    @pytest.mark.parametrize(
        "command", [["cover"], ["color", "--max-colors", "2"]], ids=["cover", "color"]
    )
    def test_gal_record_beyond_declared_count_exits_65(self, tmp_path, command):
        path = tmp_path / "extra.gal"
        path.write_text("0 2 x id\n1 1\n2\n2 1\n1\n3 1\n1\n")
        code, out, err = _run([command[0], "--gal", str(path), *command[1:]])
        assert code == PARSE_ERROR
        assert out == "" and err == "parse error: record beyond the 2 declared areas (line 6)\n"

    def test_gal_negative_area_count_exits_65(self, tmp_path):
        path = tmp_path / "negative.gal"
        path.write_text("0 -3 x y\n")
        code, out, err = _run(["cover", "--gal", str(path)])
        assert code == PARSE_ERROR
        assert out == "" and err == "parse error: area count -3 is negative (line 1)\n"


class TestTableCommands:
    def test_transport_fixed(self, tmp_path):
        cost = tmp_path / "cost.csv"
        rows = ["from,to,cost"]
        for i, per_store in zip("AB", ((2, 4, 5, 2, 1), (3, 1, 3, 2, 3))):
            rows.extend(f"{i},{j + 1},{c}" for j, c in enumerate(per_store))
        cost.write_text("\n".join(rows) + "\n")
        code, out, _ = _run(
            [
                "transport",
                "--cost", str(cost),
                "--demand", "500,900,1800,200,700",
                "--capacity", "1000,3200",
            ]
        )
        assert code == 0
        assert "objective: 8600" in out

    def test_transport_design_capacity(self, tmp_path):
        cost = tmp_path / "cost.csv"
        rows = ["from,to,cost"]
        for i, per_store in zip("AB", ((2, 4, 5, 2, 1), (3, 1, 3, 2, 3))):
            rows.extend(f"{i},{j + 1},{c}" for j, c in enumerate(per_store))
        cost.write_text("\n".join(rows) + "\n")
        code, out, _ = _run(
            [
                "transport",
                "--cost", str(cost),
                "--demand", "500,900,1800,200,700",
                "--design-capacity",
            ]
        )
        assert code == 0
        assert "objective: 8400" in out

    def test_transport_requires_capacity_flag(self, tmp_path):
        cost = tmp_path / "cost.csv"
        cost.write_text("from,to,cost\nA,1,2\n")
        code, _, err = _run(
            ["transport", "--cost", str(cost), "--demand", "5"]
        )
        assert code == USAGE_ERROR

    def test_transport_takes_one_capacity_flag(self, tmp_path, capsys):
        """With both flags the capacities would be dropped: 1,1 cannot meet
        demand 5,5, yet the design capacity solves."""
        cost = tmp_path / "cost.csv"
        cost.write_text("from,to,cost\nA,1,2\nA,2,3\nB,1,4\nB,2,5\n")
        code, out, err = _run(
            ["transport", "--cost", str(cost), "--demand", "5,5",
             "--capacity", "1,1", "--design-capacity"]
        )
        assert (code, out) == (USAGE_ERROR, "")
        assert "not allowed with argument" in err
        assert capsys.readouterr().err == ""

    def test_facility(self, tmp_path):
        cost = tmp_path / "unit.csv"
        rows = ["facility,store,cost"]
        unit = ((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5), (5, 4, 3, 2, 1))
        for i, per_store in enumerate(unit, start=1):
            rows.extend(f"{i},{j + 1},{c}" for j, c in enumerate(per_store))
        cost.write_text("\n".join(rows) + "\n")
        code, out, _ = _run(
            [
                "facility",
                "--cost", str(cost),
                "--demand", "10,20,30,40,50",
                "--capacity", "60,10,50,55",
                "--fixed", "20,30,20,30",
            ]
        )
        assert code == 0
        assert "objective: 410" in out

    def test_service(self, tmp_path):
        dist = tmp_path / "dist.csv"
        rows = ["demand,candidate,distance"]
        d = ((1, 9), (9, 1))
        for i in (1, 2):
            rows.extend(f"{i},{j + 1},{d[i - 1][j]}" for j in range(2))
        dist.write_text("\n".join(rows) + "\n")
        code, out, _ = _run(["service", "--dist", str(dist), "--open", "1"])
        assert code == 0
        assert "objective: 10" in out

    @pytest.mark.parametrize(
        "command, cell", [(["service", "--open", "1"], "nan"), (["tour"], "inf")],
        ids=["service-nan", "tour-inf"],
    )
    def test_bad_distance_cell_exits_65(self, tmp_path, command, cell):
        dist = tmp_path / "dist.csv"
        dist.write_text(f"from,to,dist\n1,1,0\n1,2,{cell}\n2,1,5\n2,2,0\n")
        code, out, err = _run([command[0], "--dist", str(dist)] + command[1:])
        assert code == PARSE_ERROR
        assert out == "" and f"line 3: distance '{cell}' must be finite" in err

    @pytest.fixture
    def square(self, tmp_path):
        dist = tmp_path / "square.csv"
        rows = ["from,to,dist"]
        d = {
            (1, 2): 1, (2, 1): 1, (1, 3): 9, (3, 1): 9, (1, 4): 4, (4, 1): 4,
            (2, 3): 2, (3, 2): 2, (2, 4): 8, (4, 2): 8, (3, 4): 3, (4, 3): 3,
            (1, 1): 0, (2, 2): 0, (3, 3): 0, (4, 4): 0,
        }
        rows.extend(f"{a},{b},{v}" for (a, b), v in sorted(d.items()))
        dist.write_text("\n".join(rows) + "\n")
        return str(dist)

    def test_tour_with_force_arc(self, square):
        code, out, _ = _run(["tour", "--dist", square])
        assert code == 0
        assert "objective: 10" in out  # 1-2-3-4-1 = 1+2+3+4
        code, out, _ = _run(["tour", "--dist", square, "--force-arc", "1,3"])
        assert code == 0
        assert "objective: 10" not in out

    def test_forced_arc_does_not_leak_into_the_next_run(self, square):
        """The parser is built once per process; a repeated option's list must
        start empty on every call."""
        code, out, _ = _run(["tour", "--dist", square, "--force-arc", "1,3"])
        assert code == 0 and "objective: 10" not in out
        code, out, _ = _run(["tour", "--dist", square])
        assert code == 0 and "objective: 10" in out


class TestArgumentErrors:
    """Out-of-range counts, bad amounts and malformed option values exit 64
    with a message naming the bad item."""

    @pytest.fixture
    def inputs(self, tmp_path, fixtures):
        two = tmp_path / "two.csv"
        two.write_text("from,to,cost\n1,1,0\n1,2,2\n2,1,2\n2,2,0\n")
        tour = tmp_path / "tour.csv"
        tour.write_text("from,to,dist\n" + "".join(
            f"{i},{j},{0 if i == j else i + j}\n" for i in range(1, 5) for j in range(1, 5)))
        eleven = tmp_path / "eleven.csv"
        eleven.write_text("from,to,dist\n" + "".join(
            f"{i},{j},{abs(i - j)}\n" for i in range(1, 12) for j in range(1, 12)))
        return {"two": str(two), "tour": str(tour), "eleven": str(eleven),
                "gal": str(fixtures / "demo.gal"),
                "net": str(fixtures / "capacitated.net.csv"),
                "road": str(fixtures / "intercity_road.net.csv")}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["service", "--dist", "{two}", "--open", "-1"], "p must be >= 0, got -1"),
            (["color", "--gal", "{gal}", "--max-colors", "0"], "max_colors must be >= 1, got 0"),
            (["maxflow", "--net", "{net}", "--source", "1", "--sink", "7", "--sink-cap", "-1"],
             "sink_cap must be finite and non-negative, got -1"),
            (["transport", "--cost", "{two}", "--demand=-3,-3", "--capacity", "9,9"],
             "demand of store 1 must be finite and non-negative, got -3"),
            (["transport", "--cost", "{two}", "--demand", "3,3", "--capacity=9,-9"],
             "capacity of supplier 2 must be finite and non-negative, got -9"),
            (["facility", "--cost", "{two}", "--demand", "3,3", "--capacity=-5,20",
              "--fixed", "1,1"], "capacity of facility 1 must be finite and non-negative, got -5"),
            (["facility", "--cost", "{two}", "--demand", "3,3", "--capacity", "9,9",
              "--fixed", "20,x"], "--fixed: 'x' is not a number"),
            (["facility", "--cost", "{two}", "--demand", "3,3", "--capacity", "9,9",
              "--fixed", "nan,1"],
             "fixed cost of facility 1 must be finite and non-negative, got nan"),
            (["transport", "--cost", "{two}", "--demand", "3,y", "--design-capacity"],
             "--demand: 'y' is not a number"),
            (["tour", "--dist", "{tour}", "--force-arc", "1"], "--force-arc expects I,J, got '1'"),
            (["tour", "--dist", "{tour}", "--force-arc", "1,2,3"],
             "--force-arc expects I,J, got '1,2,3'"),
            (["tour", "--dist", "{tour}", "--force-arc", "1,"], "--force-arc expects I,J, got '1,'"),
            (["cover", "--gal", "{gal}", "--cost", "1,nan,1"],
             "cost of area B must be finite and positive, got nan"),
            (["cover", "--gal", "{gal}", "--cost", "1,1,inf"],
             "cost of area C must be finite and positive, got inf"),
            (["flow-capture", "--net", "{road}", "--source", "99", "--sink", "7",
              "--placements", "2"], "source or sink not in network"),
            # Arc names concatenate ids: (1, 11) and (11, 1) are both X111.
            (["tour", "--dist", "{eleven}"], "variable names must be unique; 'X111' repeats"),
        ],
        ids=["open-negative", "max-colors-zero", "sink-cap-negative", "demand-negative",
             "capacity-negative", "facility-capacity-negative", "fixed-not-a-number", "fixed-nan",
             "demand-not-a-number", "force-arc-one-end", "force-arc-three-ends",
             "force-arc-blank-end", "cover-cost-nan", "cover-cost-inf",
             "flow-capture-source-outside", "tour-arc-names-collide"],
    )
    def test_exits_64_naming_the_item(self, inputs, argv, message):
        code, out, err = _run([arg.format(**inputs) for arg in argv])
        assert code == USAGE_ERROR
        assert out == "" and err == f"error: {message}\n"
