"""Tests for the formulation-table parser, auditor, and compiler."""

import math

import pytest

from pftopt.branch_bound import VarKind, solve_mip
from pftopt.linprog import MalformedProblemError, Status, solve_lp
from pftopt.pft import (
    AuditKind,
    PftParseError,
    audit_pft,
    compile_pft,
    parse_pft,
    render_pft,
)

SIMPLE = """#PFT v1 dir=max title=two crops
var,kind,land,obj
x1,C,1,3
x2,C,1,2
@sense,,le,
@rhs,,10,
"""

BOUNDED = """#PFT v1 dir=max title=bounded
var,kind,land,obj,lb,ub
{row}
@sense,,le,
@rhs,,10,
"""


class TestParse:
    def test_simple_table(self):
        table = parse_pft(SIMPLE)
        assert table.direction == "max"
        assert table.title == "two crops"
        assert [name for name, _ in table.variables] == ["x1", "x2"]
        assert [kind for _, kind in table.variables] == [VarKind.CONTINUOUS] * 2
        assert len(table.constraint_columns) == 1
        name, sense, coeffs, rhs = table.constraint_columns[0]
        assert (name, sense, rhs) == ("land", "le", 10.0)
        assert coeffs == (1.0, 1.0)
        assert table.objective == (3.0, 2.0)

    def test_blank_cells_become_zero(self):
        text = SIMPLE.replace("x2,C,1,2", "x2,C,,2")
        table = parse_pft(text)
        assert table.constraint_columns[0][2] == (1.0, 0.0)

    def test_missing_pragma(self):
        with pytest.raises(PftParseError) as err:
            parse_pft("var,kind,obj\nx,C,1\n")
        assert err.value.line == 1

    def test_ragged_row_names_line(self):
        text = SIMPLE.replace("x2,C,1,2", "x2,C")
        with pytest.raises(PftParseError) as err:
            parse_pft(text)
        assert err.value.line == 4

    def test_unknown_kind(self):
        with pytest.raises(PftParseError):
            parse_pft(SIMPLE.replace("x1,C", "x1,Q"))

    def test_unknown_sense(self):
        with pytest.raises(PftParseError):
            parse_pft(SIMPLE.replace("@sense,,le,", "@sense,,lt,"))

    def test_duplicate_variable_names(self):
        with pytest.raises(PftParseError):
            parse_pft(SIMPLE.replace("x2,C,1,2", "x1,C,1,2"))

    @pytest.mark.parametrize("row, column", [("x1,C,1,3,,abc", 6), ("x1,C,1,3,abc,", 5)])
    def test_non_numeric_bound_names_its_cell(self, row, column):
        with pytest.raises(PftParseError) as err:
            parse_pft(BOUNDED.format(row=row))
        assert (err.value.line, err.value.column) == (3, column)

    def test_blank_bound_cells_mean_the_default(self):
        assert parse_pft(BOUNDED.format(row="x1,C,1,3,,4")).bounds == ((None, 4.0),)

    def test_table3_shape(self, fixtures):
        table = parse_pft((fixtures / "shortest_path.pft.csv").read_text())
        assert len(table.variables) == 12
        assert len(table.constraint_columns) == 13
        senses = [sense for _, sense, _, _ in table.constraint_columns]
        assert senses == ["eq"] * 7 + ["le"] * 6


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "shortest_path.pft.csv",
            "transport_two_warehouse.pft.csv",
            "maxflow_seven_node.pft.csv",
            "warehouse_siting.pft.csv",
        ],
    )
    def test_fixture_round_trips(self, fixtures, name):
        table = parse_pft((fixtures / name).read_text())
        assert parse_pft(render_pft(table)) == table

    def test_simple_round_trips(self):
        table = parse_pft(SIMPLE)
        assert parse_pft(render_pft(table)) == table


class TestAudit:
    def test_clean_table_has_no_findings(self):
        assert audit_pft(parse_pft(SIMPLE)).findings == ()

    def test_zero_column(self, fixtures):
        # Re-add the all-zero input column for the start node that the
        # fixture drops.
        text = (fixtures / "shortest_path.pft.csv").read_text()
        lines = text.splitlines()
        lines[1] = lines[1].replace(",I2,", ",I1,I2,")
        out = [lines[0], lines[1]]
        for row in lines[2:14]:
            cells = row.split(",")
            cells.insert(9, "")
            out.append(",".join(cells))
        sense = lines[14].split(",")
        sense.insert(9, "le")
        rhs = lines[15].split(",")
        rhs.insert(9, "1")
        out.append(",".join(sense))
        out.append(",".join(rhs))
        table = parse_pft("\n".join(out) + "\n")
        kinds = {f.kind for f in audit_pft(table)}
        assert AuditKind.ZERO_COLUMN in kinds
        zero_cols = [f.subject for f in audit_pft(table) if f.kind is AuditKind.ZERO_COLUMN]
        assert zero_cols == ["I1"]
        # audit soundness: the flagged column does not affect the optimum
        out_mip = solve_mip(compile_pft(table))
        assert out_mip.objective_value == pytest.approx(1867.0)

    def test_eq_column_singleton(self):
        text = (
            "#PFT v1 dir=min title=t\n"
            "var,kind,fix,obj\n"
            "x1,C,1,1\n"
            "x2,C,,1\n"
            "@sense,,eq,\n"
            "@rhs,,4,\n"
        )
        findings = audit_pft(parse_pft(text)).findings
        assert [f.kind for f in findings if f.kind is AuditKind.EQ_COLUMN_SINGLETON] == [
            AuditKind.EQ_COLUMN_SINGLETON
        ]

    def test_zero_row(self):
        text = SIMPLE.replace("x2,C,1,2", "x2,C,,2")
        findings = audit_pft(parse_pft(text))
        assert any(f.kind is AuditKind.ZERO_ROW and f.subject == "x2" for f in findings)

    def test_ub_row_singleton(self):
        text = (
            "#PFT v1 dir=min title=t\n"
            "var,kind,cap,obj\n"
            "x1,C,1,1\n"
            "@sense,,le,\n"
            "@rhs,,9,\n"
        )
        findings = audit_pft(parse_pft(text))
        assert any(f.kind is AuditKind.UB_ROW_SINGLETON for f in findings)

    def test_audit_does_not_mutate(self):
        table = parse_pft(SIMPLE)
        before = render_pft(table)
        audit_pft(table)
        assert render_pft(table) == before


class TestCompile:
    def test_simple_solves(self):
        out = solve_mip(compile_pft(parse_pft(SIMPLE)))
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(30.0)

    def test_bounds_only_problem(self):
        text = (
            "#PFT v1 dir=min title=bounds only\n"
            "var,kind,obj,lb,ub\n"
            "x,C,1,2,5\n"
        )
        out = solve_lp(compile_pft(parse_pft(text)).base)
        assert out.status is Status.OPTIMAL
        assert out.objective_value == pytest.approx(2.0)

    def test_kind_defaults(self):
        table = parse_pft(SIMPLE)
        mip = compile_pft(table)
        assert mip.base.lo.tolist() == [0.0, 0.0]
        assert mip.base.hi.tolist() == [math.inf, math.inf]

    def test_binary_gets_unit_box(self, fixtures):
        mip = compile_pft(parse_pft((fixtures / "shortest_path.pft.csv").read_text()))
        assert set(zip(mip.base.lo.tolist(), mip.base.hi.tolist())) == {(0.0, 1.0)}
        assert set(mip.kinds) == {VarKind.BINARY}

    def test_upper_bounds_from_columns(self, fixtures):
        mip = compile_pft(parse_pft((fixtures / "maxflow_seven_node.pft.csv").read_text()))
        assert (mip.base.lo[0], mip.base.hi[0]) == (0.0, 5.0)
        assert mip.base.direction == "max"

    def test_lb_above_ub_rejected(self):
        text = (
            "#PFT v1 dir=min title=bad\n"
            "var,kind,obj,lb,ub\n"
            "x,C,1,5,2\n"
        )
        with pytest.raises(MalformedProblemError):
            compile_pft(parse_pft(text))

    def test_binary_with_explicit_bounds_rejected(self):
        text = (
            "#PFT v1 dir=min title=bad\n"
            "var,kind,obj,lb,ub\n"
            "x,B,1,0,1\n"
        )
        with pytest.raises(PftParseError):
            parse_pft(text)
