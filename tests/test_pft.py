"""Tests for the formulation-table parser, auditor, and compiler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert table.names == ("x1", "x2")
        assert table.kinds == (VarKind.CONTINUOUS,) * 2
        assert len(table.constraints) == 1
        assert (table.constraints[0], table.senses[0], table.b[0]) == ("land", "le", 10.0)
        assert table.A[0].tolist() == [1.0, 1.0]
        assert table.c.tolist() == [3.0, 2.0]

    def test_blank_cells_become_zero(self):
        text = SIMPLE.replace("x2,C,1,2", "x2,C,,2")
        table = parse_pft(text)
        assert table.A[0].tolist() == [1.0, 0.0]

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

    @pytest.mark.parametrize("line", ["@sense,,ge,", "@rhs,,9,"], ids=["sense", "rhs"])
    def test_repeated_tag_line_is_an_error(self, line):
        """A second line would silently replace the first (max x solved to 9,
        or Unbounded)."""
        text = f"#PFT v1 dir=max title=t\nvar,kind,cap,obj\nx,C,1,1\n@sense,,le,\n@rhs,,4,\n{line}"
        tag = line.split(",")[0]
        with pytest.raises(PftParseError, match=f"^repeated {tag} line \\(line 6\\)$"):
            parse_pft(text)

    @pytest.mark.parametrize(
        "row, column",
        [("x1,C,1,3,,abc", 6), ("x1,C,1,3,abc,", 5), ("x1,C,1,3,nan,", 5), ("x1,C,1,3,,nan", 6)],
    )
    def test_non_numeric_bound_names_its_cell(self, row, column):
        with pytest.raises(PftParseError) as err:
            parse_pft(BOUNDED.format(row=row))
        assert (err.value.line, err.value.column) == (3, column)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            (SIMPLE.replace("var,kind,land,obj", "var,kind,land,land,obj"), 2, 4),
            (BOUNDED.format(row="x1,C,nan,3,,"), 3, 3),
            (BOUNDED.format(row="x1,C,-inf,3,,"), 3, 3),
            (BOUNDED.format(row="x1,C,1,inf,,"), 3, 4),
            (BOUNDED.format(row="x1,C,1,3,,").replace("@rhs,,10,", "@rhs,,inf,"), 5, 3),
        ],
        ids=["duplicate-column", "nan-coef", "inf-coef", "inf-obj", "inf-rhs"],
    )
    def test_bad_cell_names_its_position(self, text, line, column):
        with pytest.raises(PftParseError) as err:
            parse_pft(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_first_bad_line_is_reported(self):
        # A NaN coefficient on line 3 comes before a bad kind letter on line 5.
        text = SIMPLE.replace("x1,C,1,3", "x1,C,nan,3").replace("x2,C,1,2", "x2,C,1,2\nx3,Q,1,1")
        with pytest.raises(PftParseError, match="^cell 'nan' is not a finite number") as err:
            parse_pft(text)
        assert (err.value.line, err.value.column) == (3, 3)

    def test_bad_coefficient_comes_before_bad_objective(self):
        with pytest.raises(PftParseError, match="^cell 'abc' is not numeric") as err:
            parse_pft(BOUNDED.format(row="x1,C,abc,nan,,"))
        assert (err.value.line, err.value.column) == (3, 3)

    def test_finite_cells_whose_sum_overflows_parse(self):
        # 1e308 + 1e308 is inf, yet each cell is a finite number.
        table = parse_pft(BOUNDED.format(row="x1,C,1e308,1e308,,"))
        assert (table.A[0].tolist(), table.c.tolist()) == ([1e308], [1e308])

    @pytest.mark.parametrize("cell", [" 2 ", "\t2", "  "], ids=["spaces", "tab", "blank"])
    def test_cells_read_as_stripped(self, cell):
        table = parse_pft(BOUNDED.format(row=f"x1,C,{cell},3,,"))
        assert table.A[0].tolist() == [0.0 if cell.isspace() else 2.0]

    def test_tag_lines_may_come_first(self):
        text = "#PFT v1 dir=max title=two crops\nvar,kind,land,obj\n@rhs,,10,\n@sense,,le,\n"
        assert parse_pft(text + "x1,C,1,3\nx2,C,1,2\n") == parse_pft(SIMPLE)

    def test_infinite_bound_cells_are_valid(self):
        table = parse_pft(BOUNDED.format(row="x1,C,1,3,-inf,inf"))
        assert (table.lo.tolist(), table.hi.tolist()) == ([-math.inf], [math.inf])

    def test_blank_bound_cells_mean_the_default(self):
        table = parse_pft(BOUNDED.format(row="x1,C,1,3,,4"))
        assert (table.lo.tolist(), table.hi.tolist()) == ([0.0], [4.0])

    def test_table3_shape(self, fixtures):
        table = parse_pft((fixtures / "shortest_path.pft.csv").read_text())
        assert len(table.names) == 12
        assert len(table.constraints) == 13
        assert list(table.senses) == ["eq"] * 7 + ["le"] * 6


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

    @pytest.mark.parametrize(
        "text",
        [
            BOUNDED.format(row="x1,C,1,1,-inf,"),
            "#PFT v1 dir=min title=fractions\n"
            "var,kind,a,b,obj,lb,ub\n"
            "x1,C,2.5,-3.75,0.25,-3.75,\n"
            "x2,I,0.25,,-2.5,,0.5\n"
            "@sense,,le,ge,\n"
            "@rhs,,0.25,-3.75,\n",
        ],
        ids=["free-variable", "fractions"],
    )
    def test_infinite_and_fractional_cells_round_trip(self, text):
        table = parse_pft(text)
        assert parse_pft(render_pft(table)) == table

    def test_default_bounds_render_without_bound_columns(self):
        table = parse_pft(BOUNDED.format(row="x1,C,1,3,0,"))
        assert render_pft(table).splitlines()[1] == "var,kind,land,obj"


# The derandomised profile of test_differential.py: every run checks the same tables.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Integers, halves and quarters; a blank cell means zero.
CELL = st.just("") | st.integers(-12, 12).map(lambda q: f"{q / 4:g}")


@st.composite
def _bound_cells(draw):
    """(lb, ub) cells: blank, finite, or the open side's infinity."""
    lo = draw(st.just(-math.inf) | st.integers(-12, 12).map(lambda q: q / 4))
    hi = draw(st.just(math.inf) | st.integers(-12, 12).map(lambda q: q / 4))
    lo, hi = min(lo, hi), max(lo, hi)
    blank_lo = lo == 0 and draw(st.booleans())
    blank_hi = hi == math.inf and draw(st.booleans())
    return ["" if blank_lo else f"{lo:g}", "" if blank_hi else f"{hi:g}"]


@st.composite
def _tables(draw):
    """PFT text: 1-6 variables of every kind and 0-5 constraint columns of every sense."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    with_bounds = draw(st.booleans())
    direction = draw(st.sampled_from(["min", "max"]))
    header = ["var", "kind", *(f"r{j}" for j in range(k)), "obj"]
    header += ["lb", "ub"] * with_bounds
    lines = [f"#PFT v1 dir={direction} title=generated", ",".join(header)]
    for i in range(n):
        kind = draw(st.sampled_from("BIC"))
        cells = [f"x{i}", kind] + [draw(CELL) for _ in range(k + 1)]
        if with_bounds:
            cells += ["", ""] if kind == "B" else draw(_bound_cells())
        lines.append(",".join(cells))
    if k:
        senses = [draw(st.sampled_from(["le", "eq", "ge"])) for _ in range(k)]
        lines.append(",".join(["@sense", "", *senses, ""]))
        lines.append(",".join(["@rhs", "", *(draw(CELL) for _ in range(k)), ""]))
    return "\n".join(lines) + "\n"


@PROPERTY
@given(_tables())
def test_render_parse_round_trip(text):
    table = parse_pft(text)
    again = parse_pft(render_pft(table))
    assert again == table
    mine, theirs = compile_pft(table), compile_pft(again)
    for field in ("c", "A_eq", "b_eq", "A_ub", "b_ub", "lo", "hi"):
        assert np.array_equal(getattr(mine.base, field), getattr(theirs.base, field))
    assert (mine.base.direction, mine.kinds, mine.names) == (
        theirs.base.direction,
        theirs.kinds,
        theirs.names,
    )


class TestAudit:
    def test_clean_table_has_no_findings(self):
        assert audit_pft(parse_pft(SIMPLE)) == ()

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
        findings = audit_pft(parse_pft(text))
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
