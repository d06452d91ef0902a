"""Problem-formulation tables: the CSV dialect, structural audits, and
compilation into a solvable mixed-integer problem.

PFT v1 CSV layout::

    #PFT v1 dir=<min|max> title=<free text>
    var,kind,<con-1>,...,<con-K>,obj[,lb,ub]
    <name>,<B|I|C>,<coeff>,...,<coeff>,<c>[,<lb>,<ub>]   (one line per variable)
    @sense,,<le|eq|ge>,...,<le|eq|ge>,
    @rhs,,<b-1>,...,<b-K>,

The @sense and @rhs lines may stand anywhere after the header, each at most
once, and are required when K > 0; each reads its cells 3..K+2. Every other
line is a variable row as wide as the header. Blank coefficient, objective and
rhs cells mean zero. A blank lb cell means 0 and a blank ub cell inf, and a
table without `lb,ub` columns reads as all bound cells blank: [0, inf).
Binary variables may not carry explicit bound cells; `MipProblem` clamps them
into [0, 1] when the table is compiled.
Coefficient, objective and rhs cells must be finite numbers; bound cells may
be -inf/inf but not NaN. The parser checks each cell once and reports the
first bad one by line and column.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .branch_bound import MipProblem, VarKind
from .linprog import LinearProgram, split_senses

__all__ = [
    "Pft",
    "PftParseError",
    "AuditFinding",
    "AuditKind",
    "parse_pft",
    "render_pft",
    "audit_pft",
    "compile_pft",
]


class PftParseError(ValueError):
    def __init__(self, message: str, line: int, column: int | None = None):
        at = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({at})")
        self.line = line
        self.column = column


_KINDS = {kind.value: kind for kind in VarKind}
_SENSES = ("le", "eq", "ge")


@dataclass(frozen=True, eq=False)
class Pft:
    """One formulation table in the arrays `LinearProgram` takes.

    `names` and `kinds` hold one entry per variable (table row), and
    `constraints` and `senses` one per constraint (CSV column). Row j of the
    `len(constraints) x len(names)` matrix `A` is constraint column j, with
    right-hand side `b[j]`. `c` is the objective, and `lo`/`hi` hold the
    bounds with the defaults filled in: [0, inf) wherever a cell is blank or
    the table has no `lb,ub` columns. `parse_pft` does every check; the
    constructor takes the fields as given.
    """

    title: str
    direction: str  # "min" | "max"
    names: tuple
    kinds: tuple  # of VarKind
    constraints: tuple
    senses: tuple  # of "le" | "eq" | "ge"
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pft):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(
            np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            for mine, theirs in pairs
        )


class AuditKind(enum.Enum):
    ZERO_COLUMN = "ZeroColumn"
    EQ_COLUMN_SINGLETON = "EqColumnSingleton"
    ZERO_ROW = "ZeroRow"
    UB_ROW_SINGLETON = "UbRowSingleton"


@dataclass(frozen=True)
class AuditFinding:
    kind: AuditKind
    subject: str
    message: str


_PRAGMA = re.compile(r"^#PFT v1 dir=(min|max) title=(.*)$")


def _parse_cell(
    cell: str, line_no: int, col_no: int, blank: float = 0.0, finite: bool = True
) -> float:
    """The number in one cell, `blank` if the cell is empty. NaN is never a
    number here; with `finite`, neither is -inf or inf."""
    cell = cell.strip()
    if not cell:
        return blank
    try:
        value = float(cell)
    except ValueError:
        raise PftParseError(f"cell {cell!r} is not numeric", line_no, col_no) from None
    if math.isnan(value) or (finite and math.isinf(value)):
        raise PftParseError(f"cell {cell!r} is not a finite number", line_no, col_no)
    return value


def _parse_sense(cell: str, line_no: int, col_no: int) -> str:
    """The constraint sense in one cell: le, eq or ge."""
    sense = cell.strip()
    if sense not in _SENSES:
        raise PftParseError(f"unknown sense token {sense!r}", line_no, col_no)
    return sense


_TAGS = {"@sense": _parse_sense, "@rhs": _parse_cell}


def parse_pft(text: str) -> Pft:
    lines = text.splitlines()
    if not lines:
        raise PftParseError("empty input", 1)
    match = _PRAGMA.match(lines[0].strip())
    if not match:
        raise PftParseError("missing '#PFT v1 dir=... title=...' pragma", 1)
    direction, title = match.group(1), match.group(2).strip()

    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if not rows:
        raise PftParseError("missing header row", 2)
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 3 or header[0] != "var" or header[1] != "kind":
        raise PftParseError("header must start with 'var,kind,...'", 2)
    has_bounds = header[-2:] == ["lb", "ub"]
    obj_pos = len(header) - 3 if has_bounds else len(header) - 1
    if header[obj_pos] != "obj":
        raise PftParseError("header must contain an 'obj' column", 2)
    constraints = header[2:obj_pos]
    k = len(constraints)
    for j, name in enumerate(constraints):
        if name in constraints[:j]:
            raise PftParseError(f"duplicate constraint column name {name!r}", 2, 3 + j)

    names: list[str] = []
    kinds: list[VarKind] = []
    numbers: list[float] = []  # the non-empty cells of the variable rows
    at: list[int] = []  # where each lies in the row-major n x (k + 1) block
    columns = range(k + 1)
    lo: list[float] = []
    hi: list[float] = []
    tagged: dict[str, list] = {}  # "@sense"/"@rhs" -> the line's k cells, read
    seen: set = set()

    for line_no, row in enumerate(rows[1:], start=3):  # pragma is line 1, header line 2
        if not row or all(not cell.strip() for cell in row):
            continue
        name = row[0].strip()
        if name in _TAGS:
            if name in tagged:
                raise PftParseError(f"repeated {name} line", line_no)
            if len(row) < 2 + k:
                raise PftParseError(f"ragged {name} line", line_no)
            read = _TAGS[name]
            tagged[name] = [read(cell, line_no, 3 + j) for j, cell in enumerate(row[2 : 2 + k])]
            continue
        if len(row) != len(header):
            raise PftParseError(
                f"row has {len(row)} cells, header has {len(header)}", line_no
            )
        if not name:
            raise PftParseError("blank variable name", line_no, 1)
        kind = _KINDS.get(row[1].strip())
        if kind is None:
            raise PftParseError(f"unknown kind letter {row[1].strip()!r}", line_no, 2)
        if name in seen:
            raise PftParseError(f"duplicate variable name {name!r}", line_no, 1)
        seen.add(name)
        names.append(name)
        kinds.append(kind)
        # The row's numbers in one pass over its non-empty cells: float
        # strips whitespace as _parse_cell does. A cell float cannot read
        # (a whitespace-only one too), or a sum that is not finite (a nan or
        # inf cell, or finite cells whose sum overflows), sends the whole row
        # cell by cell through _parse_cell, which reports the first bad cell.
        cells = row[2 : obj_pos + 1]
        filled = list(itertools.compress(columns, cells))
        try:
            values = [float(cells[j]) for j in filled]
        except ValueError:
            values = None
        if values is None or not math.isfinite(sum(values)):
            values = [_parse_cell(cell, line_no, 3 + j) for j, cell in enumerate(cells)]
            filled = columns
        offset = (len(names) - 1) * (k + 1)
        at += [offset + j for j in filled]
        numbers += values
        lb_cell, ub_cell = row[-2:] if has_bounds else ("", "")
        if kind is VarKind.BINARY and (lb_cell.strip() or ub_cell.strip()):
            raise PftParseError(
                f"binary variable {name!r} must not carry explicit bounds", line_no
            )
        lo.append(_parse_cell(lb_cell, line_no, len(row) - 1, 0.0, finite=False))
        hi.append(_parse_cell(ub_cell, line_no, len(row), math.inf, finite=False))

    n = len(names)
    if not n:
        raise PftParseError("no variable rows", 3)
    for tag in _TAGS:
        if k and tag not in tagged:
            raise PftParseError(f"missing {tag} line", len(lines))
    block = np.zeros(n * (k + 1))  # per row: k coefficients, then the objective
    block[at] = numbers
    block = block.reshape(n, k + 1)
    return Pft(
        title=title,
        direction=direction,
        names=tuple(names),
        kinds=tuple(kinds),
        constraints=tuple(constraints),
        senses=tuple(tagged.get("@sense", ())),
        A=block[:, :k].T,
        b=np.array(tagged.get("@rhs", ()), dtype=float),
        c=block[:, k],
        lo=np.array(lo),
        hi=np.array(hi),
    )


def _fmt(value: float) -> str:
    if value == 0:
        return ""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_pft(pft: Pft) -> str:
    """Canonical rendering: render(parse(text)) re-parses to an equal Pft.

    The `lb,ub` columns are written only when some bound differs from
    [0, inf), and a bound cell at its default is left blank."""
    out = io.StringIO()
    out.write(f"#PFT v1 dir={pft.direction} title={pft.title}\n")
    writer = csv.writer(out, lineterminator="\n")
    has_bounds = bool(np.any(pft.lo != 0) or np.any(pft.hi != math.inf))
    bound_columns = ["lb", "ub"] if has_bounds else []
    writer.writerow(["var", "kind", *pft.constraints, "obj", *bound_columns])
    rows = zip(
        pft.names, pft.kinds, pft.A.T.tolist(), pft.c.tolist(), pft.lo.tolist(), pft.hi.tolist()
    )
    for name, kind, coeffs, obj, lb, ub in rows:
        row = [name, kind.value, *map(_fmt, coeffs), _fmt(obj) or "0"]
        if has_bounds:
            row += [_fmt(lb), "" if ub == math.inf else _fmt(ub) or "0"]
        writer.writerow(row)
    if pft.constraints:
        writer.writerow(["@sense", "", *pft.senses, ""])
        writer.writerow(["@rhs", "", *(_fmt(rhs) or "0" for rhs in pft.b.tolist()), ""])
    return out.getvalue()


def audit_pft(pft: Pft) -> tuple[AuditFinding, ...]:
    """Run the four structural checks: trivial constraints, fixed variables
    masquerading as decisions, unconstrained variables, and simple bounds
    written as full rows. Returns the findings, constraints first."""
    findings: list[AuditFinding] = []
    counts = np.count_nonzero(pft.A, axis=1).tolist()
    totals = pft.A.sum(axis=1).tolist()  # the lone coefficient when counts[j] == 1
    for name, sense, count, total in zip(pft.constraints, pft.senses, counts, totals):
        if count == 0:
            kind = AuditKind.ZERO_COLUMN
            message = f"constraint {name} has all-zero coefficients (trivial constraint)"
        elif count == 1 and total == 1 and sense == "eq":
            kind = AuditKind.EQ_COLUMN_SINGLETON
            message = f"equality {name} pins a single variable (a constant, not a variable)"
        elif count == 1 and total == 1:
            kind = AuditKind.UB_ROW_SINGLETON
            message = f"inequality {name} is a simple bound on one variable"
        else:
            continue
        findings.append(AuditFinding(kind, name, message))
    for i in np.flatnonzero(~pft.A.any(axis=0)).tolist():
        name = pft.names[i]
        message = f"variable {name} appears in no constraint (unconstrained)"
        findings.append(AuditFinding(AuditKind.ZERO_ROW, name, message))
    return tuple(findings)


def compile_pft(pft: Pft) -> MipProblem:
    """Lower a PFT into a MipProblem; audits are advisory and not re-run here."""
    blocks = split_senses(pft.A, pft.senses, pft.b)
    base = LinearProgram(pft.c, *blocks, pft.lo, pft.hi, pft.direction)
    return MipProblem(base, pft.kinds, pft.names)
