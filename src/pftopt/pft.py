"""Problem-formulation tables: the CSV dialect, structural audits, and
compilation into a solvable mixed-integer problem.

PFT v1 CSV layout::

    #PFT v1 dir=<min|max> title=<free text>
    var,kind,<con-1>,...,<con-K>,obj[,lb,ub]
    <name>,<B|I|C>,<coeff>,...,<coeff>,<c>[,<lb>,<ub>]   (one line per variable)
    @sense,,<le|eq|ge>,...,<le|eq|ge>,
    @rhs,,<b-1>,...,<b-K>,

Blank coefficient cells mean zero; blank lb/ub cells mean the kind's default
bounds. Binary variables may not carry explicit bound cells.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .branch_bound import MipProblem, VarKind
from .linprog import LinearProgram, MalformedProblemError, split_senses

__all__ = [
    "Pft",
    "PftParseError",
    "AuditFinding",
    "AuditKind",
    "AuditReport",
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


_KINDS = {"B": VarKind.BINARY, "I": VarKind.INTEGER, "C": VarKind.CONTINUOUS}
_SENSES = ("le", "eq", "ge")


@dataclass(frozen=True)
class Pft:
    title: str
    direction: str  # "min" | "max"
    variables: tuple  # of (name, VarKind)
    constraint_columns: tuple  # of (name, sense, coefficients tuple, rhs)
    objective: tuple  # coefficient per variable
    bounds: tuple | None = None  # per-variable (lb or None, ub or None)

    def __post_init__(self) -> None:
        n = len(self.variables)
        names = [name for name, _ in self.variables]
        if len(set(names)) != n:
            raise MalformedProblemError("duplicate variable names in PFT")
        if len(self.objective) != n:
            raise MalformedProblemError("objective length must equal variable count")
        con_names = [name for name, _, _, _ in self.constraint_columns]
        if len(set(con_names)) != len(con_names):
            raise MalformedProblemError("duplicate constraint column names")
        for name, sense, coeffs, _ in self.constraint_columns:
            if sense not in _SENSES:
                raise MalformedProblemError(f"unknown sense {sense!r} in column {name}")
            if len(coeffs) != n:
                raise MalformedProblemError(f"column {name} length must equal variable count")
        if self.bounds is not None:
            if len(self.bounds) != n:
                raise MalformedProblemError("bounds length must equal variable count")
            for (name, kind), (lb, ub) in zip(self.variables, self.bounds):
                if kind is VarKind.BINARY and (lb is not None or ub is not None):
                    raise MalformedProblemError(
                        f"binary variable {name} must not carry explicit bounds"
                    )

    @property
    def num_vars(self) -> int:
        return len(self.variables)


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


@dataclass(frozen=True)
class AuditReport:
    findings: tuple

    def __iter__(self):
        return iter(self.findings)

    def kinds(self) -> set:
        return {f.kind for f in self.findings}


_PRAGMA = re.compile(r"^#PFT v1 dir=(min|max) title=(.*)$")


def _parse_cell(cell: str, line_no: int, col_no: int) -> float:
    cell = cell.strip()
    if not cell:
        return 0.0
    try:
        return float(cell)
    except ValueError:
        raise PftParseError(f"cell {cell!r} is not numeric", line_no, col_no)


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
    con_names = header[2:obj_pos]
    k = len(con_names)

    variables: list[tuple] = []
    coeffs_by_var: list[list[float]] = []
    objective: list[float] = []
    bounds: list[tuple] = []
    senses: list[str] | None = None
    rhs: list[float] | None = None

    for offset, row in enumerate(rows[1:], start=3):
        line_no = offset  # pragma is line 1, header is line 2
        if not row or all(not cell.strip() for cell in row):
            continue
        tag = row[0].strip()
        if tag == "@sense":
            if len(row) < 2 + k:
                raise PftParseError("ragged @sense line", line_no)
            senses = [cell.strip() for cell in row[2 : 2 + k]]
            for j, sense in enumerate(senses):
                if sense not in _SENSES:
                    raise PftParseError(f"unknown sense token {sense!r}", line_no, 3 + j)
            continue
        if tag == "@rhs":
            if len(row) < 2 + k:
                raise PftParseError("ragged @rhs line", line_no)
            rhs = [_parse_cell(cell, line_no, 3 + j) for j, cell in enumerate(row[2 : 2 + k])]
            continue
        if len(row) != len(header):
            raise PftParseError(
                f"row has {len(row)} cells, header has {len(header)}", line_no
            )
        name = row[0].strip()
        if not name:
            raise PftParseError("blank variable name", line_no, 1)
        kind_token = row[1].strip()
        if kind_token not in _KINDS:
            raise PftParseError(f"unknown kind letter {kind_token!r}", line_no, 2)
        kind = _KINDS[kind_token]
        if any(name == existing for existing, _ in variables):
            raise PftParseError(f"duplicate variable name {name!r}", line_no, 1)
        variables.append((name, kind))
        coeffs_by_var.append(
            [_parse_cell(cell, line_no, 3 + j) for j, cell in enumerate(row[2 : 2 + k])]
        )
        objective.append(_parse_cell(row[obj_pos], line_no, obj_pos + 1))
        if has_bounds:
            lb_cell, ub_cell = row[-2].strip(), row[-1].strip()
            if kind is VarKind.BINARY and (lb_cell or ub_cell):
                raise PftParseError(
                    f"binary variable {name!r} must not carry explicit bounds", line_no
                )
            lb_col = len(row) - 1
            bounds.append(
                (
                    _parse_cell(lb_cell, line_no, lb_col) if lb_cell else None,
                    _parse_cell(ub_cell, line_no, lb_col + 1) if ub_cell else None,
                )
            )

    if not variables:
        raise PftParseError("no variable rows", 3)
    if k and senses is None:
        raise PftParseError("missing @sense line", len(lines))
    if k and rhs is None:
        raise PftParseError("missing @rhs line", len(lines))

    columns = tuple(
        (
            con_names[j],
            senses[j],
            tuple(coeffs_by_var[i][j] for i in range(len(variables))),
            rhs[j],
        )
        for j in range(k)
    )
    return Pft(
        title=title,
        direction=direction,
        variables=tuple(variables),
        constraint_columns=columns,
        objective=tuple(objective),
        bounds=tuple(bounds) if has_bounds else None,
    )


def _fmt(value: float) -> str:
    if value == 0:
        return ""
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_pft(pft: Pft) -> str:
    """Canonical rendering: render(parse(text)) re-parses to an equal Pft."""
    out = io.StringIO()
    out.write(f"#PFT v1 dir={pft.direction} title={pft.title}\n")
    writer = csv.writer(out, lineterminator="\n")
    con_names = [name for name, _, _, _ in pft.constraint_columns]
    header = ["var", "kind"] + con_names + ["obj"]
    if pft.bounds is not None:
        header += ["lb", "ub"]
    writer.writerow(header)
    kind_letter = {v: key for key, v in _KINDS.items()}
    for i, (name, kind) in enumerate(pft.variables):
        row = [name, kind_letter[kind]]
        row += [_fmt(col[2][i]) for col in pft.constraint_columns]
        row.append(_fmt(pft.objective[i]) or "0")
        if pft.bounds is not None:
            lb, ub = pft.bounds[i]
            row += ["" if lb is None else _fmt(lb) or "0", "" if ub is None else _fmt(ub) or "0"]
        writer.writerow(row)
    if pft.constraint_columns:
        writer.writerow(["@sense", ""] + [col[1] for col in pft.constraint_columns] + [""])
        writer.writerow(
            ["@rhs", ""] + [_fmt(col[3]) or "0" for col in pft.constraint_columns] + [""]
        )
    return out.getvalue()


def audit_pft(pft: Pft) -> AuditReport:
    """Run the four structural checks: trivial constraints, fixed variables
    masquerading as decisions, unconstrained variables, and simple bounds
    written as full rows."""
    findings: list[AuditFinding] = []
    n = pft.num_vars
    for name, sense, coeffs, _ in pft.constraint_columns:
        nonzero = [c for c in coeffs if c != 0]
        if not nonzero:
            findings.append(
                AuditFinding(
                    AuditKind.ZERO_COLUMN,
                    name,
                    f"constraint {name} has all-zero coefficients (trivial constraint)",
                )
            )
        elif sense == "eq" and len(nonzero) == 1 and nonzero[0] == 1:
            findings.append(
                AuditFinding(
                    AuditKind.EQ_COLUMN_SINGLETON,
                    name,
                    f"equality {name} pins a single variable (a constant, not a variable)",
                )
            )
        elif sense in ("le", "ge") and len(nonzero) == 1 and nonzero[0] == 1:
            findings.append(
                AuditFinding(
                    AuditKind.UB_ROW_SINGLETON,
                    name,
                    f"inequality {name} is a simple bound on one variable",
                )
            )
    for i in range(n):
        if all(col[2][i] == 0 for col in pft.constraint_columns):
            var_name = pft.variables[i][0]
            findings.append(
                AuditFinding(
                    AuditKind.ZERO_ROW,
                    var_name,
                    f"variable {var_name} appears in no constraint (unconstrained)",
                )
            )
    return AuditReport(findings=tuple(findings))


def compile_pft(pft: Pft) -> MipProblem:
    """Lower a PFT into a MipProblem; audits are advisory and not re-run here."""
    n = pft.num_vars
    cols = pft.constraint_columns
    A = np.array([coeffs for _, _, coeffs, _ in cols], dtype=float).reshape(len(cols), n)
    b = np.array([rhs for _, _, _, rhs in cols], dtype=float)
    A_eq, b_eq, A_ub, b_ub = split_senses(A, [sense for _, sense, _, _ in cols], b)
    lo = np.zeros(n)
    hi = np.full(n, math.inf)
    for i, (lb, ub) in enumerate(pft.bounds or ()):
        if lb is not None:
            lo[i] = lb
        if ub is not None:
            hi[i] = ub
        if lo[i] > hi[i]:
            name = pft.variables[i][0]
            raise MalformedProblemError(f"variable {name}: lower bound {lo[i]} exceeds {hi[i]}")
    base = LinearProgram(pft.objective, A_eq, b_eq, A_ub, b_ub, lo, hi, pft.direction)
    return MipProblem(
        base=base,
        kinds=tuple(kind for _, kind in pft.variables),
        names=tuple(name for name, _ in pft.variables),
    )
