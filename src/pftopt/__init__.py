"""Formulation-table toolkit: a simplex + branch-and-bound MILP solver with
builders for classic network, covering, and logistics models."""

from .branch_bound import MipOutcome, MipProblem, VarKind, branch, solve_mip
from .linprog import (
    LinearProgram,
    LpOutcome,
    MalformedProblemError,
    SolveLimits,
    Status,
    solve_lp,
)
from .pft import AuditKind, Pft, PftParseError, audit_pft, compile_pft, parse_pft, render_pft

__all__ = [
    "LinearProgram",
    "LpOutcome",
    "SolveLimits",
    "Status",
    "MalformedProblemError",
    "solve_lp",
    "MipProblem",
    "MipOutcome",
    "VarKind",
    "branch",
    "solve_mip",
    "Pft",
    "PftParseError",
    "AuditKind",
    "parse_pft",
    "render_pft",
    "audit_pft",
    "compile_pft",
]

__version__ = "0.1.0"
