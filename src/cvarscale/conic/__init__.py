"""Embedded deterministic dense solvers: a two-phase simplex for linear
programs and a Nesterov-Todd scaled primal-dual interior point method for
second-order-cone programs."""

from .ipm import solve_socp
from .simplex import solve_lp
from .types import ConeStack, LinearProgramSpec, SocCone, SocpSpec, SolveResult, SolveStatus

__all__ = [
    "ConeStack",
    "LinearProgramSpec",
    "SocCone",
    "SocpSpec",
    "SolveResult",
    "SolveStatus",
    "solve_lp",
    "solve_socp",
]
