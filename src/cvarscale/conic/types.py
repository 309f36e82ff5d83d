"""Problem specifications and results for the embedded dense solvers."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch

__all__ = ["SolveStatus", "SolveResult", "LinearProgramSpec", "SocCone", "SocpSpec"]


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration-limit"
    NUMERICAL_ERROR = "numerical-error"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    z: np.ndarray | None
    objective: float
    primal_residual: float
    dual_residual: float
    duality_gap: float
    iterations: int
    # simplex only: the optimal basis as standard-form column indices, which
    # warm-starts a later solve of the same LP with rows appended to A
    basis: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == SolveStatus.OPTIMAL


@dataclass(frozen=True)
class LinearProgramSpec:
    """minimize c.z  subject to  A z <= b,  lb <= z <= ub  (+-inf allowed)."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, dtype=float)))
        A = np.asarray(self.A, dtype=float)
        if A.size == 0:
            A = np.zeros((0, self.c.shape[0]))
        object.__setattr__(self, "A", np.atleast_2d(A))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "lb", np.atleast_1d(np.asarray(self.lb, dtype=float)))
        object.__setattr__(self, "ub", np.atleast_1d(np.asarray(self.ub, dtype=float)))
        n = self.c.shape[0]
        if self.A.shape[1] != n:
            raise DimensionMismatch(f"A has {self.A.shape[1]} columns, objective has {n}")
        if self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("A and b row counts differ")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise DimensionMismatch("bound vectors do not match objective length")

    @property
    def n(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class SocCone:
    """One second-order-cone block  ||F z + f||_2 <= g.z + h."""

    F: np.ndarray
    f: np.ndarray
    g: np.ndarray
    h: float

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "f", np.atleast_1d(np.asarray(self.f, dtype=float)))
        object.__setattr__(self, "g", np.atleast_1d(np.asarray(self.g, dtype=float)))
        object.__setattr__(self, "h", float(self.h))
        if F.shape[0] < 1:
            raise DimensionMismatch("cone block needs at least one row")
        if self.f.shape[0] != F.shape[0]:
            raise DimensionMismatch("cone block F/f row counts differ")
        if self.g.shape[0] != F.shape[1]:
            raise DimensionMismatch("cone block g does not match F columns")


@dataclass(frozen=True)
class SocpSpec:
    """minimize c.z  subject to  A z <= b, cone blocks, lb <= z <= ub."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: tuple[SocCone, ...]
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, dtype=float)))
        A = np.asarray(self.A, dtype=float)
        if A.size == 0:
            A = np.zeros((0, self.c.shape[0]))
        object.__setattr__(self, "A", np.atleast_2d(A))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "cones", tuple(self.cones))
        object.__setattr__(self, "lb", np.atleast_1d(np.asarray(self.lb, dtype=float)))
        object.__setattr__(self, "ub", np.atleast_1d(np.asarray(self.ub, dtype=float)))
        n = self.c.shape[0]
        if self.A.shape[1] != n or self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("linear rows inconsistent with objective")
        for k, cone in enumerate(self.cones):
            if cone.F.shape[1] != n:
                raise DimensionMismatch(f"cone block {k} does not match dimension {n}")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise DimensionMismatch("bound vectors do not match objective length")

    @property
    def n(self) -> int:
        return self.c.shape[0]
