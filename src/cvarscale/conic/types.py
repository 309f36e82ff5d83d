"""Problem specifications and results for the embedded dense solvers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionMismatch

__all__ = ["SolveStatus", "SolveResult", "LinearProgramSpec", "SocCone", "ConeStack", "SocpSpec"]


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
    # an optimal result's warm-start carrier: the simplex's tableau, which
    # resumes a later solve of the same LP with rows appended to A (see
    # ``solve_lp``'s ``warm``), or the cone solver's dual, which starts a
    # later solve of a spec with the same layout (see ``solve_socp``'s)
    _warm: object = field(default=None, repr=False, compare=False)

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
class ConeStack:
    """Cone blocks of one dimension as stacked arrays: block k is
    ||F[k] z + f[k]||_2 <= g[k].z + h[k].

    Holds the same constraints as a tuple of ``SocCone`` without one object
    per block.  Its length is the block count, and indexing or iterating
    yields the blocks as ``SocCone``.
    """

    F: np.ndarray  # (B, r, n)
    f: np.ndarray  # (B, r)
    g: np.ndarray  # (B, n)
    h: np.ndarray  # (B,)

    def __post_init__(self):
        for name in ("F", "f", "g", "h"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        B = self.F.shape[0]
        if self.F.ndim != 3 or self.F.shape[1] < 1:
            raise DimensionMismatch("stacked cone F must be (blocks, rows >= 1, columns)")
        if self.f.shape != self.F.shape[:2]:
            raise DimensionMismatch("stacked cone F/f shapes differ")
        if self.g.shape != (B, self.F.shape[2]) or self.h.shape != (B,):
            raise DimensionMismatch("stacked cone g/h do not match F")

    def __len__(self) -> int:
        return self.F.shape[0]

    def __getitem__(self, k: int) -> SocCone:
        return SocCone(F=self.F[k], f=self.f[k], g=self.g[k], h=self.h[k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True)
class SocpSpec:
    """minimize c.z  subject to  A z <= b, cone blocks, lb <= z <= ub.

    ``partition``, when given, labels every column -1 (global) or with the
    local block b >= 0 it belongs to.  It promises that every cone block
    touches the columns of at most one local block, and lets the solver
    eliminate the local blocks instead of factoring one dense system; rows of
    A that touch several local blocks are allowed, but each one costs a
    low-rank update per iteration, so they should be few.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    cones: tuple[SocCone, ...] | ConeStack
    lb: np.ndarray
    ub: np.ndarray
    partition: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", np.atleast_1d(np.asarray(self.c, dtype=float)))
        A = np.asarray(self.A, dtype=float)
        if A.size == 0:
            A = np.zeros((0, self.c.shape[0]))
        object.__setattr__(self, "A", np.atleast_2d(A))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        if not isinstance(self.cones, ConeStack):
            object.__setattr__(self, "cones", tuple(self.cones))
        object.__setattr__(self, "lb", np.atleast_1d(np.asarray(self.lb, dtype=float)))
        object.__setattr__(self, "ub", np.atleast_1d(np.asarray(self.ub, dtype=float)))
        n = self.c.shape[0]
        if self.A.shape[1] != n or self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("linear rows inconsistent with objective")
        if isinstance(self.cones, ConeStack):
            if self.cones.F.shape[2] != n:
                raise DimensionMismatch(f"stacked cones do not match dimension {n}")
        else:
            for k, cone in enumerate(self.cones):
                if cone.F.shape[1] != n:
                    raise DimensionMismatch(f"cone block {k} does not match dimension {n}")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise DimensionMismatch("bound vectors do not match objective length")
        if self.partition is not None:
            part = np.asarray(self.partition, dtype=int)
            if part.shape != (n,) or np.any(part < -1):
                raise DimensionMismatch("partition must label each column -1 or a block >= 0")
            object.__setattr__(self, "partition", part)

    @property
    def n(self) -> int:
        return self.c.shape[0]
