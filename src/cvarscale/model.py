"""Canonical data model for finite-scenario chance-constrained programs.

A program instance holds a linear cost ``c``, a polyhedral decision domain,
and ``N`` scenarios.  Scenario ``i`` carries ``J`` affine constraint rows

    g_j(x, scenario i) = W[j] . x + d[j]

and a probability ``p_i``.  The uncertain requirement "all rows of the drawn
scenario are <= 0" must hold with probability at least ``1 - epsilon``.

Every operation in this module is pure; instances are immutable after
construction and safe to share across threads.

Scenario indices on the public surface are 1-based (``1 <= i <= N``),
matching the usual mathematical convention; internal arrays are 0-based.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotCovering,
    ProbabilityError,
    RiskLevelError,
    ScalingOutOfRange,
    SolverFailure,
    ToleranceError,
)

__all__ = [
    "Scenario",
    "Domain",
    "CcpInstance",
    "ScalingVector",
    "Tolerances",
    "RegularityStatus",
    "validate",
    "evaluate_g",
    "g_max",
    "g_max_all",
    "violation_probability",
    "chance_feasible",
    "scale_scenarios",
    "normalize_covering_rows",
    "certificate_point",
    "epsilon_regularity_check",
    "with_extra_domain_rows",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
]

# Slack allowed on the chance-constraint mass comparison itself.
_MASS_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Scenario:
    """One realization of the uncertainty: J affine rows and a probability."""

    W: np.ndarray  # (J, n) constraint gradients
    d: np.ndarray  # (J,) offsets
    p: float

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        object.__setattr__(self, "W", _freeze(W))
        object.__setattr__(self, "d", _freeze(d))
        object.__setattr__(self, "p", float(self.p))

    @property
    def J(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class Domain:
    """Deterministic feasible set: box bounds plus extra rows P x <= q."""

    lb: np.ndarray
    ub: np.ndarray
    P: np.ndarray | None = None
    q: np.ndarray | None = None

    def __post_init__(self):
        lb = np.atleast_1d(np.asarray(self.lb, dtype=float))
        ub = np.atleast_1d(np.asarray(self.ub, dtype=float))
        object.__setattr__(self, "lb", _freeze(lb))
        object.__setattr__(self, "ub", _freeze(ub))
        if self.P is None:
            object.__setattr__(self, "P", None)
            object.__setattr__(self, "q", None)
        else:
            P = np.atleast_2d(np.asarray(self.P, dtype=float))
            q = np.atleast_1d(np.asarray(self.q, dtype=float))
            object.__setattr__(self, "P", _freeze(P))
            object.__setattr__(self, "q", _freeze(q))

    @classmethod
    def box(cls, lb, ub) -> "Domain":
        return cls(lb=np.asarray(lb, dtype=float), ub=np.asarray(ub, dtype=float))

    @classmethod
    def nonnegative(cls, n: int) -> "Domain":
        return cls(lb=np.zeros(n), ub=np.full(n, np.inf))

    @property
    def n(self) -> int:
        return self.lb.shape[0]

    @property
    def n_rows(self) -> int:
        return 0 if self.P is None else self.P.shape[0]


@dataclass(frozen=True)
class CcpInstance:
    """A finite-scenario chance-constrained program.

    minimize    c . x
    subject to  x in domain,
                P{ scenario i : max_j (W_i[j] . x + d_i[j]) <= 0 } >= 1 - epsilon
    """

    c: np.ndarray
    scenarios: tuple[Scenario, ...]
    epsilon: float
    domain: Domain
    name: str = "instance"

    def __post_init__(self):
        object.__setattr__(self, "c", _freeze(np.atleast_1d(np.asarray(self.c, dtype=float))))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "epsilon", float(self.epsilon))

    @property
    def n(self) -> int:
        return self.c.shape[0]

    @property
    def N(self) -> int:
        return len(self.scenarios)

    @property
    def J(self) -> int:
        return self.scenarios[0].J

    @cached_property
    def probs(self) -> np.ndarray:
        return _freeze(np.array([s.p for s in self.scenarios]))

    @cached_property
    def w_stack(self) -> np.ndarray:
        """All constraint gradients stacked scenario-major, shape (N*J, n)."""
        return _freeze(np.vstack([s.W for s in self.scenarios]))

    @cached_property
    def d_stack(self) -> np.ndarray:
        return _freeze(np.concatenate([s.d for s in self.scenarios]))


@dataclass(frozen=True)
class ScalingVector:
    """Per-scenario multipliers alpha >= 1 applied to scenario constraints."""

    alpha: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "alpha", _freeze(np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        )

    @classmethod
    def ones(cls, N: int) -> "ScalingVector":
        return cls(np.ones(N))

    def check(self, alpha_max: float = np.inf) -> None:
        a = self.alpha
        if np.any(a < 1.0 - 1e-12):
            raise ScalingOutOfRange(f"alpha must be >= 1, got min {a.min()!r}")
        if np.any(a > alpha_max * (1 + 1e-12)):
            raise ScalingOutOfRange(f"alpha exceeds cap {alpha_max!r}: max {a.max()!r}")

    def __len__(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs shared by all algorithms.

    feas_tol    constraint satisfaction slack when counting violations
    delta1      stopping threshold on objective change between iterations
    delta2      strict-satisfaction threshold used to pick scaled scenarios
    alpha_max   cap on any scaling factor
    max_iter    iteration cap for the iterative schemes
    delta_A     objective-budget bisection gap
    """

    feas_tol: float = 1e-6
    delta1: float = 1e-4
    delta2: float = -0.005
    alpha_max: float = 1e6
    max_iter: int = 25
    delta_A: float = 0.05

    def __post_init__(self):
        if self.delta2 > 0:
            raise ToleranceError("delta2 must be <= 0")
        for name in ("feas_tol", "delta1", "alpha_max", "delta_A"):
            if not getattr(self, name) > 0:
                raise ToleranceError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ToleranceError("max_iter must be >= 1")


class RegularityStatus(enum.Enum):
    PASS = "pass"
    PERTURB_WARNING = "perturb-needed-warning"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Validation and evaluation
# ---------------------------------------------------------------------------


def validate(instance: CcpInstance) -> None:
    """Check every structural invariant; raise a semantic error otherwise."""
    n = instance.n
    if not instance.scenarios:
        raise DimensionMismatch("instance has no scenarios")
    J = instance.scenarios[0].J
    for k, s in enumerate(instance.scenarios):
        if s.W.shape != (s.J, n) or s.n != n:
            raise DimensionMismatch(
                f"scenario {k + 1}: W has {s.n} columns, expected {n}"
            )
        if s.d.shape[0] != s.J:
            raise DimensionMismatch(
                f"scenario {k + 1}: {s.J} rows but {s.d.shape[0]} offsets"
            )
        if s.J != J:
            raise DimensionMismatch(
                f"scenario {k + 1}: {s.J} rows, expected {J} as in scenario 1"
            )
        if not s.p > 0:
            raise ProbabilityError(f"scenario {k + 1}: p={s.p!r} is not positive")
    total = float(instance.probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ProbabilityError(f"probabilities sum to {total!r}, expected 1")
    if not (0.0 < instance.epsilon < 1.0):
        raise RiskLevelError(f"epsilon={instance.epsilon!r} outside (0, 1)")
    dom = instance.domain
    if dom.lb.shape[0] != n or dom.ub.shape[0] != n:
        raise DimensionMismatch("domain bounds do not match decision dimension")
    if np.any(dom.lb > dom.ub):
        raise DimensionMismatch("domain has lb > ub")
    if dom.P is not None:
        if dom.P.shape[1] != n:
            raise DimensionMismatch("domain rows do not match decision dimension")
        if dom.P.shape[0] != dom.q.shape[0]:
            raise DimensionMismatch("domain P/q row counts differ")


def _check_x(instance: CcpInstance, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (instance.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({instance.n},)")
    return x


def evaluate_g(instance: CcpInstance, i: int, x) -> np.ndarray:
    """All J affine row values of scenario ``i`` (1-based) at ``x``."""
    if not 1 <= i <= instance.N:
        raise IndexOutOfRange(f"scenario index {i} outside 1..{instance.N}")
    x = _check_x(instance, x)
    s = instance.scenarios[i - 1]
    return s.W @ x + s.d


def g_max(instance: CcpInstance, i: int, x) -> float:
    """Worst row of scenario ``i`` (1-based) at ``x``."""
    return float(evaluate_g(instance, i, x).max())


def g_max_all(instance: CcpInstance, x) -> np.ndarray:
    """Worst row of every scenario at ``x``, shape (N,)."""
    x = _check_x(instance, x)
    rows = instance.w_stack @ x + instance.d_stack
    return rows.reshape(instance.N, instance.J).max(axis=1)


def violation_probability(instance: CcpInstance, x, tol: float = 1e-6) -> float:
    """Probability mass of scenarios whose worst row exceeds ``tol`` at ``x``."""
    worst = g_max_all(instance, x)
    return float(instance.probs[worst > tol].sum())


def chance_feasible(instance: CcpInstance, x, tol: float = 1e-6) -> bool:
    """True iff the chance constraint holds at ``x`` (violations counted above ``tol``)."""
    return violation_probability(instance, x, tol) <= instance.epsilon + _MASS_TOL


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def scale_scenarios(instance: CcpInstance, alpha: ScalingVector) -> CcpInstance:
    """Multiply scenario i's rows by alpha_i; the chance constraint is unchanged."""
    if len(alpha) != instance.N:
        raise DimensionMismatch(f"alpha has {len(alpha)} entries, expected {instance.N}")
    alpha.check()
    scaled = tuple(
        Scenario(W=a * s.W, d=a * s.d, p=s.p)
        for a, s in zip(alpha.alpha, instance.scenarios)
    )
    return replace(instance, scenarios=scaled)


def normalize_covering_rows(instance: CcpInstance) -> CcpInstance:
    """Divide each row by its (positive) offset so every offset becomes one.

    Requires covering structure: every ``d`` entry strictly positive.  Scenario
    semantics are preserved because each row is divided by a positive number.
    """
    for k, s in enumerate(instance.scenarios):
        if np.any(s.d <= 0):
            raise NotCovering(
                f"scenario {k + 1} has a nonpositive offset; rows are not covering rows"
            )
    scaled = tuple(
        Scenario(W=s.W / s.d[:, None], d=np.ones_like(s.d), p=s.p)
        for s in instance.scenarios
    )
    return replace(instance, scenarios=scaled)


def with_extra_domain_rows(instance: CcpInstance, rows, rhs) -> CcpInstance:
    """New instance whose domain additionally satisfies ``rows @ x <= rhs``."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if rows.shape[1] != instance.n or rows.shape[0] != rhs.shape[0]:
        raise DimensionMismatch("extra domain rows do not match decision dimension")
    dom = instance.domain
    if dom.P is None:
        P, q = rows, rhs
    else:
        P, q = np.vstack([dom.P, rows]), np.concatenate([dom.q, rhs])
    return replace(instance, domain=Domain(lb=dom.lb, ub=dom.ub, P=P, q=q))


# ---------------------------------------------------------------------------
# Strict-feasibility certificate and epsilon regularity
# ---------------------------------------------------------------------------


def _domain_lp(instance: CcpInstance, c, rows=None, rhs=None):
    """The LP  min c.x  over the domain and the extra rows ``rows @ x <= rhs``.

    The extra rows come first, then the domain rows; the bounds are the
    domain's.  Returns a ``LinearProgramSpec``.
    """
    from .conic import LinearProgramSpec

    dom = instance.domain
    A = [np.zeros((0, instance.n)) if rows is None else rows]
    b = [np.zeros(0) if rhs is None else rhs]
    if dom.P is not None:
        A.append(dom.P)
        b.append(dom.q)
    return LinearProgramSpec(c=c, A=np.vstack(A), b=np.concatenate(b), lb=dom.lb, ub=dom.ub)


def certificate_point(
    instance: CcpInstance, delta_bar: float = -1e-5
) -> np.ndarray | None:
    """A point of the domain satisfying every scenario row <= delta_bar, or None.

    Existence of such a point certifies that scaling can in principle recover
    the optimal value on convex instances; the search is a plain feasibility LP.
    """
    if not delta_bar < 0:
        raise ToleranceError("delta_bar must be < 0")
    from .conic import SolveStatus, solve_lp

    rhs = np.full(instance.w_stack.shape[0], delta_bar) - instance.d_stack
    res = solve_lp(_domain_lp(instance, np.zeros(instance.n), instance.w_stack, rhs))
    if res.status == SolveStatus.OPTIMAL:
        return res.z
    if res.status == SolveStatus.INFEASIBLE:
        return None
    raise SolverFailure(f"certificate LP ended with status {res.status}")


def epsilon_regularity_check(instance: CcpInstance) -> RegularityStatus:
    """Best-effort check that no subset of scenario probabilities sums to epsilon.

    Equiprobable instances reduce to "N * epsilon is not an integer".  General
    probabilities are checked by exhaustive subset sums up to N = 20; larger
    instances report UNKNOWN (the condition is exponential to verify).
    """
    p = instance.probs
    eps = instance.epsilon
    if np.allclose(p, p[0], rtol=0, atol=1e-12):
        n_eps = instance.N * eps
        if abs(n_eps - round(n_eps)) < 1e-9:
            return RegularityStatus.PERTURB_WARNING
        return RegularityStatus.PASS
    if instance.N > 20:
        return RegularityStatus.UNKNOWN
    sums = np.zeros(1)
    for pi in p:
        sums = np.concatenate([sums, sums + pi])
    if np.any(np.abs(sums - eps) < 1e-9):
        return RegularityStatus.PERTURB_WARNING
    return RegularityStatus.PASS


# ---------------------------------------------------------------------------
# Instance files (JSON)
# ---------------------------------------------------------------------------


def _enc(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def _dec(v) -> float:
    return float(v)


def instance_to_dict(instance: CcpInstance) -> dict:
    dom = instance.domain
    return {
        "name": instance.name,
        "n": instance.n,
        "N": instance.N,
        "J": instance.J,
        "epsilon": instance.epsilon,
        "cost": [float(v) for v in instance.c],
        "probs": [float(s.p) for s in instance.scenarios],
        "scenarios": [
            {"W": [[float(v) for v in row] for row in s.W], "d": [float(v) for v in s.d]}
            for s in instance.scenarios
        ],
        "domain": {
            "lb": [_enc(v) for v in dom.lb],
            "ub": [_enc(v) for v in dom.ub],
            "P": None if dom.P is None else [[float(v) for v in row] for row in dom.P],
            "q": None if dom.q is None else [float(v) for v in dom.q],
        },
    }


def instance_from_dict(data: dict) -> CcpInstance:
    try:
        scen = tuple(
            Scenario(W=np.array(s["W"], dtype=float), d=np.array(s["d"], dtype=float), p=p)
            for s, p in zip(data["scenarios"], data["probs"])
        )
        dom = data["domain"]
        domain = Domain(
            lb=np.array([_dec(v) for v in dom["lb"]]),
            ub=np.array([_dec(v) for v in dom["ub"]]),
            P=None if dom.get("P") is None else np.array(dom["P"], dtype=float),
            q=None if dom.get("q") is None else np.array(dom["q"], dtype=float),
        )
        inst = CcpInstance(
            c=np.array(data["cost"], dtype=float),
            scenarios=scen,
            epsilon=float(data["epsilon"]),
            domain=domain,
            name=str(data.get("name", "instance")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed instance document: {exc}") from exc
    for key in ("n", "N", "J"):
        declared = int(data[key])
        actual = getattr(inst, key if key != "n" else "n")
        if declared != actual:
            raise DimensionMismatch(f"declared {key}={declared} but arrays give {actual}")
    return inst


def save_instance(instance: CcpInstance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=1, sort_keys=True))


def load_instance(path: str | Path) -> CcpInstance:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DimensionMismatch(f"not a valid instance document: {exc}") from exc
    return instance_from_dict(data)
