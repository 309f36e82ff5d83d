"""Scenario scaling: closed-form construction, blending, and the iterative
scaling heuristic.

The construction turns a point whose strictly-satisfied scenarios carry more
than ``1 - epsilon`` probability mass into scaling factors under which the
scaled CVaR approximation accepts that point.  The heuristic repeats the
construction at successive LP solutions, growing factors monotonically on the
strictly-satisfied set and resetting them to one elsewhere.

One run of the heuristic owns one hinge master (``cvar._HingeMaster``) and
passes it to each scaled solve.  The hinge cuts that bind at one iteration's
optimum stay valid at the next iteration's factors once re-weighted, so they
seed the next solve's first round; the explicit LP path has nothing to carry.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conic import SolveStatus, solve_lp
from .cvar import _HingeMaster, solve_scaled_cvar
from .errors import ConditionViolated, DimensionMismatch, InfeasibleProblem, SolverFailure
from .model import CcpInstance, ScalingVector, Tolerances, _domain_lp, g_max_all

__all__ = [
    "ScalingConstruction",
    "Termination",
    "IterationRecord",
    "IterationTrace",
    "construct_scaling",
    "blend_witnesses",
    "scaling_heuristic",
    "scenario_cost_floors",
    "pin_alpha_mask",
]


@dataclass(frozen=True)
class ScalingConstruction:
    """Closed-form certificate (alpha, beta, s) built from a good point."""

    alpha_hat: ScalingVector
    beta_hat: float
    s_hat: np.ndarray
    tau: float          # probability mass of scenarios outside the strict set
    alpha_bar: float    # common numerator driving the factors
    clipped: bool       # True when some factor hit the alpha_max cap


class Termination(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max-iter"
    STALLED = "stalled"
    INFEASIBLE = "infeasible"
    NUMERICAL_ERROR = "numerical-error"


@dataclass(frozen=True)
class IterationRecord:
    k: int
    objective: float
    x: np.ndarray
    alpha: np.ndarray
    delta: float | None


@dataclass
class IterationTrace:
    records: list[IterationRecord] = field(default_factory=list)
    termination: Termination = Termination.CONVERGED
    # index of the fixed-factor re-solve that hands a convex loop over to the
    # plain heuristic; None for single-phase traces
    handoff_index: int | None = None

    def add(self, k, objective, x, alpha, delta) -> None:
        self.records.append(
            IterationRecord(
                k=k,
                objective=float(objective),
                x=np.asarray(x, dtype=float).copy(),
                alpha=np.asarray(alpha, dtype=float).copy(),
                delta=None if delta is None else float(delta),
            )
        )

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    @property
    def incumbent(self) -> IterationRecord:
        best = 0
        for i, r in enumerate(self.records):
            if r.objective <= self.records[best].objective:
                best = i  # ties go to the later, solver-verified record
        return self.records[best]

    def to_dict(self) -> dict:
        inc = self.incumbent
        return {
            "records": [
                {
                    "k": r.k,
                    "objective": r.objective,
                    "x": [float(v) for v in r.x],
                    "alpha": [float(v) for v in r.alpha],
                    "delta": r.delta,
                }
                for r in self.records
            ],
            "incumbent": {
                "objective": inc.objective,
                "x": [float(v) for v in inc.x],
                "alpha": [float(v) for v in inc.alpha],
            },
            "termination": self.termination.value,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))


def _factor_rule(p: np.ndarray, worst: np.ndarray, strict: np.ndarray, tau: float,
                 eps: float) -> tuple[float, np.ndarray]:
    """The closed-form factors on the strict set, for tau < eps.

    alpha_bar = max(p . worst / (eps - tau), 0) over the scenarios outside the
    strict set (zero when there are none), and each strict scenario's factor
    is max(-alpha_bar / worst_i, 1).  Returns (alpha_bar, strict factors).
    """
    alpha_bar = max(float(p[~strict] @ worst[~strict]) / (eps - tau), 0.0)
    return alpha_bar, np.maximum(-alpha_bar / worst[strict], 1.0)


def construct_scaling(
    instance: CcpInstance,
    x_star,
    strict_threshold: float = 0.0,
    tol: Tolerances | None = None,
) -> ScalingConstruction:
    """Build (alpha, beta, s) making the scaled approximation accept ``x_star``.

    Requires the scenarios strictly below ``strict_threshold`` at ``x_star`` to
    carry mass above ``1 - epsilon``; raises ConditionViolated otherwise.  The
    returned triple is verified to satisfy every scaled-approximation
    constraint at ``x_star``.
    """
    tol = tol or Tolerances()
    if strict_threshold > 0:
        raise ValueError("strict_threshold must be <= 0")
    worst = g_max_all(instance, x_star)
    p = instance.probs
    eps = instance.epsilon
    strict = worst < strict_threshold
    tau = float(p[~strict].sum())
    if not tau < eps:
        raise ConditionViolated(tau, eps)

    alpha_bar, factors = _factor_rule(p, worst, strict, tau, eps)
    alpha = np.ones(instance.N)
    alpha[strict] = factors
    clipped = bool(np.any(alpha > tol.alpha_max))
    alpha = np.minimum(alpha, tol.alpha_max)
    beta = -alpha_bar
    s = np.zeros(instance.N)
    s[~strict] = np.maximum(worst[~strict] + alpha_bar, 0.0)

    # verify the certificate before handing it out
    if eps * beta + float(p @ s) > 1e-9:
        raise SolverFailure("constructed triple violates the risk row")
    if not clipped and np.any(s + beta < alpha * worst - 1e-9):
        raise SolverFailure("constructed triple violates a scenario row")

    return ScalingConstruction(
        alpha_hat=ScalingVector(alpha),
        beta_hat=beta,
        s_hat=s,
        tau=tau,
        alpha_bar=alpha_bar,
        clipped=clipped,
    )


def blend_witnesses(x_star, witnesses, eps_blend: float) -> np.ndarray:
    """Move x_star slightly toward the average of witness points.

    Used when scenarios are satisfied only weakly (rows exactly zero): the
    blend (1 - t) x* + t * mean(witnesses) makes them strictly negative for
    any t in (0, 1) while moving the objective arbitrarily little.
    """
    if not 0.0 < eps_blend < 1.0:
        raise ValueError("eps_blend must lie in (0, 1)")
    x_star = np.atleast_1d(np.asarray(x_star, dtype=float))
    pts = [np.atleast_1d(np.asarray(w, dtype=float)) for w in witnesses]
    if not pts:
        raise DimensionMismatch("witnesses must be non-empty")
    for w in pts:
        if w.shape != x_star.shape:
            raise DimensionMismatch("witness dimension differs from x_star")
    mean = np.mean(pts, axis=0)
    return (1.0 - eps_blend) * x_star + eps_blend * mean


def scaling_heuristic(
    instance: CcpInstance,
    x0,
    tol: Tolerances | None = None,
    fixed_mask: np.ndarray | None = None,
    alpha0: np.ndarray | None = None,
) -> IterationTrace:
    """Iteratively rescale scenarios and re-solve the scaled approximation.

    Starting from ``x0`` (typically the plain CVaR solution), each iteration
    grows the factors of scenarios strictly below ``delta2`` using the
    closed-form construction (never shrinking them), resets all others to
    one, and solves the scaled LP.  Stops when the objective change drops
    below ``delta1`` or after ``max_iter`` iterations; the incumbent record
    (not the last iterate) is the output.

    ``fixed_mask`` pins the masked scenarios' factors to one throughout
    (cost-floor pruning); ``alpha0`` seeds the factors (all ones by default).
    The scaled solves share one hinge master, so each carries the cuts that
    bound at the last one's optimum.
    """
    tol = tol or Tolerances()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    alpha = np.ones(instance.N) if alpha0 is None else np.asarray(alpha0, dtype=float).copy()
    if fixed_mask is not None:
        fixed_mask = np.asarray(fixed_mask, dtype=bool)
        alpha[fixed_mask] = 1.0

    trace = IterationTrace()
    trace.add(0, float(instance.c @ x), x, alpha, None)
    obj_prev = float(instance.c @ x)
    p = instance.probs
    eps = instance.epsilon
    guard_tripped = False
    master = _HingeMaster()

    for k in range(1, tol.max_iter + 1):
        worst = g_max_all(instance, x)
        strict = worst < tol.delta2
        tau = float(p[~strict].sum())
        guard_tripped = eps - tau <= 1e-12
        if not guard_tripped:
            _, factors = _factor_rule(p, worst, strict, tau, eps)
            new_alpha = np.ones(instance.N)
            new_alpha[strict] = np.maximum(factors, alpha[strict])
            alpha = np.minimum(new_alpha, tol.alpha_max)
            if fixed_mask is not None:
                alpha[fixed_mask] = 1.0
        sol = solve_scaled_cvar(instance, ScalingVector(alpha), tol, master=master)
        if not sol.optimal:
            if k == 1:
                raise InfeasibleProblem(
                    "first scaled-approximation solve is infeasible from this start"
                )
            trace.termination = Termination.INFEASIBLE
            return trace
        delta = abs(obj_prev - sol.objective)
        trace.add(k, sol.objective, sol.x, alpha, delta)
        x, obj_prev = sol.x, sol.objective
        if delta < tol.delta1:
            trace.termination = (
                Termination.STALLED if guard_tripped else Termination.CONVERGED
            )
            return trace
    trace.termination = Termination.MAX_ITER
    return trace


def scenario_cost_floors(instance: CcpInstance) -> np.ndarray:
    """Cheapest cost of satisfying each single scenario over the domain.

    Entry i is  min c.x  s.t.  x in domain and all rows of scenario i <= 0,
    or +inf when that slice of the domain is empty.
    """
    floors = np.empty(instance.N)
    for i, scen in enumerate(instance.scenarios):
        res = solve_lp(_domain_lp(instance, instance.c, scen.W, -scen.d))
        if res.status == SolveStatus.OPTIMAL:
            floors[i] = res.objective
        elif res.status == SolveStatus.INFEASIBLE:
            floors[i] = np.inf
        elif res.status == SolveStatus.UNBOUNDED:
            floors[i] = -np.inf
        else:
            raise SolverFailure(f"cost-floor LP {i + 1} ended with {res.status.value}")
    return floors


def pin_alpha_mask(floors: np.ndarray, v_upper: float,
                   feas_tol: float = Tolerances.feas_tol) -> np.ndarray:
    """Scenarios whose cost floor exceeds the upper bound can keep factor one.

    If even the cheapest point satisfying scenario i costs more than a known
    upper bound on the scaled approximation, no optimal point satisfies i, so
    scaling it up cannot help.
    """
    return np.asarray(floors) > v_upper + feas_tol
