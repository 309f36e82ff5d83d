"""Objective-budget bisection baselines.

Bisection maintains a budget interval [t_L, t_U].  At each midpoint t the
"lower level" minimizes the CVaR-type hinge loss

    eps * beta + sum_i p_i [ worst_row_i(x) - beta ]_+      s.t.  c.x <= t

over the domain.  If the minimizer is chance-feasible, with the rows of its
satisfied scenarios held to the LPs' accuracy, the budget is provable, so t_U
drops to t; otherwise t_L rises to t.  The scaled variant gets a second
chance on failed budgets: it reruns the scaling heuristic on the
budget-restricted instance, which can certify budgets the plain check misses.

One bisection owns one hinge master (``cvar._HingeMaster``) and passes it to
every lower level.  Between two budgets only the budget row's right-hand side
changes, so each lower level after the first starts on the previous level's
last LP, its cut pool or its explicit rows alike, at the new budget, and
resumes that LP's optimal tableau by a few dual simplex pivots instead of a
cold solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .conic import SolveStatus, solve_lp
from .cvar import _HingeMaster, _solve_hinge, solve_cvar
from .errors import InfeasibleProblem, NoFeasibleIncumbent, SolverFailure
from .model import CcpInstance, Tolerances, _domain_lp, chance_feasible, with_extra_domain_rows
from .scaling import scaling_heuristic

__all__ = ["BisectionStep", "BisectionReport", "lower_level", "alsox_sharp", "alsox_sharp_scaled"]

# Rows of the scenarios a certified point satisfies must hold to the accuracy
# of the LPs that produced it.  Counted as satisfied up to feas_tol, a row at
# +6e-7 let a budget through that lies up to 6e-5 below the exact optimum.
_ROW_ACCURACY = 1e-9


@dataclass(frozen=True)
class BisectionStep:
    t: float
    lower_value: float
    feasible: bool
    rescued: bool = False


@dataclass
class BisectionReport:
    steps: list[BisectionStep] = field(default_factory=list)
    bounds_history: list[tuple[float, float]] = field(default_factory=list)
    x: np.ndarray | None = None
    objective: float = np.nan  # c.x of the returned point
    t_lower: float = np.nan
    t_upper: float = np.nan

    def to_dict(self) -> dict:
        return {
            "steps": [
                {"t": s.t, "lower_value": s.lower_value, "feasible": s.feasible,
                 "rescued": s.rescued}
                for s in self.steps
            ],
            "bounds_history": [[lo, hi] for lo, hi in self.bounds_history],
            "x": None if self.x is None else [float(v) for v in self.x],
            "objective": None if np.isnan(self.objective) else float(self.objective),
            "t_lower": float(self.t_lower),
            "t_upper": float(self.t_upper),
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))


def lower_level(
    instance: CcpInstance, t: float, *, master: _HingeMaster | None = None
) -> tuple[np.ndarray, float, float]:
    """Minimize the hinge loss under the budget row c.x <= t.

    Returns (x, beta, value).  Raises InfeasibleProblem when the budget row
    cuts off the whole domain.  ``master`` is a bisection's private
    ``cvar._HingeMaster``; without it the solve starts cold.
    """
    sol = _solve_hinge(instance, np.ones(instance.N), budget=t, master=master)
    if sol.status == SolveStatus.INFEASIBLE:
        raise InfeasibleProblem(f"budget {t!r} cuts off the whole domain")
    if sol.status != SolveStatus.OPTIMAL:
        raise SolverFailure(f"lower-level LP ended with status {sol.status.value}")
    return sol.x, sol.beta, float(sol.objective)


def _certifies(instance: CcpInstance, x: np.ndarray, tol: Tolerances) -> bool:
    """True when x is chance-feasible with its satisfied rows at the LP's accuracy."""
    return chance_feasible(instance, x, min(tol.feas_tol, _ROW_ACCURACY))


def _default_t_lower(instance: CcpInstance) -> float:
    """Cost minimum over the domain alone; a valid lower bound on the optimum."""
    res = solve_lp(_domain_lp(instance, instance.c))
    if res.status != SolveStatus.OPTIMAL:
        raise SolverFailure(f"domain cost bound LP ended with {res.status.value}")
    return res.objective


def _bisect(
    instance: CcpInstance,
    t_lower: float | None,
    t_upper: float | None,
    delta_A: float | None,
    tol: Tolerances,
    rescue,
) -> BisectionReport:
    tol = tol or Tolerances()
    if t_lower is None:
        t_lower = _default_t_lower(instance)
    if t_upper is None:
        cvar = solve_cvar(instance, tol)
        if not cvar.optimal:
            raise InfeasibleProblem(
                "plain CVaR approximation is infeasible; supply an explicit budget upper bound"
            )
        t_upper = cvar.objective
    if delta_A is None:
        delta_A = tol.delta_A
    if t_lower > t_upper + 1e-12:
        raise ValueError(f"t_lower={t_lower!r} exceeds t_upper={t_upper!r}")

    report = BisectionReport(t_lower=t_lower, t_upper=t_upper)
    report.bounds_history.append((t_lower, t_upper))

    # the initial upper bound comes from a feasible method; its lower-level
    # solution provides the starting incumbent
    master = _HingeMaster()
    x0, _, v0 = lower_level(instance, t_upper, master=master)
    if _certifies(instance, x0, tol):
        report.x = x0
        report.objective = float(instance.c @ x0)

    while t_upper - t_lower > delta_A:
        t = (t_lower + t_upper) / 2.0
        x, _, value = lower_level(instance, t, master=master)
        feasible = _certifies(instance, x, tol)
        rescued = False
        if not feasible and rescue is not None:
            rx = rescue(t, x, report.x)
            if rx is not None:
                x, feasible, rescued = rx, True, True
        report.steps.append(BisectionStep(t=t, lower_value=value, feasible=feasible,
                                          rescued=rescued))
        if feasible:
            t_upper = t
            report.x = x
            report.objective = float(instance.c @ x)
        else:
            t_lower = t
        report.bounds_history.append((t_lower, t_upper))

    report.t_lower, report.t_upper = t_lower, t_upper
    if report.x is None:
        raise NoFeasibleIncumbent(
            "no chance-feasible point found at any visited budget; "
            "the supplied upper bound does not come from a feasible method"
        )
    return report


def alsox_sharp(
    instance: CcpInstance,
    t_lower: float | None = None,
    t_upper: float | None = None,
    delta_A: float | None = None,
    tol: Tolerances | None = None,
) -> BisectionReport:
    """Plain budget bisection over the hinge-loss lower level."""
    return _bisect(instance, t_lower, t_upper, delta_A, tol or Tolerances(), rescue=None)


def alsox_sharp_scaled(
    instance: CcpInstance,
    t_lower: float | None = None,
    t_upper: float | None = None,
    delta_A: float | None = None,
    tol: Tolerances | None = None,
) -> BisectionReport:
    """Budget bisection with a scaling rescue on failed feasibility checks.

    When the lower-level minimizer violates the chance constraint, the scaling
    heuristic is run on the budget-restricted instance before giving up on the
    budget.  It is seeded with the failed lower-level point and, because a
    chance-infeasible seed cannot trigger any scaling (its strictly-satisfied
    mass is below 1 - eps), with the current incumbent as a fallback seed.
    Any chance-feasible incumbent found certifies the budget, so the final
    upper bound is never worse than the plain variant's.
    """
    tol = tol or Tolerances()

    def rescue(t: float, x_failed: np.ndarray, incumbent: np.ndarray | None):
        restricted = with_extra_domain_rows(instance, instance.c[None, :], [t])
        seeds = [x_failed]
        if incumbent is not None:
            seeds.append(incumbent)
        for seed in seeds:
            try:
                trace = scaling_heuristic(restricted, seed, tol)
            except InfeasibleProblem:
                continue
            inc = trace.incumbent
            on_budget = float(instance.c @ inc.x) <= t + 1e-9
            if inc.k > 0 and on_budget and _certifies(instance, inc.x, tol):
                return inc.x
        return None

    return _bisect(instance, t_lower, t_upper, delta_A, tol, rescue=rescue)
