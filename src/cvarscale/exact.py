"""Desk-scale exact oracles for the chance-constrained program.

A point is feasible exactly when the scenarios it satisfies carry mass at
least ``1 - epsilon``, so the optimum equals the best value over all
inclusion-minimal scenario subsets of sufficient mass of the LP that enforces
the subset's rows.  Supersets only add constraints, so restricting the
enumeration to minimal subsets loses nothing.  They are walked as one
LP-bounded tree of scenario prefixes, weighted by the scenario probabilities
whether or not they are equal (Luedtke, Ahmed & Nemhauser, "An integer
programming approach for linear programs with probabilistic constraints",
Math. Prog. 2010).  "Sufficient mass" is ``model``'s rule: at least
``1 - epsilon - model._MASS_TOL``, the slack ``chance_feasible`` forgives, so
the oracle never sits above a point the package calls chance-feasible.

These oracles exist to certify the approximation algorithms on small
instances; they deliberately stop at ~20 scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import LinearProgramSpec, SolveStatus, solve_lp
from .errors import InfeasibleProblem, SolverFailure, TooLarge
from .model import _MASS_TOL, CcpInstance, Tolerances, _domain_lp, chance_feasible, g_max_all

__all__ = ["ExactResult", "brute_force_optimal", "grid_brute_force", "minimal_support_size"]


@dataclass(frozen=True)
class ExactResult:
    v_star: float
    x_star: np.ndarray
    satisfied_set: tuple[int, ...]  # scenario labels, 1-based
    subproblems_solved: int  # LP solves (prefixes included), or candidates checked


def minimal_support_size(N: int, epsilon: float) -> int:
    """Smallest k with k/N >= 1 - epsilon - ``model._MASS_TOL``: the size of
    every minimal subset of N equiprobable scenarios."""
    return max(0, math.ceil(N * (1.0 - epsilon - _MASS_TOL)))


def brute_force_optimal(
    instance: CcpInstance, max_scenarios: int = 20, tol: Tolerances | None = None
) -> ExactResult:
    """Exact optimum by a depth-first walk over the minimal satisfied-scenario subsets.

    A node is an increasing scenario prefix, extended one later scenario at a
    time while the missing probability mass can be reached; once its mass
    reaches ``1 - epsilon - model._MASS_TOL`` it is a leaf, kept if minimal.
    Equal probabilities take the same walk, whose leaves are then the
    k-subsets, k = ``minimal_support_size``.  A node's LP is the domain rows,
    then its scenarios' rows in order, resumed from the parent's optimal
    result.  A leaf replaces the incumbent when lower by more than 1e-12; a
    prefix whose LP is infeasible, or whose value less a margin above LP
    rounding fails that test, is pruned with its subtree.  Leaves come in
    lexicographic order, so the smallest of tied subsets wins.
    ``subproblems_solved`` counts every LP, prefixes included; ``tol`` is
    unused, the LPs having no tolerance to set.
    """
    N, J = instance.N, instance.J
    if N > max_scenarios:
        raise TooLarge(f"N={N} exceeds the enumeration cap {max_scenarios}")
    weight, need = instance.probs, 1.0 - instance.epsilon - _MASS_TOL
    reach = np.cumsum(weight[::-1])[::-1]  # mass of scenarios i..N-1
    rows, rhs = instance.w_stack.reshape(N, J, instance.n), -instance.d_stack.reshape(N, J)
    best_obj, best_x, best_subset, solved = np.inf, None, None, 0

    def visit(spec, warm, prefix, mass, lightest):
        nonlocal best_obj, best_x, best_subset, solved
        if prefix or mass >= need:  # the domain-only root is solved only as a leaf
            res = solve_lp(spec, warm=warm)
            solved += 1
            if mass >= need:
                if res.status == SolveStatus.UNBOUNDED:
                    raise SolverFailure("subset LP unbounded; the instance cost is unbounded below")
                if res.optimal and res.objective < best_obj - 1e-12:
                    best_obj, best_x, best_subset = res.objective, res.z, prefix
                return
            # 1e-14 (1 + |v|): twice the largest warm-vs-cold gap of a prefix LP on the corpus
            if res.status == SolveStatus.INFEASIBLE or res.optimal and (
                    res.objective - 1e-14 * (1.0 + abs(res.objective)) >= best_obj - 1e-12):
                return
            warm = res if res.optimal else None
        for i in range(prefix[-1] + 1 if prefix else 0, N):
            if mass + reach[i] < need:
                return  # later scenarios reach even less
            m, light = mass + weight[i], min(lightest, weight[i])
            if m >= need and m - light >= need:
                continue  # not minimal
            visit(LinearProgramSpec(spec.c, np.vstack([spec.A, rows[i]]),
                                    np.concatenate([spec.b, rhs[i]]), spec.lb, spec.ub),
                  warm, prefix + (i,), m, light)

    visit(_domain_lp(instance, instance.c), None, (), 0.0, np.inf)
    if best_x is None:
        raise InfeasibleProblem("every minimal-subset LP is infeasible")
    return ExactResult(
        v_star=float(best_obj),
        x_star=best_x,
        satisfied_set=tuple(i + 1 for i in best_subset),
        subproblems_solved=solved,
    )


def grid_brute_force(
    instance: CcpInstance, candidates, tol: Tolerances | None = None
) -> ExactResult:
    """Best chance-feasible candidate from an explicit list of decision points.

    This is the oracle for instances whose true domain is a finite grid (for
    example integer lattices): the LP machinery never sees the integrality,
    only the candidate list does.
    """
    tol = tol or Tolerances()
    pts = [np.atleast_1d(np.asarray(c, dtype=float)) for c in candidates]
    if not pts:
        raise InfeasibleProblem("empty candidate list")
    dom = instance.domain
    for c in pts:
        if np.any(c < dom.lb - 1e-9) or np.any(c > dom.ub + 1e-9):
            raise InfeasibleProblem(f"candidate {c} violates the domain bounds")
    best_obj = np.inf
    best_x = None
    checked = 0
    for c in pts:
        checked += 1
        if not chance_feasible(instance, c, tol.feas_tol):
            continue
        obj = float(instance.c @ c)
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_x = c
    if best_x is None:
        raise InfeasibleProblem("no candidate is chance-feasible")
    sat = np.flatnonzero(g_max_all(instance, best_x) <= tol.feas_tol)
    return ExactResult(
        v_star=best_obj,
        x_star=best_x,
        satisfied_set=tuple(int(i) + 1 for i in sat),
        subproblems_solved=checked,
    )
