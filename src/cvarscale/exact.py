"""Desk-scale exact oracles for the chance-constrained program.

A point is feasible exactly when the scenarios it satisfies carry mass at
least ``1 - epsilon``, so the optimum equals the best value over all
inclusion-minimal scenario subsets of sufficient mass of the LP that enforces
the subset's rows.  Supersets only add constraints, so restricting the
enumeration to minimal subsets loses nothing and prunes exponentially.

These oracles exist to certify the approximation algorithms on small
instances; they deliberately stop at ~20 scenarios.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conic import SolveStatus, solve_lp
from .errors import InfeasibleProblem, SolverFailure, TooLarge
from .model import CcpInstance, Tolerances, _domain_lp, chance_feasible

__all__ = ["ExactResult", "brute_force_optimal", "grid_brute_force", "minimal_support_size"]


@dataclass(frozen=True)
class ExactResult:
    v_star: float
    x_star: np.ndarray
    satisfied_set: tuple[int, ...]  # scenario labels, 1-based
    subproblems_solved: int


def minimal_support_size(N: int, epsilon: float) -> int:
    """Smallest k with k/N >= 1 - epsilon (equiprobable scenarios)."""
    return max(0, math.ceil(N * (1.0 - epsilon) - 1e-9))


def _minimal_subsets(instance: CcpInstance):
    """Yield inclusion-minimal subsets (as index tuples) of mass >= 1 - eps."""
    p = instance.probs
    N = instance.N
    need = 1.0 - instance.epsilon
    if np.allclose(p, p[0], rtol=0, atol=1e-12):
        k = minimal_support_size(N, instance.epsilon)
        yield from itertools.combinations(range(N), k)
        return
    # general probabilities: subset sums over all masks, minimality means
    # that dropping the lightest member goes below the requirement
    sums = np.zeros(1)
    mins = np.full(1, np.inf)
    for pi in p:
        sums = np.concatenate([sums, sums + pi])
        mins = np.concatenate([mins, np.minimum(mins, pi)])
    masks = np.flatnonzero((sums >= need - 1e-12) & (sums - mins < need - 1e-12))
    for mask in sorted(int(m) for m in masks):
        yield tuple(i for i in range(N) if mask >> i & 1)


def _subset_lp(instance: CcpInstance, subset):
    """min c.x over the domain with every row of the (sorted) scenario subset."""
    keep = np.zeros(instance.N, dtype=bool)
    keep[list(subset)] = True
    rows = np.repeat(keep, instance.J)
    return solve_lp(_domain_lp(instance, instance.c, instance.w_stack[rows],
                               -instance.d_stack[rows]))


def brute_force_optimal(
    instance: CcpInstance, max_scenarios: int = 20, tol: Tolerances | None = None
) -> ExactResult:
    """Exact optimum by enumerating minimal satisfied-scenario subsets.

    Ties between subsets are broken by enumeration order (lexicographically
    smallest subset wins), making the result deterministic.  ``tol`` is
    accepted like the other methods' but unused: the LP solves have no
    tolerance to set.
    """
    if instance.N > max_scenarios:
        raise TooLarge(f"N={instance.N} exceeds the enumeration cap {max_scenarios}")
    best_obj = np.inf
    best_x = None
    best_subset = None
    solved = 0
    for subset in _minimal_subsets(instance):
        res = _subset_lp(instance, subset)
        solved += 1
        if res.status == SolveStatus.OPTIMAL and res.objective < best_obj - 1e-12:
            best_obj = res.objective
            best_x = res.z
            best_subset = subset
        elif res.status == SolveStatus.UNBOUNDED:
            raise SolverFailure("subset LP is unbounded; the instance cost is unbounded below")
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
    worst = (instance.w_stack @ best_x + instance.d_stack).reshape(instance.N, instance.J)
    sat = np.flatnonzero(worst.max(axis=1) <= tol.feas_tol)
    return ExactResult(
        v_star=best_obj,
        x_star=best_x,
        satisfied_set=tuple(int(i) + 1 for i in sat),
        subproblems_solved=checked,
    )
