"""Sequential convex refinement of the scaled approximation.

Optimizing jointly over (x, alpha) makes the scenario rows bilinear.  Writing
each product via  a*b = [(a+b)^2 - (a-b)^2] / 4  and replacing the concave
square by its tangent at the previous iterate turns every row into a convex
quadratic constraint, encoded as one second-order-cone block.  The tangent
underestimates the square, so every point feasible for the convex subproblem
also satisfies the true bilinear row, and the previous iterate is feasible in
its own subproblem; objectives therefore never increase along the iteration.

Two loops are provided: one relaxing every scenario, and a hybrid that only
relaxes the scenarios currently strictly satisfied (all others keep factor
one, which keeps the cone count small) and then hands its factors to the
plain scaling heuristic for a final refinement.

Each subproblem is solved at the cone solver's own accuracy, and only an
OPTIMAL solve becomes an iterate: any other status (ITERATION_LIMIT
included) ends the loop with NUMERICAL_ERROR, or raises InfeasibleProblem
when the first subproblem is infeasible.  The loop keeps its scaling
factors and re-solves the scaled CVaR LP at them; that LP's exact vertex
replaces the cone point unless its value exceeds the cone value by more than
1e-6, which keeps the recorded objectives monotone below the cone solver's
noise.

From the second subproblem on, the cone solve is warm-started
(``solve_socp``'s ``warm``) from the previous subproblem's result and the
anchor point stacked for the admissibility check.  That point is feasible in
the new subproblem because the tangent is exact at the anchor, so only the
dual comes from the earlier spec.  Where the relax set changed, the layouts
differ and the solve starts cold; the first subproblem always does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conic import ConeStack, SocpSpec, SolveStatus, solve_socp
from .cvar import CvarSolution, _head_rows, _scenario_rows, solve_scaled_cvar
from .errors import InfeasibleProblem, SolverFailure
from .model import CcpInstance, ScalingVector, Tolerances, g_max_all
from .scaling import IterationTrace, Termination, scaling_heuristic

__all__ = [
    "SquareTangent",
    "build_dc_subproblem",
    "sequential_convex",
    "hybrid_refine",
]

@dataclass(frozen=True)
class SquareTangent:
    """First-order tangents of (alpha_i - g_j(x))^2 at an anchor (x_k, alpha_k).

    ``slope[i, j]`` is alpha_k[i] - g_j(x_k, scenario i); the tangent at a new
    point is  slope^2 + 2*slope*((alpha_i - alpha_k[i]) - (g_j(x) - g_j(x_k))),
    which underestimates the square everywhere and is exact at the anchor.
    """

    anchor_x: np.ndarray
    anchor_alpha: np.ndarray
    g_anchor: np.ndarray  # (N, J) row values at the anchor
    slope: np.ndarray     # (N, J)

    @classmethod
    def at(cls, instance: CcpInstance, x_k, alpha_k) -> "SquareTangent":
        x_k = np.asarray(x_k, dtype=float)
        alpha_k = np.asarray(alpha_k, dtype=float)
        g = (instance.w_stack @ x_k + instance.d_stack).reshape(instance.N, instance.J)
        return cls(
            anchor_x=x_k,
            anchor_alpha=alpha_k,
            g_anchor=g,
            slope=alpha_k[:, None] - g,
        )

    def value(self, i: int, j: int, alpha_i: float, g_ij: float) -> float:
        a = self.slope[i, j]
        return a * a + 2.0 * a * ((alpha_i - self.anchor_alpha[i]) - (g_ij - self.g_anchor[i, j]))


def build_dc_subproblem(
    instance: CcpInstance,
    x_k,
    alpha_k,
    relax_set,
    tol: Tolerances | None = None,
) -> SocpSpec:
    """Convex subproblem in (x, beta, s, alpha_relaxed) anchored at (x_k, alpha_k).

    Scenarios outside ``relax_set`` keep factor one and contribute plain linear
    rows; each row of a relaxed scenario contributes one cone block encoding

        (alpha_i + g_j(x))^2 <= 4(s_i + beta) + tangent_ij(alpha_i, x)

    via  ||(2q, 1-r)|| <= 1+r.  An empty relax set therefore reproduces the
    plain approximation LP exactly (no cones).
    """
    tol = tol or Tolerances()
    n, N, J = instance.n, instance.N, instance.J
    relax = np.zeros(N, dtype=bool)
    relax[np.asarray(list(relax_set), dtype=int)] = True  # 0-based scenario positions
    n_relax = int(relax.sum())
    nv = n + 1 + N + n_relax
    tangent = SquareTangent.at(instance, x_k, alpha_k)

    # linear rows: the risk row, the rows of the scenarios kept at factor one
    # and the domain rows.  No beta floor here: the risk row bounds beta
    # because the probabilities sum to one and eps < 1
    c, head, head_rhs, lb, ub = _head_rows(instance, instance.probs, width=nv, beta_floor=False)
    scen, scen_rhs = _scenario_rows(instance, np.ones(N), nv, keep=~relax)
    A = np.vstack([head[:1], scen, head[1:]])
    b = np.concatenate([head_rhs[:1], scen_rhs, head_rhs[1:]])

    # one cone per row of a relaxed scenario, scenario-major:
    # q = alpha_i + g_j(x);  r = 4(s_i + beta) + tangent_ij
    rows = np.flatnonzero(np.repeat(relax, J))
    scen_of = rows // J
    k = np.arange(rows.size)
    alpha_col = n + 1 + N + k // J
    a = tangent.slope.ravel()[rows]
    W, d = instance.w_stack[rows], instance.d_stack[rows]
    q_coef = np.zeros((rows.size, nv))
    q_coef[:, :n] = W
    q_coef[k, alpha_col] = 1.0
    r_coef = np.zeros((rows.size, nv))
    r_coef[:, :n] = -2.0 * a[:, None] * W
    r_coef[:, n] = 4.0
    r_coef[k, n + 1 + scen_of] = 4.0
    r_coef[k, alpha_col] = 2.0 * a
    # each row's own 1-D dot: a batched W @ x rounds differently
    w_dot_x = np.array([float(w @ tangent.anchor_x) for w in W])
    r_const = a * a - 2.0 * a * tangent.anchor_alpha[scen_of] + 2.0 * a * w_dot_x
    F = np.stack([2.0 * q_coef, -r_coef], axis=1)
    f = np.stack([2.0 * d, 1.0 - r_const], axis=1)
    cones = ConeStack(F=F, f=f, g=r_coef, h=1.0 + r_const)

    lb = np.concatenate([lb, np.ones(n_relax)])
    ub = np.concatenate([ub, np.full(n_relax, tol.alpha_max)])
    # x and beta are global; s_i and alpha_i belong to scenario i's block
    partition = np.concatenate([np.full(n + 1, -1), np.arange(N), np.flatnonzero(relax)])
    return SocpSpec(c=c, A=A, b=b, cones=cones, lb=lb, ub=ub, partition=partition)


def point_feasible_in_subproblem(
    spec: SocpSpec, z: np.ndarray, slack: float = 1e-7
) -> bool:
    """Check one stacked point against every row, cone, and bound of a spec
    from ``build_dc_subproblem`` (its cones are one ``ConeStack``)."""
    if spec.A.shape[0] and np.max(spec.A @ z - spec.b) > slack:
        return False
    cones = spec.cones
    if len(cones) and np.any(
        np.linalg.norm(cones.F @ z + cones.f, axis=1) > cones.g @ z + cones.h + slack
    ):
        return False
    if np.max(spec.lb - z, initial=0.0) > slack or np.max(z - spec.ub, initial=0.0) > slack:
        return False
    return True


def _stack_point(instance, x, beta, s, alpha, relax_idx) -> np.ndarray:
    return np.concatenate([x, [beta], s, np.asarray(alpha)[relax_idx]])


def _extract(instance: CcpInstance, relax_idx: np.ndarray, z: np.ndarray, alpha_max: float):
    n, N = instance.n, instance.N
    x = z[:n]
    beta = float(z[n])
    s = z[n + 1 : n + 1 + N]
    alpha = np.ones(N)
    alpha[relax_idx] = np.clip(z[n + 1 + N :], 1.0, alpha_max)
    return x, beta, s, alpha


def _sca_loop(
    instance: CcpInstance,
    x0,
    tol: Tolerances,
    relax_rule,
) -> tuple[IterationTrace, np.ndarray, CvarSolution | None]:
    """Shared loop: relax_rule(worst) picks the scenarios left free to scale.

    Returns the trace, the last factors and the scaled LP solved at exactly
    those factors by the last polish (None when no subproblem succeeded).
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    alpha = np.ones(instance.N)
    beta, s = 0.0, np.zeros(instance.N)

    trace = IterationTrace()
    trace.add(0, float(instance.c @ x), x, alpha, None)
    obj_prev = float(instance.c @ x)
    res = None  # the previous subproblem's result, once there is an iterate
    polished = None

    for k in range(1, tol.max_iter + 1):
        relax_idx = np.flatnonzero(relax_rule(g_max_all(instance, x)))
        spec = build_dc_subproblem(instance, x, alpha, relax_idx, tol)
        warm = None
        if res is not None:
            z_prev = _stack_point(instance, x, beta, s, alpha, relax_idx)
            # the previous iterate must stay feasible: the tangent is exact at
            # the anchor, which is the mechanism behind the monotone objective.
            # (With a negative threshold a scenario whose row sits between
            # delta2 and zero may leave the relax set and void the guarantee,
            # so the check only applies at threshold zero.)
            if tol.delta2 >= 0.0 and not point_feasible_in_subproblem(spec, z_prev, slack=1e-6):
                raise SolverFailure("anchor admissibility violated; subproblem is malformed")
            warm = (z_prev, res)
        res = solve_socp(spec, warm=warm)
        if res.optimal:
            x, beta, s, alpha = _extract(instance, relax_idx, res.z, tol.alpha_max)
            objective = res.objective
            # polish: re-solve the scaled LP at the extracted factors.  The
            # subproblem point is feasible for it (the tangent underestimates
            # the square), so this can only improve, and the exact vertex it
            # returns keeps the recorded sequence monotone at solver noise
            # levels the cone solver alone cannot guarantee.
            polished = solve_scaled_cvar(instance, ScalingVector(alpha), tol)
            if polished.optimal and polished.objective <= objective + 1e-6:
                x, beta, s = polished.x, polished.beta, polished.s
                objective = polished.objective
            delta = abs(obj_prev - objective)
            trace.add(k, objective, x, alpha, delta)
            obj_prev = objective
            if delta < tol.delta1:
                trace.termination = Termination.CONVERGED
                return trace, alpha, polished
            continue
        if res.status == SolveStatus.INFEASIBLE and k == 1:
            raise InfeasibleProblem("first convex subproblem is infeasible from this start")
        trace.termination = Termination.NUMERICAL_ERROR
        return trace, alpha, polished
    trace.termination = Termination.MAX_ITER
    return trace, alpha, polished


def sequential_convex(
    instance: CcpInstance, x0, tol: Tolerances | None = None
) -> IterationTrace:
    """Jointly update (x, alpha) through convex subproblems relaxing every scenario."""
    tol = tol or Tolerances()
    trace, _, _ = _sca_loop(instance, x0, tol, lambda worst: np.ones(instance.N, dtype=bool))
    return trace


def hybrid_refine(
    instance: CcpInstance, x0, tol: Tolerances | None = None
) -> IterationTrace:
    """Relax only strictly-satisfied scenarios, then refine with the heuristic.

    After the convex loop terminates with factors ``alpha``, the scaled LP at
    exactly those factors (this can only improve on the last convex iterate)
    is recorded, and the plain scaling heuristic continues from there; the
    combined trace is returned and its incumbent is the answer.  That LP is
    the loop's last polish, so it is solved here only when the first
    subproblem failed.
    """
    tol = tol or Tolerances()
    trace, alpha, post = _sca_loop(instance, x0, tol, lambda worst: worst < tol.delta2)

    if post is None:
        post = solve_scaled_cvar(instance, ScalingVector(alpha), tol)
    if post.optimal:
        last = trace.records[-1]
        trace.add(last.k + 1, post.objective, post.x, alpha, abs(last.objective - post.objective))
        trace.handoff_index = len(trace.records) - 1
        tail = scaling_heuristic(instance, post.x, tol, alpha0=alpha)
        handoff = trace.records[-1].k
        for r in tail.records[1:]:
            trace.add(handoff + r.k, r.objective, r.x, r.alpha, r.delta)
        trace.termination = tail.termination
    return trace
