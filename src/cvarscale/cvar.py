"""Plain and scenario-scaled CVaR approximations of the chance constraint.

The chance constraint is replaced by the conservative requirement that the
CVaR of the scenario losses is nonpositive.  With auxiliary variables this is
the linear program

    minimize    c . x
    subject to  eps * beta + sum_i p_i s_i <= 0
                s_i + beta >= alpha_i * g_j(x, scenario i)   for all i, j
                x in domain,  beta <= 0,  s >= 0,

where ``alpha`` is a fixed per-scenario scaling vector (all ones recovers the
plain approximation).  Any optimal solution is chance-feasible, and larger
factors on strictly-satisfiable scenarios can only help the objective.

Large instances are solved in the reduced form over (x, beta, theta), where
theta stands for sum_i p_i s_i: one aggregated hinge cut

    theta >= sum_{i in S} p_i (alpha_i g_{i j(i)}(x) - beta)

per tail set S, generated on demand (Klein Haneveld & van der Vlerk, Comput.
Manag. Sci. 2006; Kuenzi-Bauer & Luethi, Comput. Manag. Sci. 2012).  Small
instances keep the explicit LP, which is faster there.

A loop that makes a chain of these solves on one instance (the budget
bisection in ``alsox``, the scaling heuristic in ``scaling``) owns one
private ``_HingeMaster`` and passes it to each solve.  It keeps the loop's
last optimal LP and what that LP's rows mean:

- at the same factors (a bisection, where only the budget row's right-hand
  side moves) the next solve starts on the whole last LP, cut pool or
  explicit rows, at its new budget, and resumes its tableau
  (``solve_lp``'s ``warm``) instead of a cold first round;
- at new factors (the heuristic) the cuts that bound at the last optimum,
  kept as a subset S and one chosen row j(i) per member, are re-weighted into
  sum_{i in S} p_i (alpha_i g_{i j(i)}(x) - beta) <= theta, which is valid for
  every alpha >= 0, and seed the next solve's first round (Fabian, EJOR 2008).

Only a solve's own cuts count toward the explicit-LP hand-over.  A solve
called without a master behaves as one with a fresh master.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .conic import LinearProgramSpec, SolveResult, SolveStatus, solve_lp
from .errors import DimensionMismatch, SolverFailure
from .model import CcpInstance, ScalingVector, Tolerances, g_max_all, violation_probability

__all__ = [
    "CvarSolution",
    "solution_doc",
    "solve_cvar",
    "solve_scaled_cvar",
    "scaled_feasibility_at_x",
    "evaluate_cvar_at_x",
]

_BETA_FLOOR = 1e9


@dataclass(frozen=True)
class CvarSolution:
    x: np.ndarray | None
    beta: float
    s: np.ndarray | None
    alpha: np.ndarray
    objective: float
    status: SolveStatus

    @property
    def optimal(self) -> bool:
        return self.status == SolveStatus.OPTIMAL

    def to_dict(self, instance: CcpInstance | None = None,
                feas_tol: float = Tolerances.feas_tol) -> dict:
        """JSON document; ``violation_prob`` counts rows above ``feas_tol``."""
        return solution_doc(
            self.objective, self.x, self.alpha, instance, feas_tol,
            beta=None if self.x is None else self.beta, s=self.s, status=self.status,
        )


def solution_doc(objective, x, alpha, instance: CcpInstance | None, feas_tol: float,
                 beta=None, s=None, status=SolveStatus.OPTIMAL) -> dict:
    """The document {objective, x, beta, s, alpha, status, violation_prob} of a
    CVaR solution or of a point without (beta, s); ``violation_prob`` counts
    rows above ``feas_tol`` (None without an instance or a point)."""
    return {
        "objective": None if np.isnan(objective) else float(objective),
        "x": None if x is None else [float(v) for v in x],
        "beta": None if beta is None else float(beta),
        "s": None if s is None else [float(v) for v in s],
        "alpha": [float(v) for v in alpha],
        "status": status.value,
        "violation_prob": (None if instance is None or x is None
                           else violation_probability(instance, x, feas_tol)),
    }


def _scenario_rows(
    instance: CcpInstance, alpha: np.ndarray, width: int, keep: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The rows alpha_i W_ij.x - beta - s_i <= -alpha_i d_ij over (x, beta, s).

    Zero columns pad them to ``width``.  ``keep``, a mask over scenarios,
    selects the scenarios whose rows are written, in scenario-major order.
    """
    n, N, J = instance.n, instance.N, instance.J
    alpha_rows = np.repeat(alpha, J)
    A = np.zeros((N * J, width))
    A[:, :n] = alpha_rows[:, None] * instance.w_stack
    A[:, n] = -1.0
    A[np.arange(N * J), n + 1 + np.repeat(np.arange(N), J)] = -1.0
    b = -alpha_rows * instance.d_stack
    if keep is None:
        return A, b
    rows = np.repeat(keep, J)
    return A[rows], b[rows]


def _head_rows(
    instance: CcpInstance,
    tail: np.ndarray,
    budget: float | None = None,
    width: int | None = None,
    beta_floor: bool = True,
):
    """Objective, head rows and bounds over (x, beta, tail) as (c, A, b, lb, ub).

    The tail columns carry the weights ``tail`` in the risk row
    eps * beta + tail . s <= 0 and are nonnegative.  With ``budget`` the
    objective form is written instead: minimize that hinge loss under
    c.x <= budget (no row when the budget is infinite).  The domain rows and
    the beta floor follow.  Zero columns pad c and A to ``width``; lb and ub
    cover (x, beta, tail) only.
    """
    n, dom = instance.n, instance.domain
    tail_cols = slice(n + 1, n + 1 + tail.shape[0])
    width = n + 1 + tail.shape[0] if width is None else width
    c = np.zeros(width)
    rows, rhs = [], []
    if budget is None:
        risk = np.zeros((1, width))
        risk[0, n] = instance.epsilon
        risk[0, tail_cols] = tail
        rows.append(risk)
        rhs.append(np.zeros(1))
        c[:n] = instance.c
    else:
        if np.isfinite(budget):
            row = np.zeros((1, width))
            row[0, :n] = instance.c
            rows.append(row)
            rhs.append(np.array([budget]))
        c[n] = instance.epsilon
        c[tail_cols] = tail
    if dom.P is not None:
        ext = np.zeros((dom.n_rows, width))
        ext[:, :n] = dom.P
        rows.append(ext)
        rhs.append(dom.q)
    if beta_floor:
        # deep floor on beta so degenerate instances cannot report unbounded rays
        floor = np.zeros((1, width))
        floor[0, n] = -1.0
        rows.append(floor)
        rhs.append(np.array([_BETA_FLOOR]))
    lb = np.concatenate([dom.lb, [-np.inf], np.zeros(tail.shape[0])])
    ub = np.concatenate([dom.ub, [0.0], np.full(tail.shape[0], np.inf)])
    return c, np.vstack(rows), np.concatenate(rhs), lb, ub


def build_scaled_cvar_lp(
    instance: CcpInstance, alpha: np.ndarray, budget: float | None = None
) -> LinearProgramSpec:
    """Assemble the scaled approximation as an explicit LP over (x, beta, s).

    With ``budget`` the LP takes its objective form instead: the hinge loss
    eps * beta + sum_i p_i s_i is minimized under the budget row c.x <= budget
    (left out when the budget is infinite).
    """
    scen, scen_rhs = _scenario_rows(instance, alpha, instance.n + 1 + instance.N)
    c, head, head_rhs, lb, ub = _head_rows(instance, instance.probs, budget)
    return LinearProgramSpec(c=c, A=np.vstack([scen, head]),
                             b=np.concatenate([scen_rhs, head_rhs]), lb=lb, ub=ub)


def _no_solution(alpha: np.ndarray, status: SolveStatus) -> CvarSolution:
    return CvarSolution(x=None, beta=np.nan, s=None, alpha=alpha, objective=np.nan, status=status)


@dataclass
class _HingeMaster:
    """One loop's state between its hinge solves (see the module docstring).

    ``res`` is the loop's last optimal LP, solved at the factors ``alpha``: a
    cut master whose cut rows are the pool ``cuts`` (row bytes -> row, rhs,
    members, row choices), or the explicit LP when ``cuts`` is None.
    ``binding`` lists the (members, row choices) of the cuts that bound at
    the last cut master's optimum.
    """

    res: SolveResult | None = None
    alpha: np.ndarray | None = None
    cuts: dict | None = None
    binding: list = field(default_factory=list)

    def resumes(self, alpha: np.ndarray, cuts: bool) -> bool:
        """True when the last LP was of this kind and at these factors."""
        return (self.res is not None and (self.cuts is not None) == cuts
                and np.array_equal(self.alpha, alpha))

    def keep(self, res: SolveResult, alpha: np.ndarray, cuts=None, binding=()) -> None:
        self.res, self.alpha, self.cuts, self.binding = res, alpha, cuts, list(binding)


def _solve_explicit(
    instance: CcpInstance, alpha: np.ndarray, budget: float | None,
    master: _HingeMaster | None = None,
) -> CvarSolution:
    warm = master.res if master is not None and master.resumes(alpha, cuts=False) else None
    res = solve_lp(build_scaled_cvar_lp(instance, alpha, budget), warm=warm)
    if res.status != SolveStatus.OPTIMAL:
        return _no_solution(alpha, res.status)
    if master is not None:
        master.keep(res, alpha)
    n, N = instance.n, instance.N
    z = res.z
    return CvarSolution(
        x=z[:n], beta=float(z[n]), s=z[n + 1 : n + 1 + N], alpha=alpha,
        objective=res.objective, status=res.status,
    )


def _sorted_tail(losses: np.ndarray, p: np.ndarray, eps: float) -> tuple[np.ndarray, int]:
    """Scenarios by decreasing loss, and the length k of the shortest prefix
    whose mass reaches eps; the k-th loss of that order is the value-at-risk."""
    order = np.argsort(-losses, kind="stable")
    k = int(np.searchsorted(np.cumsum(p[order]), eps)) + 1
    return order, min(k, losses.shape[0])


def _worst_rows(instance: CcpInstance, alpha: np.ndarray, x: np.ndarray):
    """Scaled gradient, offset and loss of each scenario's worst row at x, and
    that row's index within the scenario."""
    N, J = instance.N, instance.J
    j = (instance.w_stack @ x + instance.d_stack).reshape(N, J).argmax(axis=1)
    picked = np.arange(N) * J + j
    aW = alpha[:, None] * instance.w_stack[picked]
    ad = alpha * instance.d_stack[picked]
    return aW, ad, aW @ x + ad, j


def _hinge_cut(w, aW, ad) -> tuple[np.ndarray, float]:
    """theta >= sum_i w_i (aW_i.x + ad_i - beta) over the members' weights w and
    scaled rows (aW, ad), as a row over (x, beta, theta)."""
    row = np.concatenate([w @ aW, [-w.sum(), -1.0]])
    return row, -float(w @ ad)


def _reweighted_cut(instance: CcpInstance, alpha: np.ndarray, members, picks):
    """The hinge cut of ``members`` on their rows ``picks``, written at ``alpha``."""
    rows = members * instance.J + picks
    return _hinge_cut(instance.probs[members], alpha[members, None] * instance.w_stack[rows],
                      alpha[members] * instance.d_stack[rows])


# Above this many scenario rows (N * J) the hinge cuts beat the explicit LP.
# Plain CVaR on portfolio and covering instances (n = 4, 8, 20; J = 1, 3;
# five seeds; one BLAS thread) took 0.7-1.7x the explicit time at N * J = 12
# and 24, 0.55-1.02x at 36 and 0.2-0.9x from 48 up.
_CUT_ROWS = 36
# Half-width of the box that stands in for infinite bounds on x once a master
# LP is unbounded.
_X_BOX = 1e6
# Past this many cuts (or a quarter of the explicit LP's scenario rows, if
# more) the explicit LP takes over.  Minimizing the hinge loss under a loose
# budget is the slow case of the cuts: 116 rounds at N = 200, while plain and
# budgeted solves on the benchmark pools ended within 29 cuts.
_POOL_FLOOR = 32


def _solve_by_cuts(
    instance: CcpInstance, alpha: np.ndarray, budget: float | None,
    master: _HingeMaster | None = None,
) -> CvarSolution:
    """The scaled LP over (x, beta, theta) by aggregated hinge cuts.

    The master starts from the all-scenarios cut at the origin clipped to the
    box.  Each round separates the cut of S = {loss > beta} at the master
    optimum and adds it with the cuts of the top-k tail sets around the
    value-at-risk; the loop stops once that cut is already held or violated by
    at most 1e-9 (1 + |theta|).  New cuts are appended to the master's rows,
    so each round after the first resumes on the last optimal tableau: the
    cut rows are eliminated against it and a few dual simplex pivots follow
    (``solve_lp``'s ``warm``).  Every cut is implied by the explicit rows, so
    an infeasible master proves the surrogate infeasible.  An unbounded master
    is boxed, solved cold, and separation goes on; if the box still binds at
    the end the explicit LP decides, so UNBOUNDED comes only from it.

    With a loop's ``master`` the first round starts from the last master at
    the same factors, which it resumes at the new budget, or else is seeded
    with the last master's binding cuts re-weighted at ``alpha``.  The pool it
    starts with, less the all-scenarios cut, does not count toward the
    explicit-LP hand-over.
    """
    n, N = instance.n, instance.N
    p, eps, dom = instance.probs, instance.epsilon, instance.domain
    c, head, head_rhs, lb, ub = _head_rows(instance, np.ones(1), budget)

    cuts: dict[bytes, tuple] = {}

    def hold(row, rhs, members, picks) -> bool:
        """Add a cut to the pool; False when the pool already holds it."""
        key = row.tobytes() + np.float64(rhs).tobytes()
        if key in cuts:
            return False
        cuts[key] = (row, rhs, members, picks)
        return True

    def hold_tail(aW, ad, j, members) -> bool:
        return hold(*_hinge_cut(p[members], aW[members], ad[members]), members, j[members])

    res = None  # new cuts are appended, so each round resumes from the last tableau
    if master is not None and master.resumes(alpha, cuts=True):
        cuts.update(master.cuts)
        res = master.res
    aW, ad, _, j = _worst_rows(instance, alpha, np.clip(np.zeros(n), dom.lb, dom.ub))
    hold_tail(aW, ad, j, np.arange(N))
    if res is None and master is not None:
        for members, picks in master.binding:
            hold(*_reweighted_cut(instance, alpha, members, picks), members, picks)
    carried = len(cuts) - 1
    boxed = None
    while True:
        A = np.vstack([head, *(cut[0] for cut in cuts.values())])
        b = np.concatenate([head_rhs, [cut[1] for cut in cuts.values()]])
        res = solve_lp(LinearProgramSpec(c=c, A=A, b=b, lb=lb, ub=ub), warm=res)
        if res.status == SolveStatus.UNBOUNDED and boxed is None:
            open_lb, open_ub = ~np.isfinite(dom.lb), ~np.isfinite(dom.ub)
            centre = np.where(open_lb, np.where(open_ub, 0.0, dom.ub), dom.lb)
            boxed = open_lb | open_ub
            lb[:n] = np.where(open_lb, centre - _X_BOX, dom.lb)
            ub[:n] = np.where(open_ub, centre + _X_BOX, dom.ub)
            continue
        if res.status != SolveStatus.OPTIMAL:
            return _no_solution(alpha, res.status)
        x, beta, theta = res.z[:n], float(res.z[n]), float(res.z[n + 1])
        aW, ad, loss, j = _worst_rows(instance, alpha, x)
        tail = np.flatnonzero(loss > beta)
        violation = float(p[tail] @ (loss[tail] - beta)) - theta
        if violation <= 1e-9 * (1.0 + abs(theta)) or not hold_tail(aW, ad, j, tail):
            break
        if len(cuts) - carried > max(_POOL_FLOOR, N * instance.J // 4):
            return _solve_explicit(instance, alpha, budget, master)
        order, k = _sorted_tail(loss, p, eps)
        for size in range(max(k - 1, 1), min(k + 1, N) + 1):
            hold_tail(aW, ad, j, order[:size])

    if boxed is not None and np.any(np.abs(x - centre)[boxed] >= 0.5 * _X_BOX):
        return _solve_explicit(instance, alpha, budget, master)
    if master is not None:
        # a boxed master's bounds differ from the next call's, so solve_lp
        # starts that one cold, with the whole pool
        rows = np.array([cut[0] for cut in cuts.values()])
        slack = np.array([cut[1] for cut in cuts.values()]) - rows @ res.z
        binding = [cut[2:] for cut, gap in zip(cuts.values(), slack)
                   if gap <= 1e-9 * (1.0 + abs(theta))]
        master.keep(res, alpha, cuts, binding)
    s = np.maximum(loss - beta, 0.0)
    objective = res.objective if budget is None else eps * beta + float(p @ s)
    return CvarSolution(x=x, beta=beta, s=s, alpha=alpha, objective=objective,
                        status=SolveStatus.OPTIMAL)


def _solve_hinge(
    instance: CcpInstance, alpha: np.ndarray, budget: float | None = None,
    master: _HingeMaster | None = None,
) -> CvarSolution:
    """The scaled LP (objective form when ``budget`` is given) on the faster path."""
    if instance.N * instance.J > _CUT_ROWS:
        return _solve_by_cuts(instance, alpha, budget, master)
    return _solve_explicit(instance, alpha, budget, master)


def solve_scaled_cvar(
    instance: CcpInstance,
    alpha: ScalingVector | np.ndarray,
    tol: Tolerances | None = None,
    *,
    master: _HingeMaster | None = None,
) -> CvarSolution:
    """Solve the scaled approximation at fixed alpha (an LP, since alpha is data).

    ``master`` is a loop's private ``_HingeMaster`` (``scaling_heuristic``
    passes its own); without it the solve starts cold.
    """
    tol = tol or Tolerances()
    if not isinstance(alpha, ScalingVector):
        alpha = ScalingVector(alpha)
    if len(alpha) != instance.N:
        raise DimensionMismatch(f"alpha has {len(alpha)} entries, expected {instance.N}")
    alpha.check(tol.alpha_max)

    sol = _solve_hinge(instance, alpha.alpha, master=master)
    if sol.status == SolveStatus.OPTIMAL:
        if sol.beta <= -0.999 * _BETA_FLOOR:
            warnings.warn("beta floor active; solution may sit on the artificial bound")
        return sol
    if sol.status == SolveStatus.INFEASIBLE:
        return sol
    raise SolverFailure(f"scaled CVaR LP ended with status {sol.status.value}")


def solve_cvar(instance: CcpInstance, tol: Tolerances | None = None) -> CvarSolution:
    """Plain CVaR approximation: the scaled LP with all factors equal to one."""
    return solve_scaled_cvar(instance, ScalingVector.ones(instance.N), tol)


def scaled_feasibility_at_x(
    instance: CcpInstance, x, tol: Tolerances | None = None
) -> tuple[np.ndarray, float, np.ndarray] | None:
    """A feasible (alpha, beta, s) of the scaled approximation at fixed x, or None.

    With x fixed the constraints are linear in (alpha, beta, s); among feasible
    points the one minimizing sum(alpha) is returned, so unnecessary scaling is
    avoided.  Factors live in [1, alpha_max].
    """
    tol = tol or Tolerances()
    worst = g_max_all(instance, x)
    N = instance.N
    # variables: alpha (0..N-1), beta (N), s (N+1..2N)
    nv = 2 * N + 1
    rows = np.zeros((N + 2, nv))
    rhs = np.zeros(N + 2)
    idx = np.arange(N)
    rows[idx, idx] = worst
    rows[idx, N] = -1.0
    rows[idx, N + 1 + idx] = -1.0
    rows[N, N] = instance.epsilon
    rows[N, N + 1 :] = instance.probs
    rows[N + 1, N] = -1.0
    rhs[N + 1] = _BETA_FLOOR

    c = np.concatenate([np.ones(N), [0.0], np.zeros(N)])
    lb = np.concatenate([np.ones(N), [-np.inf], np.zeros(N)])
    ub = np.concatenate([np.full(N, tol.alpha_max), [0.0], np.full(N, np.inf)])
    res = solve_lp(LinearProgramSpec(c=c, A=rows, b=rhs, lb=lb, ub=ub))
    if res.status == SolveStatus.OPTIMAL:
        z = res.z
        return z[:N], float(z[N]), z[N + 1 :]
    if res.status == SolveStatus.INFEASIBLE:
        return None
    raise SolverFailure(f"fixed-x feasibility LP ended with status {res.status.value}")


def evaluate_cvar_at_x(instance: CcpInstance, x) -> float:
    """CVaR of the worst-row loss at x under the scenario distribution.

    The objective beta + E[(loss - beta)+] / eps is piecewise linear in beta
    and minimized at the value-at-risk, the loss where the mass of the sorted
    tail first reaches eps (Rockafellar & Uryasev 2000).
    """
    worst = g_max_all(instance, x)
    order, k = _sorted_tail(worst, instance.probs, instance.epsilon)
    beta = worst[order[k - 1]]
    return float(beta + float(instance.probs @ np.maximum(worst - beta, 0.0)) / instance.epsilon)
