"""Convex subproblem construction and the sequential refinement loops."""

import numpy as np
import pytest

from cvarscale import ScalingVector, Tolerances, chance_feasible, g_max_all
from cvarscale.conic import SocCone, SocpSpec, SolveStatus, ipm, solve_socp
from cvarscale.cvar import solve_cvar, solve_scaled_cvar
from cvarscale.sca import (
    SquareTangent,
    build_dc_subproblem,
    hybrid_refine,
    point_feasible_in_subproblem,
    sequential_convex,
)
from cvarscale.scaling import Termination
from tests.conftest import single_row_instance
from tests.test_scaling import small_corpus


@pytest.fixture(scope="module")
def step_line():
    """min x over x >= 0; scenario rows 1-x and 2-x, equiprobable, eps=0.6.

    Chance feasibility needs one satisfied scenario, so the exact optimum is
    x=1; the plain approximation needs more.
    """
    return single_row_instance([1.0], [[-1.0], [-1.0]], [1.0, 2.0], 0.6, "step-line")


def subproblem_line_oracle(instance, x_k, alpha_k, x_lo, x_hi, alpha_max=1e6):
    """Independent subproblem minimum for 1-D decisions with single-row scenarios.

    For a fixed decision x, every scenario decouples: its row forces
    s_i + beta >= q_i(alpha_i) with q_i a convex quadratic in alpha_i alone,
    so the best alpha_i minimizes q_i in closed form over [1, alpha_max], and
    the risk row is then satisfiable iff

        min over beta <= 0 of  eps*beta + sum_i p_i (q_i* - beta)+  <= 0,

    whose minimum sits at a breakpoint.  The subproblem is jointly convex, so
    its feasible x-set is an interval; with a positive cost the optimum is
    the left endpoint, found here by bisection between an infeasible x_lo and
    a feasible x_hi.
    """
    tangent = SquareTangent.at(instance, np.atleast_1d(x_k), np.asarray(alpha_k, float))
    p = instance.probs
    eps = instance.epsilon
    w = instance.w_stack[:, 0]
    d = instance.d_stack
    slope = tangent.slope[:, 0]
    g_anchor = tangent.g_anchor[:, 0]
    a_anchor = tangent.anchor_alpha

    def q_min(x):
        g = w * x + d
        # q_i(a) = ((a + g)^2 - slope^2 - 2*slope*(a - a_k) + 2*slope*(g - g_k)) / 4
        # minimized over a in [1, alpha_max] at a* = slope - g (clipped)
        a_star = np.clip(slope - g, 1.0, alpha_max)
        return (
            (a_star + g) ** 2
            - slope**2
            - 2.0 * slope * (a_star - a_anchor)
            + 2.0 * slope * (g - g_anchor)
        ) / 4.0

    def feasible(x):
        q = q_min(x)
        best = np.inf
        for beta in [0.0] + [v for v in q if v < 0]:
            best = min(best, eps * beta + float(p @ np.maximum(q - beta, 0.0)))
        return best <= 1e-11

    assert not feasible(x_lo) and feasible(x_hi)
    for _ in range(80):
        mid = 0.5 * (x_lo + x_hi)
        if feasible(mid):
            x_hi = mid
        else:
            x_lo = mid
    return float(instance.c[0] * x_hi)


def loop_dc_subproblem(instance, x_k, alpha_k, relax_set, tol=None):
    """Reference: the subproblem written one row and one cone at a time."""
    tol = tol or Tolerances()
    n, N = instance.n, instance.N
    relax = np.zeros(N, dtype=bool)
    members = sorted({int(i) for i in relax_set})
    if members:
        relax[np.asarray(members, dtype=int)] = True
    relax_idx = np.flatnonzero(relax)
    col_of = {int(i): n + 1 + N + k for k, i in enumerate(relax_idx)}
    nv = n + 1 + N + relax_idx.size
    tangent = SquareTangent.at(instance, x_k, alpha_k)

    lin_rows, lin_rhs, cones = [], [], []
    risk = np.zeros(nv)
    risk[n] = instance.epsilon
    risk[n + 1 : n + 1 + N] = instance.probs
    lin_rows.append(risk)
    lin_rhs.append(0.0)
    for i, scen in enumerate(instance.scenarios):
        if not relax[i]:
            for j in range(scen.J):
                row = np.zeros(nv)
                row[:n] = scen.W[j]
                row[n] = -1.0
                row[n + 1 + i] = -1.0
                lin_rows.append(row)
                lin_rhs.append(-scen.d[j])
            continue
        ai_col = col_of[i]
        for j in range(scen.J):
            a = tangent.slope[i, j]
            q_coef = np.zeros(nv)
            q_coef[:n] = scen.W[j]
            q_coef[ai_col] = 1.0
            q_const = scen.d[j]
            r_coef = np.zeros(nv)
            r_coef[:n] = -2.0 * a * scen.W[j]
            r_coef[n] = 4.0
            r_coef[n + 1 + i] = 4.0
            r_coef[ai_col] = 2.0 * a
            r_const = (
                a * a
                - 2.0 * a * tangent.anchor_alpha[i]
                + 2.0 * a * float(scen.W[j] @ tangent.anchor_x)
            )
            F = np.vstack([2.0 * q_coef, -r_coef])
            f = np.array([2.0 * q_const, 1.0 - r_const])
            cones.append(SocCone(F=F, f=f, g=r_coef, h=1.0 + r_const))
    dom = instance.domain
    if dom.P is not None:
        for r in range(dom.P.shape[0]):
            row = np.zeros(nv)
            row[:n] = dom.P[r]
            lin_rows.append(row)
            lin_rhs.append(dom.q[r])
    c = np.zeros(nv)
    c[:n] = instance.c
    lb = np.concatenate([dom.lb, [-np.inf], np.zeros(N), np.ones(relax_idx.size)])
    ub = np.concatenate(
        [dom.ub, [0.0], np.full(N, np.inf), np.full(relax_idx.size, tol.alpha_max)]
    )
    return SocpSpec(
        c=c, A=np.vstack(lin_rows), b=np.array(lin_rhs), cones=tuple(cones), lb=lb, ub=ub
    )


def loop_point_violation(spec, z, slack):
    """Reference: the first kind of constraint ("row", "cone", "bound") that
    the point violates by more than ``slack``, checking one cone at a time,
    or None."""
    if spec.A.shape[0] and np.max(spec.A @ z - spec.b) > slack:
        return "row"
    for cone in spec.cones:
        if np.linalg.norm(cone.F @ z + cone.f) > float(cone.g @ z) + cone.h + slack:
            return "cone"
    if np.max(spec.lb - z, initial=0.0) > slack or np.max(z - spec.ub, initial=0.0) > slack:
        return "bound"
    return None


def same_bits(a, b) -> bool:
    """Equal shape and bytes, so signed zeros must match too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_spec(got, want):
    for name in ("c", "A", "b", "lb", "ub"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert len(got.cones) == len(want.cones)
    for k, (g, w) in enumerate(zip(got.cones, want.cones)):
        for name in ("F", "f", "g", "h"):
            assert np.array_equal(getattr(g, name), getattr(w, name)), (k, name)
            assert same_bits(getattr(g, name), getattr(w, name)), (k, name)


class TestSubproblemArrays:
    """The array build of the subproblem against the row-by-row reference."""

    def test_corpus_loop_subproblems(self, monkeypatch):
        # every subproblem the plain and hybrid loops build on corpus
        # instances with J = 1, 2 and 3
        import cvarscale.sca as sca_mod
        from tests.test_acceptance import RUN_TOL, _mixed_instance

        built = []

        def checked(instance, x_k, alpha_k, relax_set, tol=None):
            spec = build_dc_subproblem(instance, x_k, alpha_k, relax_set, tol)
            assert_same_spec(spec, loop_dc_subproblem(instance, x_k, alpha_k, relax_set, tol))
            built.append(len(spec.cones))
            return spec

        monkeypatch.setattr(sca_mod, "build_dc_subproblem", checked)
        shapes = set()
        for seed in range(6):
            inst = _mixed_instance(seed)
            sol = solve_cvar(inst, RUN_TOL)
            if not sol.optimal:
                continue
            shapes.add(inst.J)
            sequential_convex(inst, sol.x, RUN_TOL)
            hybrid_refine(inst, sol.x, RUN_TOL)
        assert shapes == {1, 2, 3}
        assert len(built) > 20

    def test_point_check_matches_loop(self, monkeypatch):
        # every subproblem the plain and hybrid loops solve on corpus
        # instances 0-5, at its solution and at perturbations of it
        import cvarscale.sca as sca_mod
        from tests.test_acceptance import RUN_TOL, _mixed_instance

        solved = []

        def recording(spec, *, warm=None):
            res = solve_socp(spec, warm=warm)
            solved.append((spec, res.z))
            return res

        monkeypatch.setattr(sca_mod, "solve_socp", recording)
        for seed in range(6):
            inst = _mixed_instance(seed)
            sol = solve_cvar(inst, RUN_TOL)
            if sol.optimal:
                sequential_convex(inst, sol.x, RUN_TOL)
                hybrid_refine(inst, sol.x, RUN_TOL)
        rng = np.random.default_rng(4)
        seen = set()
        for spec, z in solved:
            for size in (0.0, 1e-7, 1e-4, 1e-2):
                point = z + size * rng.normal(size=z.size)
                for slack in (1e-9, 1e-7, 1e-6):
                    want = loop_point_violation(spec, point, slack)
                    assert point_feasible_in_subproblem(spec, point, slack) == (want is None)
                    seen.add(want)
        assert len(solved) > 20
        assert seen == {None, "row", "cone", "bound"}

    def test_corpus_anchors_and_relax_sets(self):
        from tests.test_acceptance import _mixed_instance

        rng = np.random.default_rng(11)
        for seed in range(30):
            inst = _mixed_instance(seed)
            x_k = rng.uniform(-1.0, 2.0, size=inst.n)
            N = inst.N
            for alpha_k in (np.ones(N), rng.uniform(1.0, 10.0, size=N)):
                subset = np.flatnonzero(rng.random(N) < 0.5)
                for relax in ([], range(N), subset, list(subset[::-1]) * 2):
                    want = loop_dc_subproblem(inst, x_k, alpha_k, relax)
                    assert_same_spec(build_dc_subproblem(inst, x_k, alpha_k, relax), want)

    def test_empty_and_full_relax_sets(self, two_scenario, three_scenario):
        tol = Tolerances(alpha_max=50.0)
        for inst in (two_scenario, three_scenario):
            x_k, alpha_k = np.full(inst.n, 0.5), np.arange(1.0, inst.N + 1.0)
            for relax in ([], range(inst.N)):
                want = loop_dc_subproblem(inst, x_k, alpha_k, relax, tol)
                assert_same_spec(build_dc_subproblem(inst, x_k, alpha_k, relax, tol), want)


class TestSubproblem:
    def test_empty_relax_set_is_plain_lp(self, two_scenario):
        spec = build_dc_subproblem(two_scenario, [0.0, 4.0], [1.0, 1.0], [])
        assert len(spec.cones) == 0
        res = solve_socp(spec)
        assert res.objective == pytest.approx(solve_cvar(two_scenario).objective, abs=1e-6)

    def test_tangent_exact_at_anchor(self, two_scenario):
        t = SquareTangent.at(two_scenario, [0.3, 0.7], [2.0, 3.0])
        for i in range(2):
            exact = t.slope[i, 0] ** 2
            assert t.value(i, 0, [2.0, 3.0][i], t.g_anchor[i, 0]) == pytest.approx(
                exact, abs=1e-10
            )

    def test_anchor_point_remains_feasible(self, two_scenario):
        # a feasible (x, beta, s, alpha) of the scaled LP stays feasible in the
        # subproblem anchored at it
        alpha = np.array([1.0, 6.0])
        sol = solve_scaled_cvar(two_scenario, ScalingVector(alpha))
        spec = build_dc_subproblem(two_scenario, sol.x, alpha, [0, 1])
        z = np.concatenate([sol.x, [sol.beta], sol.s, alpha])
        assert point_feasible_in_subproblem(spec, z, slack=1e-7)

    def test_two_scenario_anchored_far_out(self, two_scenario):
        spec = build_dc_subproblem(two_scenario, [0.0, 4.0], [1.0, 1.0], [0, 1])
        res = solve_socp(spec)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective <= 2.0 + 1e-7

    def test_matches_grid_oracle(self, step_line, monkeypatch):
        monkeypatch.setattr(ipm, "_FEAS_TOL", 1e-10)
        x_k, alpha_k = np.array([2.0]), np.array([1.0, 1.0])
        spec = build_dc_subproblem(step_line, x_k, alpha_k, [0, 1])
        res = solve_socp(spec)
        assert res.status == SolveStatus.OPTIMAL
        oracle = subproblem_line_oracle(step_line, x_k, alpha_k, x_lo=0.0, x_hi=2.0)
        assert res.objective == pytest.approx(oracle, abs=1e-5)

    def test_feasible_points_satisfy_bilinear_rows(self, two_scenario):
        # the tangent underestimates the square, so subproblem feasibility
        # implies the true scaled rows; check the optimum, the anchor, and
        # mixtures of the two
        alpha_k = np.array([1.0, 2.0])
        sol = solve_scaled_cvar(two_scenario, ScalingVector(alpha_k))
        spec = build_dc_subproblem(two_scenario, sol.x, alpha_k, [0, 1])
        res = solve_socp(spec)
        z_anchor = np.concatenate([sol.x, [sol.beta], sol.s, alpha_k])
        pts = [res.z, z_anchor] + [
            lam * res.z + (1 - lam) * z_anchor for lam in (0.25, 0.5, 0.75)
        ]
        n, N = 2, 2
        for z in pts:
            x, beta, s, alpha = z[:n], z[n], z[n + 1 : n + 1 + N], z[n + 1 + N :]
            worst = g_max_all(two_scenario, x)
            assert np.all(alpha * worst <= s + beta + 1e-7)


class TestSequentialLoop:
    def test_fixed_point_stops_after_one_iteration(self):
        inst = single_row_instance([1.0, 1.0], [[-1, 0], [0, -1]], [-1, -1], 0.4, "slack")
        x0 = solve_cvar(inst).x
        trace = sequential_convex(inst, x0)
        assert trace.termination == Termination.CONVERGED
        assert trace.records[-1].delta == pytest.approx(0.0, abs=1e-8)

    def test_two_scenario_sandwich(self, two_scenario):
        x0 = solve_cvar(two_scenario).x
        trace = sequential_convex(two_scenario, x0)
        assert 1.0 - 1e-7 <= trace.incumbent.objective <= 2.0 + 1e-9

    def test_monotone_and_feasible_on_random_instances(self):
        for inst, sol in small_corpus(8):
            trace = sequential_convex(inst, sol.x)
            assert np.all(np.diff(trace.objectives) <= 1e-9)
            assert chance_feasible(inst, trace.incumbent.x, 1e-6)


class TestHybridLoop:
    def test_no_strict_scenarios_reduces_to_plain(self, two_scenario):
        x0 = solve_cvar(two_scenario).x  # both rows active at (1, 0)
        trace = hybrid_refine(two_scenario, x0)
        assert trace.incumbent.objective == pytest.approx(2.0, abs=1e-7)

    def test_three_scenario_from_interior_point(self, three_scenario):
        trace = hybrid_refine(three_scenario, [0.0, 1.1])
        assert trace.incumbent.objective <= 2.2 + 1e-9

    def test_final_solve_never_worse_than_loop(self):
        # re-solving the scaled LP at the final factors is part of the trace
        # and may only improve on the preceding record
        tol = Tolerances(delta2=0.0)
        for inst, sol in small_corpus(8):
            trace = hybrid_refine(inst, sol.x, tol)
            assert np.all(np.diff(trace.objectives) <= 1e-9)
            final_alpha = trace.records[-1].alpha
            again = solve_scaled_cvar(inst, ScalingVector(final_alpha), tol)
            assert again.objective <= trace.records[-1].objective + 1e-9

    @pytest.mark.slow
    def test_portfolio_not_worse_than_plain(self):
        from cvarscale.bench import GeneratorConfig, generate

        cfg = GeneratorConfig(family="portfolio", n=10, N=100, epsilon=0.2, seed=7)
        inst = generate(cfg)
        sol = solve_cvar(inst)
        assert sol.optimal
        trace = hybrid_refine(inst, sol.x, Tolerances(max_iter=8))
        assert trace.incumbent.objective <= sol.objective + 1e-9


def _instance_2_subproblems(monkeypatch):
    """The (spec, result) pairs of the plain loop on corpus instance 2, with
    the cone solver at 1e-9."""
    import cvarscale.sca as sca_mod
    from tests.test_acceptance import RUN_TOL, _mixed_instance

    solved = []

    def recording(spec, *, warm=None):
        res = solve_socp(spec, warm=warm)
        solved.append((spec, res))
        return res

    monkeypatch.setattr(ipm, "_FEAS_TOL", 1e-9)
    monkeypatch.setattr(sca_mod, "solve_socp", recording)
    inst = _mixed_instance(2)
    sequential_convex(inst, solve_cvar(inst, RUN_TOL).x, RUN_TOL)
    return solved


def test_subproblems_end_optimal(monkeypatch):
    # these subproblems used to stop on the interior-point stall rule just
    # short of a 1e-9 tolerance, when the ridge on the normal
    # equations followed their mean diagonal instead of each entry
    solved = _instance_2_subproblems(monkeypatch)
    assert len(solved) > 5
    assert all(res.status == SolveStatus.OPTIMAL for _, res in solved)


def test_stalled_subproblem_reports_iterations_run(monkeypatch):
    # a subproblem asked for a tolerance no double-precision solve reaches
    # stops on the stall rule; it must report the iterations it ran, not the
    # 200-iteration cap
    specs = [spec for spec, _ in _instance_2_subproblems(monkeypatch)[:3]]
    monkeypatch.setattr(ipm, "_FEAS_TOL", 1e-16)
    stalled = [res for res in map(solve_socp, specs)
               if res.status == SolveStatus.ITERATION_LIMIT]
    assert stalled
    assert all(8 <= r.iterations < 200 for r in stalled)
