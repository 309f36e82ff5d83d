"""Embedded solvers: simplex LP and interior-point SOCP."""

from dataclasses import replace

import numpy as np
import pytest

from cvarscale.conic import (
    ConeStack,
    LinearProgramSpec,
    SocCone,
    SocpSpec,
    SolveStatus,
    solve_lp,
    solve_socp,
)
from cvarscale.conic import simplex

FREE = np.inf


def lp(c, A=None, b=None, lb=None, ub=None):
    n = len(c)
    return LinearProgramSpec(
        c=c,
        A=np.zeros((0, n)) if A is None else A,
        b=[] if b is None else b,
        lb=[-FREE] * n if lb is None else lb,
        ub=[FREE] * n if ub is None else ub,
    )


class TestSimplex:
    def test_single_bound(self):
        res = solve_lp(lp([1.0], lb=[3.0], ub=[FREE]))
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(3.0)

    def test_textbook(self):
        res = solve_lp(lp([-1.0, -1.0], A=[[1, 1]], b=[1], lb=[0, 0], ub=[FREE, FREE]))
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(-1.0)

    def test_infeasible_with_certificate(self):
        res = solve_lp(lp([1.0], A=[[1.0]], b=[-1.0], lb=[0.0], ub=[FREE]))
        assert res.status == SolveStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve_lp(lp([-1.0], lb=[0.0], ub=[FREE]))
        assert res.status == SolveStatus.UNBOUNDED

    def test_free_variables(self):
        # min y s.t. y >= x - 2 and y >= 2 - x, both free: optimum y=0 at x=2
        res = solve_lp(lp([0.0, 1.0], A=[[1, -1], [-1, -1]], b=[2, -2]))
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.z[0] == pytest.approx(2.0)

    def test_flipped_bounds(self):
        # only an upper bound: min -x with x <= 5
        res = solve_lp(lp([-1.0], ub=[5.0], lb=[-FREE]))
        assert res.objective == pytest.approx(-5.0)

    def test_empty_box(self):
        res = solve_lp(lp([1.0], lb=[2.0], ub=[1.0]))
        assert res.status == SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("seed", range(10))
    def test_random_duality_gap(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 10)), int(rng.integers(4, 15))
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(-1, 1, size=n)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.normal(size=n)
        spec = lp(c, A=A, b=b, lb=[-5.0] * n, ub=[5.0] * n)
        res = solve_lp(spec)
        assert res.status == SolveStatus.OPTIMAL
        assert res.duality_gap <= 1e-8 * (1 + abs(res.objective))
        assert res.dual_residual <= 1e-8
        assert res.primal_residual <= 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(77)
        A = rng.normal(size=(12, 6))
        b = A @ rng.uniform(size=6) + 0.5
        c = rng.normal(size=6)
        spec = lp(c, A=A, b=b, lb=[0.0] * 6, ub=[2.0] * 6)
        r1, r2 = solve_lp(spec), solve_lp(spec)
        assert r1.objective == r2.objective
        assert r1.status == r2.status
        assert np.array_equal(r1.z, r2.z)


def appended(spec, A_new, b_new):
    return LinearProgramSpec(c=spec.c, A=np.vstack([spec.A, A_new]),
                             b=np.concatenate([spec.b, b_new]), lb=spec.lb, ub=spec.ub)


def cutting_rows(rng, spec, z_star, count):
    """Rows that cut z_star off but keep the interior point x0 = 0 feasible."""
    rows = rng.normal(size=(count, spec.n))
    rows *= np.sign(rows @ z_star)[:, None]
    return rows, 0.5 * (rows @ z_star)


def standard_form_reference(spec):
    """Per-variable loop build of the standard form: bound rows, then A's rows."""
    cols, bound_rows, c_parts = [], [], []
    shift = np.zeros(spec.n)
    for j in range(spec.n):
        lb, ub = spec.lb[j], spec.ub[j]
        cols.append(len(c_parts))
        if np.isfinite(lb):
            shift[j] = lb
            c_parts.append(spec.c[j])
            if np.isfinite(ub):
                bound_rows.append((cols[-1], ub - lb))
        elif np.isfinite(ub):
            shift[j] = ub
            c_parts.append(-spec.c[j])
        else:
            c_parts += [spec.c[j], -spec.c[j]]
    nb, nw = len(bound_rows), len(c_parts)
    m = nb + spec.A.shape[0]
    A_bar, b_bar = np.zeros((m, nw)), np.empty(m)
    b_bar[nb:] = spec.b - spec.A @ shift
    for j in range(spec.n):
        if np.isfinite(spec.lb[j]):
            A_bar[nb:, cols[j]] += spec.A[:, j]
        elif np.isfinite(spec.ub[j]):
            A_bar[nb:, cols[j]] -= spec.A[:, j]
        else:
            A_bar[nb:, cols[j]] += spec.A[:, j]
            A_bar[nb:, cols[j] + 1] -= spec.A[:, j]
    for r, (col, rhs) in enumerate(bound_rows):
        A_bar[r, col] = 1.0
        b_bar[r] = rhs
    return np.hstack([A_bar, np.eye(m)]), b_bar, np.concatenate([c_parts, np.zeros(m)])


@pytest.mark.parametrize("seed", range(5))
def test_standard_form_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    n, m = 7, 5
    A = rng.normal(size=(m, n))
    A[0, 0] = -0.0
    kinds = rng.integers(0, 4, size=n)  # boxed, lower only, upper only, free
    lb = np.where(kinds <= 1, rng.uniform(-2, 0, size=n), -FREE)
    ub = np.where((kinds == 0) | (kinds == 2), rng.uniform(0, 2, size=n), FREE)
    spec = lp(rng.normal(size=n), A=A, b=rng.normal(size=m), lb=lb, ub=ub)
    sf = simplex._to_standard_form(spec)
    As, bs, cs = standard_form_reference(spec)
    for got, want in ((sf.As, As), (sf.bs, bs), (sf.cs, cs)):
        assert got.tobytes() == want.tobytes()
    w = rng.uniform(size=As.shape[1])
    ref = [spec.lb[j] + w[c] if np.isfinite(spec.lb[j]) else
           spec.ub[j] - w[c] if np.isfinite(spec.ub[j]) else w[c] - w[c + 1]
           for j, c in enumerate(sf.col)]
    assert sf.z_of(w).tobytes() == np.array(ref).tobytes()


def assert_live_tableau(tab, spec, bs_rtol):
    """The live tableau is B^-1 [As | bs] over the equilibrated standard form of
    ``spec``, with the objective row cs - cs_B B^-1 [As | bs]."""
    sf = simplex._to_standard_form(spec)
    As, bs = simplex._equilibrate(sf.As, sf.bs)
    m = As.shape[0]
    assert np.allclose(tab.sf.As, As, rtol=0, atol=1e-15)
    assert np.allclose(tab.sf.bs, bs, rtol=bs_rtol, atol=1e-15)
    inv = np.linalg.inv(As[:, tab.basis])
    fresh = inv @ np.column_stack([As, bs])
    cost = np.append(sf.cs, 0.0) - sf.cs[tab.basis] @ fresh
    live = np.vstack([tab.T[:m], tab.T[m]])
    assert np.allclose(live, np.vstack([fresh, cost]), rtol=0, atol=1e-9)


def budget_lp(t, extra=0):
    """min -x1 - 2 x2 + x3 over a box with two domain rows and the budget row
    x1 + x2 + x3 <= t, which comes first; ``extra`` appends cutting rows."""
    A = [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -2.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    b = [t, 1.0, 1.0, 2.5, 1.5]
    return lp([-1.0, -2.0, 1.0], A=A[:2 + 1 + extra], b=b[:2 + 1 + extra],
              lb=[0.0, 0.0, 0.0], ub=[3.0, 3.0, 3.0])


class TestSimplexResume:
    """A solve resumed from an earlier optimal tableau against a cold solve."""

    def resume(self, spec0, A_new, b_new):
        """(resumed, cold) results on spec0 with rows appended; the resume must
        not fall back to the cold path."""
        first = solve_lp(spec0)
        assert first.status == SolveStatus.OPTIMAL and first._warm is not None
        spec = appended(spec0, A_new, b_new)
        warm, pivots = simplex._warm_solve(spec, first._warm)
        assert warm is not None, "resume fell back to the cold solve"
        assert warm.iterations == pivots
        cold = solve_lp(spec)
        assert warm.status == cold.status
        if cold.status == SolveStatus.OPTIMAL:
            assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
            assert warm.primal_residual <= 1e-9 * (1.0 + abs(cold.objective))
            again = solve_lp(spec, warm=first)
            assert again.iterations == warm.iterations
            assert np.array_equal(again.z, warm.z) and again.objective == warm.objective
        return warm, cold

    @pytest.mark.parametrize("seed", range(8))
    def test_random_cuts_with_bound_rows(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 9)), int(rng.integers(4, 12))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 1.0, size=m)  # the origin is strictly feasible
        spec = lp(rng.normal(size=n), A=A, b=b, lb=[-5.0] * n, ub=[5.0] * n)
        z_star = solve_lp(spec).z
        for count in (1, 4):
            warm, _ = self.resume(spec, *cutting_rows(rng, spec, z_star, count))
            assert warm.status == SolveStatus.OPTIMAL

    @pytest.mark.parametrize("seed", range(4))
    def test_free_and_upper_bounded_variables(self, seed):
        # free columns are split in the standard form, upper-only ones flipped
        rng = np.random.default_rng(100 + seed)
        n = 5
        box = np.vstack([np.eye(n), -np.eye(n)])
        A = np.vstack([box, rng.normal(size=(4, n))])
        b = np.concatenate([np.full(2 * n, 3.0), rng.uniform(0.2, 1.0, size=4)])
        lb = [-FREE, -FREE, -FREE, -FREE, 0.0]
        ub = [FREE, FREE, 2.0, 1.0, FREE]
        spec = lp(rng.normal(size=n), A=A, b=b, lb=lb, ub=ub)
        z_star = solve_lp(spec).z
        self.resume(spec, *cutting_rows(rng, spec, z_star, 3))

    def test_parent_needed_phase_one(self):
        # x + y >= 1 and x + 2y >= 1.5 put the origin outside; cut the optimum
        spec = lp([1.0, 1.0], A=[[-1.0, -1.0], [-1.0, -2.0]], b=[-1.0, -1.5],
                  lb=[0.0, 0.0], ub=[FREE, FREE])
        first = solve_lp(spec)
        assert first.status == SolveStatus.OPTIMAL and first._warm is not None
        warm, cold = self.resume(spec, [[0.0, -1.0], [-1.0, 0.0]], [-0.8, -0.6])
        assert cold.objective == pytest.approx(1.4)

    def test_degenerate_ties(self):
        # the optimum (1, 0) of min -x - y/2 sits on four rows; the cuts pass
        # through it or tie with each other
        A = [[1.0, 1.0], [1.0, 0.0], [1.0, -1.0], [2.0, 1.0]]
        spec = lp([-1.0, -0.5], A=A, b=[1.0, 1.0, 1.0, 2.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
        warm, cold = self.resume(spec, [[1.0, 1.0], [1.0, 0.0], [2.0, 2.0], [1.0, 0.5]],
                                 [0.8, 0.8, 1.6, 0.8])
        assert cold.status == SolveStatus.OPTIMAL
        assert cold.objective == pytest.approx(-0.8)

    @pytest.mark.parametrize("rows, rhs", [
        ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [-1.0, -1.0]),  # x0 <= -1 and x0 >= 1
        ([[1.0, 1.0, 1.0]], [-20.0]),  # beyond the bound rows of the box
    ])
    def test_infeasible_rows_give_a_verified_ray(self, monkeypatch, rows, rhs):
        spec = lp([1.0, -1.0, 0.5], A=[[1.0, 1.0, 0.0]], b=[2.0],
                  lb=[-5.0, -5.0, -5.0], ub=[5.0, 5.0, 5.0])
        warm, cold = self.resume(spec, rows, rhs)
        assert warm.status == cold.status == SolveStatus.INFEASIBLE
        # the status rests on the Farkas check: without it the cold path decides
        first = solve_lp(spec)
        monkeypatch.setattr(simplex, "_is_farkas_ray", lambda *args: False)
        assert simplex._warm_solve(appended(spec, rows, rhs), first._warm)[0] is None

    def test_foreign_carrier_falls_back(self):
        spec = lp([-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]], b=[4.0, 6.0],
                  lb=[0.0, 0.0], ub=[FREE, FREE])
        longer = appended(spec, [[1.0, 1.0]], [2.5])
        res = solve_lp(longer)
        assert simplex._warm_solve(spec, res._warm)[0] is None  # more rows than the LP
        # another objective, other bounds, or an old row's coefficients edited
        other = [LinearProgramSpec(c=[-1.0, -2.0], A=spec.A, b=spec.b, lb=spec.lb, ub=spec.ub),
                 LinearProgramSpec(c=spec.c, A=spec.A, b=spec.b, lb=spec.lb, ub=[1.0, FREE]),
                 LinearProgramSpec(c=spec.c, A=[[1.0, 2.0], [3.0, 2.0]], b=spec.b, lb=spec.lb,
                                   ub=spec.ub)]
        for changed in other:
            carrier = solve_lp(changed)._warm
            assert simplex._warm_solve(longer, carrier)[0] is None
            assert solve_lp(longer, warm=solve_lp(changed)).objective == \
                pytest.approx(res.objective)
        assert solve_lp(spec, warm=res).objective == pytest.approx(solve_lp(spec).objective)
        # an old row's right-hand side edited: the carrier resumes
        moved = LinearProgramSpec(c=spec.c, A=spec.A, b=[4.0, 5.0], lb=spec.lb, ub=spec.ub)
        resumed = simplex._warm_solve(longer, solve_lp(moved)._warm)[0]
        assert resumed is not None and resumed.objective == pytest.approx(res.objective)

    def test_carrier_is_not_consumed(self):
        # a result resumes any number of times, and each resume gives the same answer
        spec = lp([-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]], b=[4.0, 6.0],
                  lb=[0.0, 0.0], ub=[FREE, FREE])
        first = solve_lp(spec)
        T = first._warm.T.copy()
        a = solve_lp(appended(spec, [[1.0, 1.0]], [2.5]), warm=first)
        solve_lp(appended(spec, [[1.0, 0.0]], [0.5]), warm=first)
        b = solve_lp(appended(spec, [[1.0, 1.0]], [2.5]), warm=first)
        assert np.array_equal(first._warm.T, T)
        assert np.array_equal(a.z, b.z) and a.iterations == b.iterations

    @pytest.mark.parametrize("seed", range(4))
    def test_appended_tableau_matches_a_fresh_one(self, seed):
        # after k appended rows, and again after the dual pivots, the live
        # tableau is B^-1 [As | bs] over the equilibrated standard form of the
        # whole LP, with the objective row cs - cs_B B^-1 [As | bs]
        rng = np.random.default_rng(200 + seed)
        n = 6
        A = np.vstack([np.eye(n), rng.normal(size=(5, n))])
        b = np.concatenate([np.full(n, 4.0), rng.uniform(0.2, 1.0, size=5)])
        spec0 = lp(rng.normal(size=n), A=A, b=b, lb=[-FREE, -FREE, 0.0, 0.0, -3.0, -3.0],
                   ub=[FREE, 2.0, FREE, 5.0, 3.0, FREE])
        first = solve_lp(spec0)
        spec = appended(spec0, *cutting_rows(rng, spec0, first.z, 1 + seed))
        grown = simplex._append_rows(first._warm, spec)
        res = solve_lp(spec, warm=first)
        assert res.iterations > 0 and res._warm is not None
        for tab in (grown, res._warm):
            assert_live_tableau(tab, spec, bs_rtol=1e-15)

    @pytest.mark.parametrize("where", ["rhs", "costs"])
    def test_drift_fails_certification_and_falls_back(self, monkeypatch, where):
        # drift injected into the carried tableau: the certificate, computed
        # from the equilibrated system, rejects the warm answer
        spec0 = lp([-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]], b=[4.0, 6.0],
                   lb=[0.0, 0.0], ub=[FREE, FREE])
        spec = appended(spec0, [[1.0, 1.0]], [10.0])  # slack at the optimum: no pivot
        first = solve_lp(spec0)
        tab = first._warm
        T = tab.T.copy()
        m = tab.basis.size
        if where == "rhs":
            T[:m, -1] *= 1.01
        else:
            T[m, :-1] = np.where(T[m, :-1] > 0, T[m, :-1] * 1.01, 0.0)
        drifted = replace(first, _warm=replace(tab, T=T))
        cold_calls = []
        solve_once = simplex._solve_once
        monkeypatch.setattr(simplex, "_solve_once",
                            lambda *a, **k: cold_calls.append(1) or solve_once(*a, **k))
        warm, pivots = simplex._warm_solve(spec, drifted._warm)
        assert warm is None
        res = solve_lp(spec, warm=drifted)
        cold = solve_lp(spec)
        assert len(cold_calls) == 2
        assert pivots == 0 and np.array_equal(res.z, cold.z)
        assert res.iterations == cold.iterations and res.status == SolveStatus.OPTIMAL
        assert simplex._warm_solve(spec, first._warm)[0] is not None  # undrifted

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [0, 2])
    def test_changed_right_hand_sides(self, seed, k):
        # old rows keep their coefficients but move their right-hand sides,
        # with k rows appended or none: the resume matches a cold solve of the
        # new LP, and its tableau is B^-1 [As | bs] recomputed from that LP
        rng = np.random.default_rng(300 + seed)
        n, m = 5, 7
        A = np.vstack([np.eye(n), rng.normal(size=(m, n))])
        b = np.concatenate([np.full(n, 4.0), rng.uniform(0.2, 1.0, size=m)])
        spec0 = lp(rng.normal(size=n), A=A, b=b, lb=[-FREE, -FREE, 0.0, 0.0, -3.0],
                   ub=[FREE, 2.0, FREE, 5.0, 3.0])
        first = solve_lp(spec0)
        moved = b + np.where(rng.uniform(size=b.size) < 0.4, rng.normal(scale=0.5, size=b.size),
                             0.0)
        spec = LinearProgramSpec(c=spec0.c, A=A, b=moved, lb=spec0.lb, ub=spec0.ub)
        if k:
            spec = appended(spec, *cutting_rows(rng, spec0, first.z, k))
        assert_live_tableau(simplex._append_rows(first._warm, spec), spec, bs_rtol=1e-12)
        warm, pivots = simplex._warm_solve(spec, first._warm)
        cold = solve_lp(spec)
        assert warm is not None, "resume fell back to the cold solve"
        assert warm.status == cold.status
        if cold.status == SolveStatus.OPTIMAL:
            assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
            assert np.allclose(warm.z, cold.z, rtol=0, atol=1e-9)
            assert_live_tableau(warm._warm, spec, bs_rtol=1e-12)

    @pytest.mark.parametrize("t", [2.0, 0.7, 0.05, 0.0])
    def test_budget_moves_like_a_bisection(self, t):
        # one carrier resumed at budgets on both sides of its own, the budget row
        # first as in the bisection's master
        first = solve_lp(budget_lp(1.2))
        for extra in (0, 2):
            spec = budget_lp(t, extra)
            warm, _ = simplex._warm_solve(spec, first._warm)
            cold = solve_lp(spec)
            assert warm is not None and warm.status == cold.status == SolveStatus.OPTIMAL
            assert abs(warm.objective - cold.objective) <= 1e-9
            assert np.allclose(warm.z, cold.z, rtol=0, atol=1e-9)

    def test_budget_below_the_domain_minimum_gives_a_verified_ray(self, monkeypatch):
        first = solve_lp(budget_lp(1.2))
        rays = []
        is_ray = simplex._is_farkas_ray
        monkeypatch.setattr(simplex, "_is_farkas_ray",
                            lambda *a: rays.append(is_ray(*a)) or rays[-1])
        warm, _ = simplex._warm_solve(budget_lp(-0.5), first._warm)
        assert warm is not None and warm.status == SolveStatus.INFEASIBLE
        assert rays == [True]
        assert solve_lp(budget_lp(-0.5)).status == SolveStatus.INFEASIBLE
        # the status rests on the Farkas check: without it the cold path decides
        monkeypatch.setattr(simplex, "_is_farkas_ray", lambda *args: False)
        assert simplex._warm_solve(budget_lp(-0.5), first._warm)[0] is None

    @pytest.mark.parametrize("where", ["slacks", "costs"])
    def test_right_hand_side_drift_falls_back(self, monkeypatch, where):
        # drift in the slack columns (which carry B^-1 b to the new budget) or
        # in the reduced costs fails the certificate; solve_lp answers cold
        spec = budget_lp(0.7)
        first = solve_lp(budget_lp(1.2))
        tab = first._warm
        T = tab.T.copy()
        m, ncols = tab.basis.size, tab.sf.As.shape[1]
        if where == "slacks":
            T[:m, ncols - m:ncols] *= 1.01
        else:
            T[m, :-1] = np.where(T[m, :-1] > 0, T[m, :-1] * 1.01, 0.0)
        drifted = replace(first, _warm=replace(tab, T=T))
        assert simplex._warm_solve(spec, drifted._warm)[0] is None
        cold_calls = []
        solve_once = simplex._solve_once
        monkeypatch.setattr(simplex, "_solve_once",
                            lambda *a, **k: cold_calls.append(1) or solve_once(*a, **k))
        res = solve_lp(spec, warm=drifted)
        cold = solve_lp(spec)
        assert len(cold_calls) == 2
        assert np.array_equal(res.z, cold.z) and res.status == SolveStatus.OPTIMAL
        assert simplex._warm_solve(spec, first._warm)[0] is not None  # undrifted

    def test_tableau_only_on_optimal_results(self):
        assert solve_lp(lp([1.0], A=[[1.0]], b=[-1.0], lb=[0.0], ub=[FREE]))._warm is None
        assert solve_lp(lp([-1.0], lb=[0.0], ub=[FREE]))._warm is None


class TestInteriorPoint:
    def test_norm_minimum(self):
        # min t s.t. ||(x-1, x+1)|| <= t: minimum sqrt(2) at x = 0
        cone = SocCone(F=[[1, 0], [1, 0]], f=[-1, 1], g=[0, 1], h=0.0)
        spec = SocpSpec(c=[0, 1], A=np.zeros((0, 2)), b=[], cones=(cone,),
                        lb=[-FREE] * 2, ub=[FREE] * 2)
        res = solve_socp(spec)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(np.sqrt(2), abs=1e-7)
        assert res.z[0] == pytest.approx(0.0, abs=1e-6)

    def test_one_dimensional_band(self):
        # |2x| <= x + 3 means x in [-1, 3]; minimizing x gives -1
        cone = SocCone(F=[[2.0]], f=[0.0], g=[1.0], h=3.0)
        spec = SocpSpec(c=[1.0], A=np.zeros((0, 1)), b=[], cones=(cone,),
                        lb=[-FREE], ub=[FREE])
        res = solve_socp(spec)
        assert res.status == SolveStatus.OPTIMAL
        assert res.z[0] == pytest.approx(-1.0, abs=1e-7)

    def test_pure_linear_cone_program_matches_simplex(self):
        rng = np.random.default_rng(3)
        n, m = 6, 10
        A = rng.normal(size=(m, n))
        b = A @ rng.uniform(size=n) + 0.5
        c = rng.normal(size=n)
        socp = SocpSpec(c=c, A=A, b=b, cones=(), lb=[-2.0] * n, ub=[2.0] * n)
        linear = lp(c, A=A, b=b, lb=[-2.0] * n, ub=[2.0] * n)
        ripm, rlp = solve_socp(socp), solve_lp(linear)
        assert ripm.status == SolveStatus.OPTIMAL
        assert ripm.objective == pytest.approx(rlp.objective, abs=1e-6)

    def test_infeasible(self):
        cone = SocCone(F=[[1.0]], f=[0.0], g=[0.0], h=5.0)
        spec = SocpSpec(c=[1.0], A=[[-1.0], [1.0]], b=[-1.0, 0.0], cones=(cone,),
                        lb=[-FREE], ub=[FREE])
        assert solve_socp(spec).status == SolveStatus.INFEASIBLE

    def test_unbounded(self):
        cone = SocCone(F=[[1, -1]], f=[0], g=[0, 1], h=0.0)
        spec = SocpSpec(c=[-1, 0], A=np.zeros((0, 2)), b=[], cones=(cone,),
                        lb=[-FREE] * 2, ub=[FREE] * 2)
        assert solve_socp(spec).status == SolveStatus.UNBOUNDED

    @pytest.mark.parametrize("seed", range(10))
    def test_random_kkt_residuals(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(4, 15))
        x0 = rng.normal(size=n)
        cones = []
        for _ in range(int(rng.integers(2, 6))):
            F = rng.normal(size=(int(rng.integers(1, 4)), n))
            f = rng.normal(size=F.shape[0])
            g = rng.normal(size=n)
            h = np.linalg.norm(F @ x0 + f) - g @ x0 + rng.uniform(0.5, 2.0)
            cones.append(SocCone(F=F, f=f, g=g, h=h))
        spec = SocpSpec(c=rng.normal(size=n), A=np.zeros((0, n)), b=[],
                        cones=tuple(cones), lb=[-5.0] * n, ub=[5.0] * n)
        res = solve_socp(spec)
        assert res.status == SolveStatus.OPTIMAL
        assert res.primal_residual <= 1e-8
        assert res.dual_residual <= 1e-8
        assert res.duality_gap <= 1e-8 * (1 + abs(res.objective)) + 1e-8

    def test_deterministic(self):
        cone = SocCone(F=[[1, 0], [0, 1]], f=[0, 0], g=[0, 0], h=2.0)
        spec = SocpSpec(c=[-1.0, -0.5], A=np.zeros((0, 2)), b=[], cones=(cone,),
                        lb=[-FREE] * 2, ub=[FREE] * 2)
        r1, r2 = solve_socp(spec), solve_socp(spec)
        assert r1.objective == r2.objective
        assert np.array_equal(r1.z, r2.z)

    def test_cone_order_does_not_matter(self):
        # cones of dimensions 3, 4, 3, 2, 4 given interleaved and pre-sorted
        # by dimension: the solver stores both in the same order
        rng = np.random.default_rng(5)
        n = 6
        x0 = rng.normal(size=n)
        cones = []
        for rows in (2, 3, 2, 1, 3):
            F, f, g = rng.normal(size=(rows, n)), rng.normal(size=rows), rng.normal(size=n)
            h = np.linalg.norm(F @ x0 + f) - g @ x0 + rng.uniform(0.5, 2.0)
            cones.append(SocCone(F=F, f=f, g=g, h=h))
        c = rng.normal(size=n)
        by_dim = sorted(cones, key=lambda cone: cone.F.shape[0])
        interleaved, ordered = (
            solve_socp(SocpSpec(c=c, A=np.zeros((0, n)), b=[], cones=tuple(cs),
                                lb=[-5.0] * n, ub=[5.0] * n))
            for cs in (cones, by_dim)
        )
        assert ordered.status == SolveStatus.OPTIMAL
        assert interleaved.status == ordered.status
        assert np.array_equal(interleaved.z, ordered.z)
        assert interleaved.objective == ordered.objective
        assert interleaved.iterations == ordered.iterations

    def test_cone_stack_matches_cone_tuple(self):
        rng = np.random.default_rng(21)
        n, x0 = 5, rng.normal(size=5)
        F, f, g = rng.normal(size=(4, 2, n)), rng.normal(size=(4, 2)), rng.normal(size=(4, n))
        h = np.linalg.norm(F @ x0 + f, axis=1) - g @ x0 + 1.0
        stack = ConeStack(F=F, f=f, g=g, h=h)
        assert len(stack) == 4 and np.array_equal(stack[2].F, F[2]) and stack[3].h == h[3]
        c = rng.normal(size=n)
        got, want = (
            solve_socp(SocpSpec(c=c, A=np.zeros((0, n)), b=[], cones=cones,
                                lb=[-5.0] * n, ub=[5.0] * n))
            for cones in (stack, tuple(stack))
        )
        assert want.status == SolveStatus.OPTIMAL
        assert np.array_equal(got.z, want.z) and got.iterations == want.iterations

    def test_stack_and_partition_shapes_checked(self):
        from cvarscale.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            ConeStack(F=np.zeros((2, 1, 3)), f=np.zeros((2, 2)), g=np.zeros((2, 3)), h=[0, 0])
        stack = ConeStack(F=np.zeros((1, 1, 3)), f=[[0.0]], g=np.zeros((1, 3)), h=[1.0])
        with pytest.raises(DimensionMismatch):
            SocpSpec(c=[1.0, 0.0], A=np.zeros((0, 2)), b=[], cones=stack, lb=[0, 0], ub=[1, 1])
        with pytest.raises(DimensionMismatch):
            SocpSpec(c=[1.0, 0.0, 0.0], A=np.zeros((0, 3)), b=[], cones=stack,
                     lb=[0, 0, 0], ub=[1, 1, 1], partition=[-1, 0])


def _split(G, lay, part):
    """The block rows of a dense G whose rows follow ``lay``, with each
    cone's rows on the block of the cone, as the solver's assembly writes
    them (without its equilibration)."""
    from cvarscale.conic.ipm import _BlockRows, _Columns

    cols = _Columns(part)
    own = cols.owners(G != 0)
    for d in lay.groups:
        cone = lay.view(own, d)
        cone[:] = cone.max(axis=1)[:, None]
    return _BlockRows.build(cols.gather(G, own), cols.local(G[own == -2]), own, cols, lay)


def _cone_blocks(lay):
    """The stacked-vector slice of every cone block, one block at a time."""
    for d, group in lay.groups.items():
        for start in range(group.start, group.stop, d):
            yield slice(start, start + d)


def _reference_scaling(lay, s, z):
    """Per-block NT scaling (wbar, eta), written out block by block."""
    blocks = []
    for rows in _cone_blocks(lay):
        sb, zb = s[rows], z[rows]
        rs = sb[0] ** 2 - sb[1:] @ sb[1:]
        rz = zb[0] ** 2 - zb[1:] @ zb[1:]
        sbar, zbar = sb / np.sqrt(rs), zb / np.sqrt(rz)
        gamma = np.sqrt((1.0 + sbar @ zbar) / 2.0)
        wb = np.concatenate([[sbar[0] + zbar[0]], sbar[1:] - zbar[1:]]) / (2.0 * gamma)
        blocks.append((rows, wb, (rs / rz) ** 0.25))
    return np.sqrt(s[: lay.l] / z[: lay.l]), blocks


def _reference_apply(lay, scaling, u, inverse):
    """eta^{+-1} H(+-wbar) u with H(w) = [[w0, w1'], [w1, I + w1 w1'/(1 + w0)]]."""
    w_lin, blocks = scaling
    out = np.empty_like(u)
    out[: lay.l] = u[: lay.l] / w_lin if inverse else u[: lay.l] * w_lin
    for rows, wb, eta in blocks:
        w0, w1 = wb[0], -wb[1:] if inverse else wb[1:]
        U = u[rows]
        inner = w1 @ U[1:]
        res = np.concatenate([[w0 * U[0] + inner], U[1:] + (U[0] + inner / (1.0 + w0)) * w1])
        out[rows] = res / eta if inverse else res * eta
    return out


def _reference_max_step(lay, u, du):
    """Largest t with u + t du in K, by the quadratic on each block."""
    t = np.inf
    neg = du[: lay.l] < 0
    if neg.any():
        t = np.min(-u[: lay.l][neg] / du[: lay.l][neg])
    for rows in _cone_blocks(lay):
        ub, db = u[rows], du[rows]
        a = db[0] ** 2 - db[1:] @ db[1:]
        b = 2.0 * (ub[0] * db[0] - ub[1:] @ db[1:])
        c = max(ub[0] ** 2 - ub[1:] @ ub[1:], 0.0)
        if abs(a) > 1e-14:
            disc = b * b - 4.0 * a * c
            if disc >= 0.0:
                q = -(b + np.copysign(np.sqrt(disc), b)) / 2.0
                for r in (q / a, c / q if abs(q) > 1e-300 else np.inf):
                    if r > 1e-14:
                        t = min(t, r)
        elif b < -1e-14 and -c / b > 1e-14:
            t = min(t, -c / b)
        if db[0] < -1e-14:
            t = min(t, -ub[0] / db[0])
    return t


class TestInteriorPointKernels:
    """The batched kernels inside the cone solver against per-block references."""

    @staticmethod
    def _layout_and_interior(rng, l, dims):
        from cvarscale.conic.ipm import _ConeLayout

        lay = _ConeLayout.build(l, dims)

        def interior():
            u = rng.uniform(0.5, 2.0, size=lay.m)
            for rows in _cone_blocks(lay):
                u[rows.start] = 1.0 + np.linalg.norm(u[rows][1:])
            return u

        return lay, interior

    def test_layout_groups_are_slices(self):
        from cvarscale.conic.ipm import _ConeLayout

        lay = _ConeLayout.build(4, [2, 3, 3, 4, 4])
        assert lay.groups == {2: slice(4, 6), 3: slice(6, 12), 4: slice(12, 20)}
        assert lay.m == 20 and lay.degree == 9
        assert np.array_equal(np.flatnonzero(lay.identity()),
                              [0, 1, 2, 3, 4, 6, 9, 12, 16])

    @staticmethod
    def _partitioned_rows(rng):
        """Rows over 8 columns: 3 global, block 0 = {0, 5}, block 1 = {3},
        block 2 = {2, 6}; six orthant rows (one coupling blocks 0 and 2, a
        global-only row, single-column bounds) and cones of dimensions 3, 3
        and 4 (the last on global columns only)."""
        from cvarscale.conic.ipm import _ConeLayout

        part = np.array([0, -1, 2, 1, -1, 0, 2, -1])
        lay = _ConeLayout.build(6, [3, 3, 4])
        G = np.zeros((lay.m, 8))
        glob = [1, 4, 7]
        G[0, glob + [0, 5, 6]] = rng.normal(size=6)  # couples blocks 0 and 2
        G[1, glob] = rng.normal(size=3)
        G[2, [1, 3]] = rng.normal(size=2)
        G[3, 5] = -1.0
        G[4, 4] = 1.0
        G[5, [2, 6]] = rng.normal(size=2)
        G[6:9][:, glob + [0, 5]] = rng.normal(size=(3, 5))
        G[6, [0, 5]] = 0.0  # a cone row with no local entry takes the cone's block
        G[9:12][:, glob + [2, 6]] = rng.normal(size=(3, 5))
        G[12:16][:, glob] = rng.normal(size=(4, 3))
        return G, lay, part

    def test_block_rows_products_match_dense(self):
        from cvarscale.conic.ipm import _NTScaling

        rng = np.random.default_rng(7)
        G, lay, part = self._partitioned_rows(rng)
        rows = _split(G, lay, part)
        assert (rows.ng, rows.nb, rows.L) == (3, 3, 2)
        assert np.array_equal(rows.cpl, [0])
        u = rng.normal(size=(2, rows.cols.size))  # padding entries read as zero
        w = rng.normal(size=(2, lay.m))
        z = np.array([rows.to_spec(v) for v in u])
        assert np.array_equal(rows.to_spec(rows.to_internal(z[0])), z[0])
        for k in range(2):
            assert np.allclose(rows.matvec(u[k]), G @ z[k], rtol=0, atol=1e-13)
            assert np.allclose(rows.rmatvec(w[k]), rows.to_internal(G.T @ w[k]),
                               rtol=0, atol=1e-13)
        assert np.allclose(rows.matvec(u), z @ G.T, rtol=0, atol=1e-13)
        assert np.allclose(rows.rmatvec(w), [rows.to_internal(G.T @ v) for v in w],
                           rtol=0, atol=1e-13)
        s, zc = (self._layout_and_interior(rng, 6, [3, 3, 4])[1]() for _ in range(2))
        W = _NTScaling(lay, s, zc)
        assert np.allclose(rows.scaled(W).matvec(u[0]), W.scale_rows(G) @ z[0],
                           rtol=0, atol=1e-12)
        dense = _split(G, lay, np.full(8, -1))
        assert dense.nb == 0 and np.array_equal(dense.matvec(z[0]), G @ z[0])

    def test_block_factor_matches_dense_solve(self):
        from cvarscale.conic.ipm import _REG, _BlockFactor

        rng = np.random.default_rng(8)
        G, lay, part = self._partitioned_rows(rng)
        M = G.T @ G
        M[np.diag_indices(8)] += _REG * (1.0 + np.diag(M))
        b = rng.normal(size=(2, 8))
        want = np.linalg.solve(M, b.T).T
        for p in (part, np.full(8, -1)):
            rows = _split(G, lay, p)
            got = _BlockFactor(rows).solve(np.array([rows.to_internal(v) for v in b]))
            got = np.array([rows.to_spec(v) for v in got])
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_cone_across_blocks_rejected(self, monkeypatch):
        from cvarscale.conic import ipm

        monkeypatch.setattr(ipm, "_MIN_BLOCKS", 1)
        # the cone's F touches column 1 (block 0) and column 2 (block 1)
        stack = ConeStack(F=[[[0.0, 1.0, 1.0]]], f=[[0.0]], g=[[1.0, 0.0, 0.0]], h=[1.0])
        spec = SocpSpec(c=[1.0, 0.0, 0.0], A=np.zeros((0, 3)), b=[], cones=stack,
                        lb=[-1.0] * 3, ub=[1.0] * 3, partition=[-1, 0, 1])
        with pytest.raises(ValueError, match="more than one local column block"):
            ipm._assemble(spec)
        ipm._assemble(SocpSpec(c=spec.c, A=spec.A, b=spec.b, cones=stack, lb=spec.lb,
                               ub=spec.ub, partition=[-1, 0, 0]))

    @pytest.mark.parametrize("dims", [[3] * 6, [2, 3, 3, 4, 4]])
    def test_square_matches_double_apply(self, dims):
        from cvarscale.conic.ipm import _NTScaling

        rng = np.random.default_rng(12)
        lay, interior = self._layout_and_interior(rng, 4, dims)
        W = _NTScaling(lay, interior(), interior())
        u = rng.normal(size=(3, lay.m))
        twice = np.array([W.apply(W.apply(v)) for v in u])
        got = W.apply_sq(u)
        assert np.max(np.abs(got - twice)) <= 1e-13 * np.abs(twice).max()
        assert np.array_equal(got[1], W.apply_sq(u[1]))

    @pytest.mark.parametrize("dims", [[3] * 6, [2, 3, 3, 4, 4]])
    def test_scaling_matches_reference(self, dims):
        from cvarscale.conic.ipm import _NTScaling

        rng = np.random.default_rng(11)
        lay, interior = self._layout_and_interior(rng, 4, dims)
        s, z = interior(), interior()
        W = _NTScaling(lay, s, z)
        ref = _reference_scaling(lay, s, z)
        assert np.allclose(W.apply(z), W.apply_inv(s), rtol=1e-12, atol=1e-12)
        u = rng.normal(size=lay.m)
        for inverse, got in ((False, W.apply(u)), (True, W.apply_inv(u))):
            assert np.allclose(got, _reference_apply(lay, ref, u, inverse), rtol=1e-13, atol=1e-13)
        G = rng.normal(size=(lay.m, 3))
        cols = np.column_stack([W.apply_inv(G[:, k]) for k in range(3)])
        assert np.allclose(W.scale_rows(G), cols, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dims", [[3] * 6, [2, 3, 3, 4, 4]])
    def test_step_limit_matches_reference(self, dims):
        from cvarscale.conic.ipm import _min_cone_margin, _StepLimit

        rng = np.random.default_rng(13)
        lay, interior = self._layout_and_interior(rng, 4, dims)
        for _ in range(20):
            s, z = interior(), interior()
            ds, dz = 3.0 * rng.normal(size=lay.m), 3.0 * rng.normal(size=lay.m)
            for u, du, t in zip((s, z), (ds, dz), _StepLimit(lay, s, z)(ds, dz)):
                assert t == pytest.approx(_reference_max_step(lay, u, du), rel=1e-12)
                assert t > 0
                if np.isfinite(t):
                    assert _min_cone_margin(lay, u + 0.999 * t * du) >= 0.0
                    assert _min_cone_margin(lay, u + 1.001 * t * du) < 0.0
