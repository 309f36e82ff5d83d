"""Warm starts of the cone solver from an earlier solve of the same layout.

The subproblems are those the plain and hybrid SCA loops solve on a few
corpus instances, recorded with the warm start each loop passes.  Without
``warm`` the solver must give the bytes of the loop it ran before warm starts
existed, kept below as ``_parent_solve_socp``.
"""

from dataclasses import replace

import numpy as np
import pytest

import cvarscale.sca as sca_mod
from cvarscale.conic import SocpSpec, SolveResult, SolveStatus, ipm, solve_socp
from cvarscale.cvar import solve_cvar
from cvarscale.sca import build_dc_subproblem, hybrid_refine, sequential_convex
from tests.test_acceptance import RUN_TOL, _mixed_instance


@pytest.fixture(scope="module")
def solves():
    """(spec, warm, result) of every subproblem of both loops on corpus 0-7."""
    out = []

    def recording(spec, *, warm=None):
        res = solve_socp(spec, warm=warm)
        out.append((spec, warm, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sca_mod, "solve_socp", recording)
        for seed in range(8):
            inst = _mixed_instance(seed)
            sol = solve_cvar(inst, RUN_TOL)
            if sol.optimal:
                sequential_convex(inst, sol.x, RUN_TOL)
                hybrid_refine(inst, sol.x, RUN_TOL)
    return out


@pytest.fixture(scope="module")
def warm_solves(solves):
    return [(spec, warm, res) for spec, warm, res in solves if warm is not None]


def same_result(a: SolveResult, b: SolveResult) -> bool:
    """Status, point, objective, residuals and iterations, bit for bit."""
    floats = ("objective", "primal_residual", "dual_residual", "duality_gap")
    return (a.status == b.status and a.iterations == b.iterations
            and (a.z is None) == (b.z is None)
            and (a.z is None or a.z.tobytes() == b.z.tobytes())
            and all(np.float64(getattr(a, f)).tobytes() == np.float64(getattr(b, f)).tobytes()
                    for f in floats))


def test_loops_warm_start_from_the_second_subproblem(solves, warm_solves):
    # every loop's first subproblem is cold; a later one carries the anchor
    # point and the previous result, which ended OPTIMAL on these instances
    assert solves[0][1] is None
    assert len(warm_solves) > 40
    for spec, (x0, prev), _ in warm_solves:
        assert x0.shape == (spec.n,) and prev.status == SolveStatus.OPTIMAL
        assert isinstance(prev._warm, ipm._Dual)


def test_warm_matches_cold(warm_solves):
    warm_iters = cold_iters = 0
    for spec, warm, res in warm_solves:
        cold = solve_socp(spec)
        assert res.status == cold.status == SolveStatus.OPTIMAL
        assert abs(res.objective - cold.objective) <= 1e-8 * (1.0 + abs(cold.objective))
        warm_iters += res.iterations
        cold_iters += cold.iterations
    assert warm_iters <= 0.8 * cold_iters


def test_same_warm_inputs_same_bytes(warm_solves):
    for spec, warm, res in warm_solves[::5]:
        assert same_result(solve_socp(spec, warm=warm), res)


def test_warm_none_matches_parent_loop(solves):
    for spec, _, _ in solves[::3]:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = _parent_solve_socp(spec)
        assert same_result(solve_socp(spec), want)
        assert same_result(solve_socp(spec, warm=None), want)


def test_mismatched_layout_falls_back(warm_solves):
    spec, (x0, prev), _ = warm_solves[0]
    cold = solve_socp(spec)
    # the carrier of a subproblem relaxing one scenario fewer: fewer columns
    # and cones
    inst = _mixed_instance(0)
    sol = solve_cvar(inst, RUN_TOL)
    other = solve_socp(build_dc_subproblem(inst, sol.x, np.ones(inst.N), range(1, inst.N)))
    assert other.status == SolveStatus.OPTIMAL
    # the same rows under another partition, and the same spec without one
    repart = replace(spec, partition=np.where(spec.partition < 0, -1, 0))
    dense = SocpSpec(c=spec.c, A=spec.A, b=spec.b, cones=spec.cones, lb=spec.lb, ub=spec.ub)
    for carrier in (other, solve_socp(repart), solve_socp(dense)):
        assert carrier.status == SolveStatus.OPTIMAL
        assert same_result(solve_socp(spec, warm=(x0, carrier)), cold)
    # a point of the wrong length, and a carrier that is not the cone solver's
    assert same_result(solve_socp(spec, warm=(x0[:-1], prev)), cold)
    assert same_result(solve_socp(spec, warm=(x0, replace(prev, _warm=object()))), cold)


def test_non_optimal_carrier_falls_back(warm_solves):
    spec, (x0, prev), _ = warm_solves[0]
    cold = solve_socp(spec)
    for status in (SolveStatus.ITERATION_LIMIT, SolveStatus.NUMERICAL_ERROR):
        assert same_result(solve_socp(spec, warm=(x0, replace(prev, status=status))), cold)
    assert same_result(solve_socp(spec, warm=(x0, replace(prev, _warm=None))), cold)


def test_start_outside_the_cone_falls_back(warm_solves):
    spec, (x0, prev), res = warm_solves[0]
    cold = solve_socp(spec)
    assert not same_result(res, cold)
    # a primal point whose slack leaves the cone, and a dual outside it
    far = x0 + 1e6 * np.sign(spec.c + 0.5)
    assert same_result(solve_socp(spec, warm=(far, prev)), cold)
    flipped = replace(prev, _warm=replace(prev._warm, z=-prev._warm.z))
    assert same_result(solve_socp(spec, warm=(x0, flipped)), cold)
    assert same_result(solve_socp(spec, warm=(np.full_like(x0, np.nan), prev)), cold)


# The cone solver's loop as it was before warm starts, over the same helpers.


def _parent_solve_socp(spec: SocpSpec) -> SolveResult:
    n = spec.n
    c, rows, h, _, lay = ipm._assemble(spec)
    m = lay.m
    if m == 0:
        return ipm._result(SolveStatus.UNBOUNDED if np.any(c != 0) else SolveStatus.OPTIMAL,
                           np.zeros(n), 0.0, 0.0, 0.0, 0.0, 0)

    norm_h = 1.0 + ipm._norm(h)
    norm_c = 1.0 + ipm._norm(c)
    e = lay.identity()
    degree = lay.degree + 1  # tau/kappa pair counts once

    try:
        normal = ipm._BlockFactor(rows)
        x = normal.solve(rows.rmatvec(h))
        s = ipm._shift_into_cone(lay, h - rows.matvec(x))
        z = ipm._shift_into_cone(lay, -rows.matvec(normal.solve(c)))
    except np.linalg.LinAlgError:
        return ipm._result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan, 0)
    tau, kappa = 1.0, 1.0

    best = None
    stall = 0
    for it in range(ipm._MAX_ITER):
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(z)):
            return ipm._result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan,
                               it)

        # G x and G'z serve the residuals, the certificates and the
        # right-hand sides of this iteration
        Gx, Gz = rows.matvec(x), rows.rmatvec(z)

        # convergence on the de-homogenized point
        xh, sh, zh = x / tau, s / tau, z / tau
        pres = ipm._norm(Gx / tau + sh - h) / norm_h
        dres = ipm._norm(Gz / tau + c) / norm_c
        pobj = c @ xh
        gap_abs = sh @ zh
        relgap = abs(gap_abs) / max(1.0, abs(pobj))
        if pres <= ipm._FEAS_TOL and dres <= ipm._FEAS_TOL and relgap <= ipm._FEAS_TOL:
            return ipm._result(SolveStatus.OPTIMAL, rows.to_spec(xh), float(pobj), float(pres),
                               float(dres), float(max(gap_abs, 0.0)), it)
        merit = pres + dres + relgap
        if best is None or merit < best[0] * 0.99:
            stall = 0
        else:
            stall += 1
        if best is None or merit < best[0]:
            best = (merit, xh, float(pobj), float(pres), float(dres),
                    float(gap_abs), it)
        if stall >= 8:
            break

        # infeasibility / unboundedness certificates, each re-verified from
        # scratch: the dual ray must be in the cone with G'z ~ 0, and the
        # primal ray's implied slack -G x must itself lie in the cone
        hz = h @ z
        cx = c @ x
        if hz < -1e-10:
            zc = z / (-hz)
            ray_res = ipm._norm(Gz) / -hz
            if ray_res <= 1e-9 * norm_c and ipm._min_cone_margin(lay, zc) >= -1e-9:
                return ipm._result(SolveStatus.INFEASIBLE, None, np.nan, ray_res, np.nan, np.nan,
                                   it)
        if cx < -1e-10:
            ray_slack = Gx / cx  # -G x / (-c.x)
            if ipm._min_cone_margin(lay, ray_slack) >= -1e-9 * (
                1.0 + np.linalg.norm(ray_slack)
            ):
                return ipm._result(SolveStatus.UNBOUNDED, None, np.nan, np.nan, np.nan, np.nan, it)

        # a diverging iterate cannot certify anything; stop on the best point
        if max(ipm._norm(x), ipm._norm(z)) > 1e12:
            break

        try:
            W = ipm._NTScaling(lay, s, z)
            kkt = ipm._KKT(rows, W)
        except (FloatingPointError, np.linalg.LinAlgError):
            break
        lam = W.apply(z)
        max_steps = ipm._StepLimit(lay, s, z)
        mu = (s @ z + tau * kappa) / degree

        r1 = Gz + c * tau      # want 0
        r2 = s + Gx - h * tau  # want 0
        r3 = kappa + c @ x + h @ z       # want 0

        # the predictor's system is solved together with the one for (-c, h),
        # which both directions combine with.  Its ds_tilde solves
        # lam o ds_tilde = -lam o lam, so it is -lam, and W(-lam) = -s
        lam_sq = ipm._jordan_product(lay, lam, lam)
        dst_a, wdst_a = -lam, -s
        (u1, u2), (v1, v2) = kkt.solve(np.stack((-c, -r1)), np.stack((h, -r2 - wdst_a)))
        denom = (c @ u1 + h @ v1) - kappa / tau

        def direction(u, v, wdst: np.ndarray, fac: float, dkappa_rhs: float):
            """The step from the solution (u, v) for the right-hand side
            (-fac r1, -fac r2 - W ds_tilde), with wdst = W ds_tilde."""
            num = (-fac * r3 - dkappa_rhs / tau) - (c @ u + h @ v)
            dtau = num / denom
            dx = u + dtau * u1
            dz = v + dtau * v1
            ds = wdst - W.apply_sq(dz)
            dkappa = (dkappa_rhs - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkappa

        # predictor
        dx_a, dz_a, ds_a, dtau_a, dkap_a = direction(u2, v2, wdst_a, 1.0, -tau * kappa)
        step_s, step_z = max_steps(ds_a, dz_a)
        alpha = min(
            step_s,
            step_z,
            tau / -dtau_a if dtau_a < 0 else np.inf,
            kappa / -dkap_a if dkap_a < 0 else np.inf,
            1.0,
        )
        sigma = float(min(max((1.0 - alpha) ** 3, 0.0), 1.0))

        # corrector; W^-1 ds_a = ds_tilde_a - W dz_a
        wdz_a = W.apply(dz_a)
        corr = ipm._jordan_product(lay, dst_a - wdz_a, wdz_a)
        ds_comb = -lam_sq - corr + sigma * mu * e
        dkap_comb = -(tau * kappa) - dtau_a * dkap_a + sigma * mu
        fac = 1.0 - sigma
        wdst = W.apply(ipm._jordan_solve(lay, lam, ds_comb))
        u2, v2 = kkt.solve(-fac * r1, -fac * r2 - wdst)
        dx, dz, ds, dtau, dkap = direction(u2, v2, wdst, fac, dkap_comb)

        step_s, step_z = max_steps(ds, dz)
        step = min(
            step_s,
            step_z,
            tau / -dtau if dtau < 0 else np.inf,
            kappa / -dkap if dkap < 0 else np.inf,
        )
        step = ipm._STEP_DAMP * min(step, 1.0 / ipm._STEP_DAMP)
        if not np.isfinite(step) or step <= 1e-14:
            break

        x += step * dx
        z += step * dz
        s += step * ds
        tau += step * dtau
        kappa += step * dkap
    else:
        it = ipm._MAX_ITER
    # it counts the steps taken: a break at index it leaves before that step.
    # The loop returns on the first iterate that meets _FEAS_TOL, so the best
    # stored one does not

    if best is not None:
        _, xh, pobj, pres, dres, gap_abs, _ = best
        if pres <= 1e-6 and dres <= 1e-6:
            # stalled short of full accuracy; report honestly as an iteration limit
            return ipm._result(SolveStatus.ITERATION_LIMIT, rows.to_spec(xh), pobj, pres, dres,
                               gap_abs, it)
    return ipm._result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan, it)
