"""The block-eliminated KKT solve of the cone solver against the dense one.

The subproblems are those the plain and hybrid SCA loops build on corpus
seeds 0-29 and on two trend-shape instances (portfolio n=20, N=50, both
risk levels), plus hand-picked relax sets on a J=3 covering instance: full,
partial, empty (no cones) and unsorted with repeats.
"""

import numpy as np
import pytest

import cvarscale.sca as sca_mod
from cvarscale import Tolerances
from cvarscale.bench import GeneratorConfig, generate
from cvarscale.conic import SocpSpec, SolveStatus, ipm, solve_socp
from cvarscale.cvar import solve_cvar
from cvarscale.sca import build_dc_subproblem, hybrid_refine, sequential_convex
from tests.test_acceptance import RUN_TOL, _mixed_instance

# Two backward-stable solves of one system can differ by about
# eps * cond(G'W^-2 G); the directions must agree to 1e-9 relative wherever
# that allows (cond up to 1e6), and within 1e-15 * cond beyond it, which the
# last iterations reach (cond up to 1e21 on these subproblems)
_EPS_COND = 1e-15


# the accuracy these comparisons were sized at, tighter than the solver's own
_TOL = 1e-9


def _dense(spec: SocpSpec) -> SocpSpec:
    return SocpSpec(c=spec.c, A=spec.A, b=spec.b, cones=spec.cones, lb=spec.lb, ub=spec.ub)


@pytest.fixture(scope="module")
def subproblems():
    specs = []

    def recording(spec, *, warm=None):
        specs.append(spec)
        return solve_socp(spec, warm=warm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ipm, "_FEAS_TOL", _TOL)
        mp.setattr(sca_mod, "solve_socp", recording)
        for seed in range(30):
            inst = _mixed_instance(seed)
            sol = solve_cvar(inst, RUN_TOL)
            if sol.optimal:
                sequential_convex(inst, sol.x, RUN_TOL)
                hybrid_refine(inst, sol.x, RUN_TOL)
        tol = Tolerances(max_iter=2)
        for eps in (0.100333, 0.300333):
            inst = generate(GeneratorConfig(family="portfolio", n=20, N=50, epsilon=eps, seed=1))
            sol = solve_cvar(inst, tol)
            sequential_convex(inst, sol.x, tol)
            hybrid_refine(inst, sol.x, tol)
    inst = next(i for i in map(_mixed_instance, range(1, 99, 2)) if i.J == 3)
    sol = solve_cvar(inst, RUN_TOL)
    subset = np.flatnonzero(np.random.default_rng(3).random(inst.N) < 0.5)
    for relax in (range(inst.N), subset, [], list(subset[::-1]) * 2):
        specs.append(build_dc_subproblem(inst, sol.x, np.full(inst.N, 1.5), relax))
    return specs


@pytest.fixture
def block_path(monkeypatch):
    # every spec with a partition takes the block path, whatever its size,
    # and every solve runs to _TOL
    monkeypatch.setattr(ipm, "_MIN_BLOCKS", 1)
    monkeypatch.setattr(ipm, "_FEAS_TOL", _TOL)


def test_subproblem_set_covers_the_cases(subproblems):
    cones = [len(spec.cones) for spec in subproblems]
    assert len(subproblems) > 400
    assert 0 in cones and max(cones) >= 50
    assert any(spec.partition.max() + 1 == 50 for spec in subproblems)


@pytest.mark.slow
def test_solves_agree(subproblems, block_path):
    for k, spec in enumerate(subproblems):
        block, dense = solve_socp(spec), solve_socp(_dense(spec))
        assert block.status == dense.status, k
        if dense.status in (SolveStatus.OPTIMAL, SolveStatus.ITERATION_LIMIT):
            gap = abs(block.objective - dense.objective)
            assert gap <= 1e-8 * max(1.0, abs(dense.objective)), k


@pytest.mark.slow
def test_directions_agree(subproblems, block_path, monkeypatch):
    # along the dense solve's path, the block KKT built at the same scaling
    # solves every right-hand side the dense one is given
    dense_kkt = ipm._KKT
    strict, total = 0, 0

    for spec in subproblems:
        block_rows = ipm._assemble(spec)[1]

        class Paired(dense_kkt):
            def __init__(self, rows, W):
                super().__init__(rows, W)
                self.block = dense_kkt(block_rows, W)
                Gt = self.scaled.Gc
                self.cond = np.linalg.cond(Gt.T @ Gt)

            def solve(self, p, q):
                nonlocal strict, total
                u, v = super().solve(p, q)
                for pk, qk, uk, vk in zip(np.atleast_2d(p), np.atleast_2d(q),
                                          np.atleast_2d(u), np.atleast_2d(v)):
                    ub, vb = self.block.solve(block_rows.to_internal(pk), qk)
                    want = np.concatenate((uk, vk))
                    got = np.concatenate((block_rows.to_spec(ub), vb))
                    bound = max(1e-9, _EPS_COND * self.cond)
                    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
                    total += 1
                    strict += bound == 1e-9
                return u, v

        monkeypatch.setattr(ipm, "_KKT", Paired)
        assert solve_socp(_dense(spec)).status == SolveStatus.OPTIMAL
    assert strict >= total // 3
