"""Differential test: the hinge-cut solver against the explicit LP oracle.

The cut solver is called directly, so the size rule that picks the path in
``solve_scaled_cvar`` and ``alsox.lower_level`` cannot bypass it.  Statuses
must match, objectives must agree to 1e-9 relative, and the recovered
(x, beta, s) must satisfy every row and bound of the explicit LP to 1e-9.
The explicit LP and the master's head rows are also checked bit for bit
against their construction before the shared row builders.
"""

import numpy as np
import pytest

from cvarscale import CcpInstance, Domain, Scenario, cvar
from cvarscale.bench import GeneratorConfig, generate
from cvarscale.alsox import _default_t_lower
from cvarscale.conic import SolveStatus, simplex, solve_lp
from cvarscale.cvar import _BETA_FLOOR, _head_rows, _solve_by_cuts, build_scaled_cvar_lp
from tests.conftest import single_row_instance
from tests.test_acceptance import _mixed_instance


def assert_agree(inst, alpha=None, budget=None):
    """Solve both ways and compare; returns the common status."""
    alpha = np.ones(inst.N) if alpha is None else np.asarray(alpha, dtype=float)
    spec = build_scaled_cvar_lp(inst, alpha, budget)
    ref = solve_lp(spec)
    got = _solve_by_cuts(inst, alpha, budget)
    assert got.status == ref.status, inst.name
    if ref.status != SolveStatus.OPTIMAL:
        assert got.x is None
        return ref.status
    assert abs(got.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective)), inst.name
    z = np.concatenate([got.x, [got.beta], got.s])
    assert float(spec.c @ z) == pytest.approx(got.objective, rel=1e-12, abs=1e-12)
    scale = 1.0 + np.abs(spec.A) @ np.abs(z) + np.abs(spec.b)
    assert np.all(spec.A @ z - spec.b <= 1e-9 * scale), inst.name
    assert np.all(z >= spec.lb - 1e-9) and np.all(z <= spec.ub + 1e-9), inst.name
    return ref.status


def corpus_head(count=50):
    """The first acceptance-corpus instances (plain approximation feasible)."""
    out, seed = [], 0
    while len(out) < count:
        inst = _mixed_instance(seed)
        seed += 1
        if solve_lp(build_scaled_cvar_lp(inst, np.ones(inst.N))).optimal:
            out.append(inst)
    return out


def test_corpus_plain_and_scaled():
    rng = np.random.default_rng(7)
    for inst in corpus_head():
        assert assert_agree(inst) == SolveStatus.OPTIMAL
        assert_agree(inst, alpha=rng.uniform(1.0, 10.0, size=inst.N))


def test_corpus_lower_level():
    for inst in corpus_head():
        plain = solve_lp(build_scaled_cvar_lp(inst, np.ones(inst.N))).objective
        floor = _default_t_lower(inst)
        assert assert_agree(inst, budget=plain) == SolveStatus.OPTIMAL
        assert assert_agree(inst, budget=0.5 * (plain + floor)) == SolveStatus.OPTIMAL
        assert assert_agree(inst, budget=np.inf) == SolveStatus.OPTIMAL
        assert assert_agree(inst, budget=floor - 1.0) == SolveStatus.INFEASIBLE


@pytest.mark.parametrize("seed", [1, 2])
def test_portfolio_200(seed):
    inst = generate(GeneratorConfig(family="portfolio", n=20, N=200, epsilon=0.100333, seed=seed))
    assert assert_agree(inst) == SolveStatus.OPTIMAL
    alpha = np.random.default_rng(seed).uniform(1.0, 10.0, size=inst.N)
    assert_agree(inst, alpha=alpha)
    plain = solve_lp(build_scaled_cvar_lp(inst, np.ones(inst.N))).objective
    assert_agree(inst, budget=0.8 * plain)
    assert_agree(inst, budget=np.inf)


@pytest.mark.slow
def test_portfolio_800():
    inst = generate(GeneratorConfig(family="portfolio", n=20, N=800, epsilon=0.100333, seed=1))
    assert assert_agree(inst) == SolveStatus.OPTIMAL


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_covering_j3(seed):
    inst = generate(GeneratorConfig(family="covering", n=20, N=60, J=3, epsilon=0.100333,
                                    seed=seed))
    assert assert_agree(inst) == SolveStatus.OPTIMAL
    assert_agree(inst, alpha=np.random.default_rng(seed).uniform(1.0, 10.0, size=inst.N))
    plain = solve_lp(build_scaled_cvar_lp(inst, np.ones(inst.N))).objective
    assert_agree(inst, budget=0.9 * plain)


def test_line_four_infeasible(line_four):
    assert assert_agree(line_four) == SolveStatus.INFEASIBLE


def test_two_scenario_golden(two_scenario):
    for a in (1.0, 2.0, 4.0, 50.0):
        assert assert_agree(two_scenario, alpha=[1.0, a]) == SolveStatus.OPTIMAL
    for t in (0.5, 2.0, np.inf):
        assert assert_agree(two_scenario, budget=t) == SolveStatus.OPTIMAL
    assert assert_agree(two_scenario, budget=-1.0) == SolveStatus.INFEASIBLE


def test_unbounded_domain_bounded_problem():
    # the first master (all-scenarios cut at the origin) leaves -x unbounded;
    # the tail cut of scenario 1 caps x at 1
    inst = single_row_instance([-1.0], [[1.0], [-1.0]], [-1.0, -5.0], 0.3, "boxed")
    assert assert_agree(inst) == SolveStatus.OPTIMAL
    sol = _solve_by_cuts(inst, np.ones(2), None)
    assert sol.x == pytest.approx([1.0], abs=1e-9)


def test_unbounded_problem():
    inst = single_row_instance([-1.0], [[-1.0], [-2.0]], [-1.0, 0.5], 0.3, "ray")
    assert assert_agree(inst) == SolveStatus.UNBOUNDED


def free_instance():
    """60 scenarios over one free and one nonnegative variable."""
    rng = np.random.default_rng(3)
    xi = rng.uniform(0.8, 1.2, size=(60, 2))
    scen = tuple(Scenario(W=-xi[i][None, :], d=[1.0], p=1 / 60) for i in range(60))
    return CcpInstance(c=[1.0, 1.5], scenarios=scen, epsilon=0.2,
                       domain=Domain(lb=[-np.inf, 0.0], ub=[np.inf, np.inf]), name="free")


def test_free_variables():
    assert assert_agree(free_instance()) == SolveStatus.OPTIMAL


def test_tie_at_n_eps():
    # every loss appears twice and N * eps = 10, so the tail boundary is a tie
    base = generate(GeneratorConfig(family="portfolio", n=6, N=20, epsilon=0.25, seed=4))
    scen = tuple(Scenario(W=s.W, d=s.d, p=1 / 40) for s in base.scenarios * 2)
    inst = CcpInstance(c=base.c, scenarios=scen, epsilon=0.25, domain=base.domain, name="ties")
    assert assert_agree(inst) == SolveStatus.OPTIMAL
    assert assert_agree(inst, budget=np.inf) == SolveStatus.OPTIMAL


class MasterSpy:
    """Counts cold solves, resumed rounds, Farkas checks and explicit-LP hand-overs."""

    def __init__(self, monkeypatch):
        self.cold, self.resumed, self.fell_back, self.rays, self.explicit = 0, 0, 0, [], 0
        solve_once, warm_solve, is_ray = (simplex._solve_once, simplex._warm_solve,
                                          simplex._is_farkas_ray)
        solve_explicit = cvar._solve_explicit

        def explicit(*args, **kwargs):
            self.explicit += 1
            return solve_explicit(*args, **kwargs)

        def cold(*args, **kwargs):
            self.cold += 1
            return solve_once(*args, **kwargs)

        def warm(*args, **kwargs):
            res, pivots = warm_solve(*args, **kwargs)
            self.resumed += 1
            self.fell_back += res is None
            return res, pivots

        def ray(*args, **kwargs):
            self.rays.append(is_ray(*args, **kwargs))
            return self.rays[-1]

        monkeypatch.setattr(simplex, "_solve_once", cold)
        monkeypatch.setattr(simplex, "_warm_solve", warm)
        monkeypatch.setattr(simplex, "_is_farkas_ray", ray)
        monkeypatch.setattr(cvar, "_solve_explicit", explicit)


def live_cases():
    """lp-large and trend-mid shapes, and corpus shapes with J = 3."""
    yield generate(GeneratorConfig(family="portfolio", n=20, N=200, epsilon=0.100333, seed=3))
    yield generate(GeneratorConfig(family="covering", n=20, N=60, J=3, epsilon=0.100333, seed=4))
    for eps in (0.100333, 0.300333):
        yield generate(GeneratorConfig(family="portfolio", n=20, N=50, epsilon=eps, seed=5))
    yield from (inst for inst in corpus_head(12) if inst.J == 3)


@pytest.mark.parametrize("inst", list(live_cases()), ids=lambda inst: inst.name)
def test_live_master_matches_oracle(monkeypatch, inst):
    # each hinge solve makes one cold master solve; every later round resumes
    # on the live tableau and certifies without falling back
    spy = MasterSpy(monkeypatch)
    plain = solve_lp(build_scaled_cvar_lp(inst, np.ones(inst.N))).objective
    floor = _default_t_lower(inst)
    alpha = np.random.default_rng(inst.N).uniform(1.0, 10.0, size=inst.N)
    for kwargs in ({}, {"alpha": alpha}, {"budget": plain}, {"budget": 0.5 * (plain + floor)},
                   {"budget": np.inf}):
        spy.cold = spy.explicit = 0
        assert assert_agree(inst, **kwargs) == SolveStatus.OPTIMAL
        # the oracle's solve is cold too, and so is a hand-over at a loose budget
        assert spy.cold <= 2 + spy.explicit, kwargs
    assert spy.resumed >= 5 and spy.fell_back == 0


def test_live_master_infeasible_answers_carry_rays(monkeypatch, line_four):
    spy = MasterSpy(monkeypatch)
    inst = generate(GeneratorConfig(family="covering", n=20, N=60, J=3, epsilon=0.100333, seed=4))
    assert assert_agree(inst, budget=_default_t_lower(inst) - 1.0) == SolveStatus.INFEASIBLE
    assert spy.rays and spy.rays[-1]
    spy.rays.clear()
    assert assert_agree(line_four) == SolveStatus.INFEASIBLE
    assert spy.rays and spy.rays[-1]
    # rows 1 - 2x and x - 0.4 at eps = 1/2: their mean is nonpositive from
    # x = 0.6 on, so the first master is feasible, but no x satisfies both;
    # the resumed round proves it
    mean_feasible = single_row_instance([1.0], [[-2.0], [1.0]], [1.0, -0.4], 0.5, "mean")
    spy.rays.clear()
    spy.resumed = 0
    assert assert_agree(mean_feasible) == SolveStatus.INFEASIBLE
    assert spy.resumed == 1 and spy.fell_back == 0 and spy.rays[-1]
    # without a verified ray the master reports no INFEASIBLE
    monkeypatch.setattr(simplex, "_is_farkas_ray", lambda *args: False)
    for inst in (line_four, mean_feasible):
        assert _solve_by_cuts(inst, np.ones(inst.N), None).status != SolveStatus.INFEASIBLE


def test_live_master_box_path(monkeypatch):
    # an unbounded first master is boxed and cold-solved; later rounds resume
    spy = MasterSpy(monkeypatch)
    inst = single_row_instance([-1.0], [[1.0], [-1.0]], [-1.0, -5.0], 0.3, "boxed")
    assert assert_agree(inst) == SolveStatus.OPTIMAL
    assert spy.resumed >= 1 and spy.fell_back == 0


def reference_scaled_cvar_lp(instance, alpha, budget=None):
    """Reference: the explicit LP as built before the shared row builders."""
    n, N, J = instance.n, instance.N, instance.J
    nv = n + 1 + N
    alpha_rows = np.repeat(alpha, J)
    scen = np.zeros((N * J, nv))
    scen[:, :n] = alpha_rows[:, None] * instance.w_stack
    scen[:, n] = -1.0
    scen[np.arange(N * J), n + 1 + np.repeat(np.arange(N), J)] = -1.0
    rows, rhs = [scen], [-alpha_rows * instance.d_stack]
    c = np.zeros(nv)
    if budget is None:
        risk = np.zeros((1, nv))
        risk[0, n] = instance.epsilon
        risk[0, n + 1 :] = instance.probs
        rows.append(risk)
        rhs.append(np.zeros(1))
        c[:n] = instance.c
    else:
        if np.isfinite(budget):
            row = np.zeros((1, nv))
            row[0, :n] = instance.c
            rows.append(row)
            rhs.append(np.array([budget]))
        c[n] = instance.epsilon
        c[n + 1 :] = instance.probs
    dom = instance.domain
    if dom.P is not None:
        ext = np.zeros((dom.P.shape[0], nv))
        ext[:, :n] = dom.P
        rows.append(ext)
        rhs.append(dom.q)
    floor = np.zeros((1, nv))
    floor[0, n] = -1.0
    rows.append(floor)
    rhs.append(np.array([_BETA_FLOOR]))
    lb = np.concatenate([dom.lb, [-np.inf], np.zeros(N)])
    ub = np.concatenate([dom.ub, [0.0], np.full(N, np.inf)])
    return c, np.vstack(rows), np.concatenate(rhs), lb, ub


def reference_master_head(instance, budget):
    """Reference: the cut master's objective, head rows and bounds over (x, beta, theta)."""
    n, eps, dom = instance.n, instance.epsilon, instance.domain
    zeros2 = np.zeros(2)
    head, head_rhs = [], []
    if budget is None:
        c = np.concatenate([instance.c, zeros2])
        head.append(np.concatenate([np.zeros(n), [eps, 1.0]]))
        head_rhs.append(0.0)
    else:
        c = np.concatenate([np.zeros(n), [eps, 1.0]])
        if np.isfinite(budget):
            head.append(np.concatenate([instance.c, zeros2]))
            head_rhs.append(budget)
    if dom.P is not None:
        head.extend(np.hstack([dom.P, np.zeros((dom.n_rows, 2))]))
        head_rhs.extend(dom.q)
    head.append(np.concatenate([np.zeros(n), [-1.0, 0.0]]))
    head_rhs.append(_BETA_FLOOR)
    lb = np.concatenate([dom.lb, [-np.inf, 0.0]])
    ub = np.concatenate([dom.ub, [0.0, np.inf]])
    return c, np.vstack(head), np.array(head_rhs), lb, ub


def builder_cases():
    """Corpus instances (J = 1-3, with and without domain rows) and free variables."""
    yield from corpus_head(30)
    yield free_instance()


def test_builders_match_reference_construction():
    rng = np.random.default_rng(5)
    for inst in builder_cases():
        alphas = (np.ones(inst.N), rng.uniform(1.0, 10.0, size=inst.N))
        for budget in (None, 1.5, np.inf):
            for alpha in alphas:
                spec = build_scaled_cvar_lp(inst, alpha, budget)
                want = reference_scaled_cvar_lp(inst, alpha, budget)
                for got, ref in zip((spec.c, spec.A, spec.b, spec.lb, spec.ub), want):
                    assert np.array_equal(got, ref), inst.name
                    assert got.tobytes() == ref.tobytes(), inst.name
            head = _head_rows(inst, np.ones(1), budget)
            for got, ref in zip(head, reference_master_head(inst, budget)):
                assert np.array_equal(got, ref), inst.name
                assert got.tobytes() == ref.tobytes(), inst.name
