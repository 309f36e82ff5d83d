"""Budget bisection: lower level, plain search, and the scaled rescue."""

import math

import numpy as np
import pytest

from cvarscale import Tolerances, alsox, chance_feasible, g_max_all
from cvarscale.alsox import alsox_sharp, alsox_sharp_scaled, lower_level
from cvarscale.bench import GeneratorConfig, generate
from cvarscale.conic import SolveStatus, solve_lp
from cvarscale.cvar import build_scaled_cvar_lp, solve_cvar
from cvarscale.errors import InfeasibleProblem
from cvarscale.exact import brute_force_optimal
from tests.conftest import single_row_instance
from tests.test_acceptance import _mixed_instance
from tests.test_cvar_cuts import MasterSpy
from tests.test_scaling import small_corpus


class TestLowerLevel:
    def test_hinge_vanishes_at_generous_budget(self, two_scenario):
        x, beta, value = lower_level(two_scenario, 2.0)
        assert value <= 1e-9
        assert float(two_scenario.c @ x) <= 2.0 + 1e-9

    def test_hinge_positive_under_tight_budget(self, two_scenario):
        _, _, value = lower_level(two_scenario, 0.5)
        assert value > 1e-6

    def test_infinite_budget_reduces_to_unconstrained(self, two_scenario):
        x1, _, v1 = lower_level(two_scenario, np.inf)
        x2, _, v2 = lower_level(two_scenario, 1e12)
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_budget_below_domain_minimum(self, two_scenario):
        with pytest.raises(InfeasibleProblem):
            lower_level(two_scenario, -1.0)


class TestPlainBisection:
    def test_two_scenario_contract(self, two_scenario):
        rep = alsox_sharp(two_scenario, t_lower=0.0, t_upper=2.0, delta_A=0.05)
        # the optimal value is 1 and the plain approximation gives 2; the
        # final upper bound must land in between and carry a feasible point
        assert 1.0 - 1e-9 <= rep.t_upper <= 2.0 + 1e-9
        assert chance_feasible(two_scenario, rep.x, 1e-6)
        assert rep.objective <= rep.t_upper + 1e-9
        assert len(rep.steps) <= math.ceil(math.log2(2.0 / 0.05))
        assert rep.t_upper - rep.t_lower <= 0.05 + 1e-12

    def test_three_scenario_contract(self, three_scenario):
        rep = alsox_sharp(three_scenario, t_lower=0.0, t_upper=3.0, delta_A=0.05)
        assert 2.0 - 1e-9 <= rep.t_upper <= 3.0 + 1e-9
        assert chance_feasible(three_scenario, rep.x, 1e-6)

    def test_equal_bounds_return_immediately(self, two_scenario):
        rep = alsox_sharp(two_scenario, t_lower=2.0, t_upper=2.0)
        assert rep.steps == []
        assert rep.t_upper == 2.0
        assert chance_feasible(two_scenario, rep.x, 1e-6)

    def test_default_bounds(self, two_scenario):
        rep = alsox_sharp(two_scenario)
        # default lower bound: cost minimum over the domain alone (zero here)
        assert rep.bounds_history[0][0] == pytest.approx(0.0)
        assert rep.bounds_history[0][1] == pytest.approx(2.0)

    def test_bounds_ordered_throughout(self, two_scenario):
        rep = alsox_sharp(two_scenario, t_lower=0.0, t_upper=2.0)
        for lo, hi in rep.bounds_history:
            assert lo <= hi + 1e-12

    def test_contracts_on_random_instances(self):
        for inst, cvar_sol in small_corpus(10):
            v_star = brute_force_optimal(inst).v_star
            rep = alsox_sharp(inst)
            assert v_star - 1e-6 <= rep.t_upper <= cvar_sol.objective + 0.05 + 1e-9
            assert chance_feasible(inst, rep.x, 1e-6)
            gap0 = rep.bounds_history[0][1] - rep.bounds_history[0][0]
            cap = math.ceil(math.log2(max(gap0 / 0.05, 1.0)))
            assert len(rep.steps) <= max(cap, 0)


class TestScaledBisection:
    def test_never_worse_than_plain(self):
        for inst, _ in small_corpus(10):
            plain = alsox_sharp(inst)
            scaled = alsox_sharp_scaled(inst)
            assert scaled.t_upper <= plain.t_upper + 1e-9
            assert chance_feasible(inst, scaled.x, 1e-6)

    def test_single_mandatory_scenario_identical(self):
        inst = single_row_instance([1.0], [[-1.0]], [1.0], 0.5, "single", probs=[1.0])
        plain = alsox_sharp(inst, t_lower=0.0, t_upper=2.0)
        scaled = alsox_sharp_scaled(inst, t_lower=0.0, t_upper=2.0)
        assert scaled.t_upper == pytest.approx(plain.t_upper)
        assert [s.t for s in scaled.steps] == pytest.approx([s.t for s in plain.steps])
        assert not any(s.rescued for s in scaled.steps)

    def test_rescue_certifies_budgets_plain_misses(self):
        # covering pair where the hinge minimizer spreads effort but a scaled
        # certificate exists: satisfying the cheap scenario alone is optimal
        inst = single_row_instance([1.0], [[-1.0], [-1.0]], [1.0, 2.0], 0.6, "step-line")
        plain = alsox_sharp(inst, t_lower=0.0, t_upper=None, delta_A=0.02)
        scaled = alsox_sharp_scaled(inst, t_lower=0.0, t_upper=None, delta_A=0.02)
        assert scaled.t_upper <= plain.t_upper + 1e-9
        if any(s.rescued for s in scaled.steps):
            assert scaled.t_upper < plain.t_upper - 1e-9


# (corpus shape, data seed): portfolio instances whose lower-level minimizer
# at some budget left one satisfied row at +2.7e-7 to +7.2e-7, inside
# feas_tol; certifying such a budget put alsox 9e-6 to 6e-5 below v*
MARGIN_CASES = [(30, 10030), (2, 59002), (26, 74026), (14, 124014), (14, 131014),
                (8, 160008), (20, 178020)]


@pytest.mark.parametrize("shape, seed", MARGIN_CASES)
def test_certified_budgets_stay_above_the_optimum(shape, seed):
    inst = _mixed_instance(shape, seed)
    tol = Tolerances(delta2=0.0, max_iter=10)
    v_star = brute_force_optimal(inst, tol=tol).v_star
    for run in (alsox_sharp, alsox_sharp_scaled):
        rep = run(inst, tol=tol)
        assert rep.objective >= v_star - 1e-9, run.__name__
        worst = g_max_all(inst, rep.x)
        assert chance_feasible(inst, rep.x, 1e-9)
        assert np.all((worst <= 1e-9) | (worst > tol.feas_tol))


def resume_cases():
    """Corpus shapes (the explicit LP path), and lp-large and trend-mid shapes
    (the cut path)."""
    corpus = (_mixed_instance(i) for i in range(12))
    yield from [inst for inst in corpus if solve_cvar(inst).optimal][:6]
    yield generate(GeneratorConfig(family="portfolio", n=20, N=200, epsilon=0.100333, seed=1))
    yield generate(GeneratorConfig(family="covering", n=20, N=60, J=3, epsilon=0.100333, seed=1))
    for eps in (0.100333, 0.300333):
        yield generate(GeneratorConfig(family="portfolio", n=20, N=50, epsilon=eps, seed=2))


@pytest.mark.parametrize("inst", list(resume_cases()), ids=lambda inst: inst.name)
def test_resumed_bisection_matches_cold_levels(monkeypatch, inst):
    # every lower level after the first resumes the last level's LP at its new
    # budget; each level's answer is checked against a cold solve of the
    # explicit LP at that budget
    spy = MasterSpy(monkeypatch)
    levels = []
    real = alsox.lower_level

    def recording(instance, t, **kwargs):
        out = real(instance, t, **kwargs)
        levels.append((t, out))
        return out

    monkeypatch.setattr(alsox, "lower_level", recording)
    tol = Tolerances(delta2=0.0, max_iter=4)
    rep = alsox.alsox_sharp(inst, tol=tol)
    assert len(levels) == len(rep.steps) + 1 >= 3
    # cold: the domain cost bound, the plain CVaR LP and the first level
    assert spy.cold <= 3 + spy.explicit and spy.fell_back == 0
    assert spy.resumed >= len(rep.steps)
    assert spy.explicit == 0 or inst.N * inst.J <= 36
    monkeypatch.undo()
    for (t, (x, _, value)), step in zip(levels, [None] + rep.steps):
        ref = solve_lp(build_scaled_cvar_lp(inst, np.ones(inst.N), t))
        assert ref.status == SolveStatus.OPTIMAL
        assert abs(value - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
        assert np.allclose(x, ref.z[:inst.n], rtol=1e-9, atol=1e-9)
        if step is not None:
            assert step.feasible == alsox._certifies(inst, ref.z[:inst.n], tol)
