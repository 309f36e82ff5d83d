"""Closed-form scaling construction, blending, the iterative heuristic,
cost floors, and factor pinning."""

import numpy as np
import pytest

from cvarscale import Tolerances, cvar, g_max_all, scaling
from cvarscale.bench import GeneratorConfig, generate
from cvarscale.cvar import solve_cvar, solve_scaled_cvar
from cvarscale.errors import ConditionViolated, DimensionMismatch
from cvarscale.exact import brute_force_optimal
from cvarscale.scaling import (
    Termination,
    blend_witnesses,
    construct_scaling,
    pin_alpha_mask,
    scaling_heuristic,
    scenario_cost_floors,
)
from tests.conftest import single_row_instance
from tests.test_cvar_cuts import MasterSpy


def small_corpus(count=20):
    """Deterministic mixed corpus with feasible plain approximations."""
    out = []
    seed = 0
    while len(out) < count:
        fam = "portfolio" if seed % 2 == 0 else "covering"
        cfg = GeneratorConfig(
            family=fam,
            n=3 + seed % 4,
            N=8 + seed % 4,
            J=1 if fam == "portfolio" else 2,
            epsilon=(0.200333, 0.300333)[seed % 2],
            seed=seed,
            budget_fraction=0.6,
            cost_range=(-5, 10) if fam == "covering" else (1, 100),
        )
        inst = generate(cfg)
        sol = solve_cvar(inst)
        if sol.optimal:
            out.append((inst, sol))
        seed += 1
    return out


class TestConstruction:
    def test_line_instance_exact_factors(self, line_four):
        out = construct_scaling(line_four, [0.0])
        assert out.tau == pytest.approx(0.25)
        assert out.alpha_bar == pytest.approx(10.0)
        assert out.alpha_hat.alpha == pytest.approx([1.0, 5.0, 5.0, 5.0])
        assert out.beta_hat == pytest.approx(-10.0)
        assert out.s_hat == pytest.approx([20.0, 0.0, 0.0, 0.0])
        assert not out.clipped

    def test_all_strict_gives_identity(self, two_scenario):
        out = construct_scaling(two_scenario, [3.0, 3.0])
        assert out.tau == 0.0
        assert out.alpha_bar == 0.0
        assert out.beta_hat == 0.0
        assert np.all(out.alpha_hat.alpha == 1.0)
        assert np.all(out.s_hat == 0.0)

    def test_three_scenario_blend_point(self, three_scenario):
        out = construct_scaling(three_scenario, [0.0, 1.1])
        assert out.tau == pytest.approx(1 / 3)
        assert out.alpha_bar == pytest.approx(5.0)
        assert out.alpha_hat.alpha == pytest.approx([1.0, 50.0, 50.0])
        assert out.beta_hat == pytest.approx(-5.0)
        assert out.s_hat == pytest.approx([6.0, 0.0, 0.0])

    def test_condition_violated(self, line_four_tight):
        with pytest.raises(ConditionViolated) as err:
            construct_scaling(line_four_tight, [0.0])
        assert err.value.tau == pytest.approx(0.25)
        assert err.value.epsilon == pytest.approx(0.25)

    def test_triple_accepted_by_scaled_solve(self, line_four, three_scenario):
        # the certificate makes the scaled approximation at least as good as
        # the point it was built from
        for inst, x in ((line_four, [0.0]), (three_scenario, [0.0, 1.1])):
            out = construct_scaling(inst, x)
            sol = solve_scaled_cvar(inst, out.alpha_hat)
            assert sol.optimal
            assert sol.objective <= float(inst.c @ np.atleast_1d(x)) + 1e-9

    @pytest.mark.parametrize("seed", range(12))
    def test_construction_valid_on_random_points(self, seed):
        rng = np.random.default_rng(seed)
        inst, _ = small_corpus(1)[0]
        x = rng.uniform(0, 1, size=inst.n)
        worst = g_max_all(inst, x)
        p = inst.probs
        if p[worst >= 0.0].sum() >= inst.epsilon:
            pytest.skip("point does not satisfy the construction condition")
        out = construct_scaling(inst, x)
        a, b, s = out.alpha_hat.alpha, out.beta_hat, out.s_hat
        assert np.all(s + b >= a * worst - 1e-9)
        assert inst.epsilon * b + p @ s <= 1e-9


class TestBlend:
    def test_tiny_step_stays_at_base(self):
        x = blend_witnesses([0.0, 1.0], [[0.0, 2.0]], 1e-9)
        assert np.linalg.norm(x - [0.0, 1.0]) <= 1e-8 * 1.0

    def test_three_scenario_blend(self, three_scenario):
        x = blend_witnesses([0.0, 1.0], [[0.0, 2.0]], 0.1)
        assert x == pytest.approx([0.0, 1.1])
        assert np.all(g_max_all(three_scenario, x)[1:] == pytest.approx(-0.1))

    def test_witness_equal_to_base(self):
        for t in (0.1, 0.5, 0.9):
            assert blend_witnesses([1.0, 2.0], [[1.0, 2.0]], t) == pytest.approx([1.0, 2.0])

    def test_empty_witnesses(self):
        with pytest.raises(DimensionMismatch):
            blend_witnesses([1.0], [], 0.5)


class TestHeuristic:
    def test_three_scenario_fixed_point(self, three_scenario):
        trace = scaling_heuristic(three_scenario, [0.0, 1.1])
        inc = trace.incumbent
        assert inc.objective == pytest.approx(2.2, abs=1e-7)
        assert inc.alpha == pytest.approx([1.0, 50.0, 50.0], abs=1e-6)

    def test_guard_on_boundary_start(self, two_scenario):
        x0 = solve_cvar(two_scenario).x
        trace = scaling_heuristic(two_scenario, x0, Tolerances(delta2=0.0))
        assert trace.incumbent.objective == pytest.approx(2.0, abs=1e-9)
        assert trace.termination == Termination.STALLED

    def test_all_strict_start_keeps_identity(self):
        inst = single_row_instance([1.0, 1.0], [[-1, 0], [0, -1]], [-1, -1], 0.4, "slack")
        x0 = solve_cvar(inst).x
        trace = scaling_heuristic(inst, x0, Tolerances(delta2=0.0))
        assert np.all(trace.records[-1].alpha == 1.0)
        assert trace.incumbent.objective == pytest.approx(solve_cvar(inst).objective)

    def test_monotone_from_plain_start(self):
        tol = Tolerances(delta2=0.0)
        for inst, sol in small_corpus(12):
            trace = scaling_heuristic(inst, sol.x, tol)
            objs = trace.objectives
            assert objs[0] == pytest.approx(sol.objective, abs=1e-9)
            assert np.all(np.diff(objs) <= 1e-9)

    def test_factors_never_shrink_on_strict_set(self):
        tol = Tolerances(delta2=0.0)
        for inst, sol in small_corpus(8):
            trace = scaling_heuristic(inst, sol.x, tol)
            for prev, cur in zip(trace.records, trace.records[1:]):
                strict = g_max_all(inst, prev.x) < tol.delta2
                assert np.all(cur.alpha[strict] >= prev.alpha[strict] - 1e-12)

    def test_fixed_mask_pins_factors(self, three_scenario):
        mask = np.array([False, True, True])
        trace = scaling_heuristic(three_scenario, [0.0, 1.1], fixed_mask=mask)
        for rec in trace.records:
            assert np.all(rec.alpha[mask] == 1.0)

    def test_incumbent_is_minimum(self):
        for inst, sol in small_corpus(6):
            trace = scaling_heuristic(inst, sol.x)
            assert trace.incumbent.objective == pytest.approx(trace.objectives.min())

    @pytest.mark.parametrize("cfg", [
        GeneratorConfig(family="portfolio", n=20, N=200, epsilon=0.100333, seed=2),
        GeneratorConfig(family="covering", n=20, N=60, J=3, epsilon=0.100333, seed=2),
        GeneratorConfig(family="portfolio", n=20, N=50, epsilon=0.100333, seed=3),
        GeneratorConfig(family="portfolio", n=20, N=50, epsilon=0.300333, seed=3),
    ], ids=lambda cfg: f"{cfg.family}-N{cfg.N}-eps{cfg.epsilon}")
    def test_carried_cuts_match_cold_solves(self, monkeypatch, cfg):
        # the binding cuts of each solve, re-weighted at the next factors, seed
        # the next solve; the trace matches one whose solves all start cold
        inst = generate(cfg)
        tol = Tolerances(max_iter=4)
        x0 = solve_cvar(inst, tol).x
        seeded = []
        reweighted = cvar._reweighted_cut
        monkeypatch.setattr(cvar, "_reweighted_cut",
                            lambda *a: seeded.append(1) or reweighted(*a))
        spy = MasterSpy(monkeypatch)
        carried = scaling_heuristic(inst, x0, tol)
        carried_solves, explicit = spy.cold + spy.resumed, spy.explicit
        monkeypatch.setattr(scaling, "_HingeMaster", lambda: None)
        spy.cold = spy.resumed = spy.explicit = 0
        cold = scaling_heuristic(inst, x0, tol)
        assert len(carried.records) == len(cold.records) >= 3
        for a, b in zip(carried.records, cold.records):
            assert abs(a.objective - b.objective) <= 1e-9 * max(1.0, abs(b.objective))
            assert np.allclose(a.alpha, b.alpha, rtol=1e-9, atol=0)
        assert carried.termination == cold.termination
        assert seeded and explicit == spy.explicit == 0
        assert carried_solves < spy.cold + spy.resumed


class TestCostFloors:
    def test_two_scenario(self, two_scenario):
        assert scenario_cost_floors(two_scenario) == pytest.approx([2.0, 1.0])

    def test_three_scenario(self, three_scenario):
        assert scenario_cost_floors(three_scenario) == pytest.approx([3.0, 2.0, 2.0])

    def test_unsatisfiable_scenario_is_infinite(self):
        inst = single_row_instance([1.0], [[0.0], [-1.0]], [1.0, 1.0], 0.5, "impossible-row")
        floors = scenario_cost_floors(inst)
        assert np.isinf(floors[0])
        assert floors[1] == pytest.approx(1.0)

    def test_mask(self, two_scenario):
        floors = scenario_cost_floors(two_scenario)
        assert pin_alpha_mask(floors, 1.5).tolist() == [True, False]
        assert pin_alpha_mask(floors, np.inf).tolist() == [False, False]
        assert pin_alpha_mask(floors, 0.5).tolist() == [True, True]

    def test_pinned_scenarios_violated_at_optimum(self):
        # if satisfying scenario i costs more than the optimum, the optimum
        # must violate scenario i
        for inst, sol in small_corpus(10):
            res = brute_force_optimal(inst)
            mask = pin_alpha_mask(scenario_cost_floors(inst), res.v_star)
            worst = g_max_all(inst, res.x_star)
            assert np.all(worst[mask] > -1e-6)
