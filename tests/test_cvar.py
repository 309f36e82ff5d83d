"""Plain and scaled approximations, fixed-x feasibility, tail evaluation."""

import numpy as np
import pytest

from cvarscale import ScalingVector, chance_feasible
from cvarscale.conic import SolveStatus
from cvarscale.cvar import (
    evaluate_cvar_at_x,
    scaled_feasibility_at_x,
    solve_cvar,
    solve_scaled_cvar,
)
from cvarscale.errors import DimensionMismatch
from cvarscale.exact import brute_force_optimal


class TestPlainApproximation:
    def test_two_scenario_value(self, two_scenario):
        sol = solve_cvar(two_scenario)
        assert sol.optimal
        assert sol.objective == pytest.approx(2.0, abs=1e-8)

    def test_three_scenario_value(self, three_scenario):
        sol = solve_cvar(three_scenario)
        assert sol.optimal
        assert sol.objective == pytest.approx(3.0, abs=1e-8)

    def test_line_instance_infeasible(self, line_four):
        sol = solve_cvar(line_four)
        assert sol.status == SolveStatus.INFEASIBLE
        assert sol.x is None

    def test_solution_invariants(self, two_scenario):
        sol = solve_cvar(two_scenario)
        tol = 1e-6
        assert sol.beta <= tol
        assert np.all(sol.s >= -tol)
        risk = two_scenario.epsilon * sol.beta + float(
            np.array([s.p for s in two_scenario.scenarios]) @ sol.s
        )
        assert risk <= tol

    def test_feasibility_transfer(self, two_scenario, three_scenario):
        for inst in (two_scenario, three_scenario):
            sol = solve_cvar(inst)
            assert chance_feasible(inst, sol.x, 1e-6)

    def test_tail_value_consistent_at_solution(self, two_scenario, three_scenario):
        for inst in (two_scenario, three_scenario):
            sol = solve_cvar(inst)
            assert evaluate_cvar_at_x(inst, sol.x) <= 1e-6


class TestScaledApproximation:
    def test_break_even_region(self, two_scenario):
        for a in (1.0, 2.0, 2.9):
            sol = solve_scaled_cvar(two_scenario, ScalingVector([1.0, a]))
            assert sol.objective == pytest.approx(2.0, abs=1e-8)

    def test_reciprocal_branch(self, two_scenario):
        sol = solve_scaled_cvar(two_scenario, ScalingVector([1.0, 6.0]))
        assert sol.objective == pytest.approx(1.5, abs=1e-8)
        assert sol.x == pytest.approx([0.0, 1.5], abs=1e-8)

    def test_all_ones_matches_plain(self, two_scenario, three_scenario):
        for inst in (two_scenario, three_scenario):
            a = solve_scaled_cvar(inst, ScalingVector.ones(inst.N)).objective
            b = solve_cvar(inst).objective
            assert a == pytest.approx(b, abs=1e-10)

    def test_monotone_along_ray(self, two_scenario):
        values = [
            solve_scaled_cvar(two_scenario, ScalingVector([1.0, a])).objective
            for a in (1, 2, 4, 10, 50)
        ]
        assert all(v2 <= v1 + 1e-9 for v1, v2 in zip(values, values[1:]))

    def test_alpha_length_checked(self, two_scenario):
        with pytest.raises(DimensionMismatch):
            solve_scaled_cvar(two_scenario, ScalingVector([1.0, 1.0, 1.0]))

    def test_conservative_for_random_factors(self, two_scenario, three_scenario):
        # scaled values never beat the exact optimum
        rng = np.random.default_rng(9)
        for inst in (two_scenario, three_scenario):
            v_star = brute_force_optimal(inst).v_star
            for _ in range(50):
                alpha = ScalingVector(rng.uniform(1.0, 100.0, size=inst.N))
                sol = solve_scaled_cvar(inst, alpha)
                if sol.optimal:
                    assert sol.objective >= v_star - 1e-7


class TestFixedPointFeasibility:
    def test_lp_rows_match_loop_construction(self, monkeypatch):
        from cvarscale import cvar
        from cvarscale.conic import solve_lp
        from tests.conftest import single_row_instance

        inst = single_row_instance([1], [[-1], [2], [0.5], [3]], [1, -4, 0.5, -1], 0.3, "rows")
        seen = []
        monkeypatch.setattr(cvar, "solve_lp", lambda spec: seen.append(spec) or solve_lp(spec))
        scaled_feasibility_at_x(inst, [1.0])
        worst = np.array([0.0, -2.0, 1.0, 2.0])
        N = inst.N
        rows = np.zeros((N + 2, 2 * N + 1))
        for i in range(N):
            rows[i, i] = worst[i]
            rows[i, N] = -1.0
            rows[i, N + 1 + i] = -1.0
        rows[N, N] = inst.epsilon
        rows[N, N + 1 :] = inst.probs
        rows[N + 1, N] = -1.0
        assert np.array_equal(seen[0].A, rows)
        assert seen[0].b.tolist() == [0.0] * (N + 1) + [1e9]

    def test_line_instance_at_origin(self, line_four):
        triple = scaled_feasibility_at_x(line_four, [0.0])
        assert triple is not None
        alpha, beta, s = triple
        assert alpha == pytest.approx([1.0, 5.0, 5.0, 5.0], abs=1e-7)
        assert beta == pytest.approx(-10.0, abs=1e-7)
        assert s == pytest.approx([20.0, 0.0, 0.0, 0.0], abs=1e-6)

    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    def test_zero_offset_variant_never_feasible(self, line_four_zero_offset, x):
        assert scaled_feasibility_at_x(line_four_zero_offset, [x]) is None

    @pytest.mark.parametrize("x", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    def test_tight_risk_level_never_feasible(self, line_four_tight, x):
        assert scaled_feasibility_at_x(line_four_tight, [x]) is None

    def test_triple_satisfies_constraints(self, line_four):
        alpha, beta, s = scaled_feasibility_at_x(line_four, [0.0])
        worst = np.array([10.0, -2.0, -2.0, -2.0])
        assert np.all(s + beta >= alpha * worst - 1e-7)
        assert beta <= 1e-9
        p = np.array([0.25] * 4)
        assert line_four.epsilon * beta + p @ s <= 1e-7


class TestTailEvaluation:
    def test_six_point_example(self, six_losses):
        assert evaluate_cvar_at_x(six_losses, [0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_losses(self):
        from tests.conftest import single_row_instance

        inst = single_row_instance([1], [[0]] * 4, [3.5] * 4, 0.3, "constant")
        assert evaluate_cvar_at_x(inst, [0.0]) == pytest.approx(3.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_breakpoint_sweep(self, seed):
        from tests.conftest import single_row_instance

        rng = np.random.default_rng(100 + seed)
        N = int(rng.integers(2, 30))
        vals = rng.integers(-5, 6, size=N).astype(float)  # many ties
        probs = rng.dirichlet(np.ones(N)).tolist()
        eps = float(rng.uniform(0.05, 0.95))
        inst = single_row_instance([1], [[0]] * N, vals, eps, "sweep", probs=probs)
        p = inst.probs
        sweep = min(b + float(p @ np.maximum(vals - b, 0.0)) / eps for b in np.unique(vals))
        got = evaluate_cvar_at_x(inst, [0.0])
        assert got == pytest.approx(sweep, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_grid_oracle(self, seed):
        from tests.conftest import single_row_instance

        rng = np.random.default_rng(seed)
        vals = rng.normal(scale=3.0, size=5)
        eps = float(rng.uniform(0.1, 0.9))
        inst = single_row_instance([1], [[0]] * 5, vals, eps, "random-5")
        got = evaluate_cvar_at_x(inst, [0.0])
        # independent check: dense minimization over the multiplier
        betas = np.linspace(vals.min() - 1.0, vals.max() + 1.0, 40001)
        hinge = np.maximum(vals[None, :] - betas[:, None], 0.0).mean(axis=1)
        oracle = float(np.min(betas + hinge / eps))
        assert got == pytest.approx(oracle, abs=1e-3)
        assert got <= oracle + 1e-12  # breakpoint search is exact, the grid is not
