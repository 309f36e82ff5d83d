"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The random corpus, oracle values, and method traces are computed once
per session and shared across criteria; the stated runtime budgets are
asserted on the stages they cover.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from cvarscale import ScalingVector, Tolerances, chance_feasible, g_max_all, save_instance
from cvarscale.alsox import alsox_sharp, alsox_sharp_scaled
from cvarscale.bench import GeneratorConfig, generate, run_experiment
from cvarscale.cli import main as cli_main
from cvarscale.conic import LinearProgramSpec, SocCone, SocpSpec, SolveStatus, solve_lp, solve_socp
from cvarscale.cvar import scaled_feasibility_at_x, solve_cvar, solve_scaled_cvar
from cvarscale.exact import brute_force_optimal, grid_brute_force
from cvarscale.sca import hybrid_refine, sequential_convex
from cvarscale.scaling import construct_scaling, scaling_heuristic


@contextlib.contextmanager
def verdict(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


# ---------------------------------------------------------------------------
# Shared corpus: 200 mixed instances with feasible plain approximations
# ---------------------------------------------------------------------------

RUN_TOL = Tolerances(delta2=0.0, max_iter=10)


@dataclass
class Corpus:
    instances: list = field(default_factory=list)   # (instance, cvar solution)
    oracles: list = field(default_factory=list)      # exact results
    traces: list = field(default_factory=list)       # (alg1, alg2, alg3) traces
    build_seconds: float = 0.0
    method_seconds: float = 0.0


def _mixed_instance(seed: int, data_seed: int | None = None):
    """Corpus instance ``seed``; ``data_seed`` re-draws its data in the same shape."""
    fam = "portfolio" if seed % 2 == 0 else "covering"
    r = np.random.default_rng(seed ^ 0xABCD)
    cfg = GeneratorConfig(
        family=fam,
        n=int(r.integers(2, 9)),
        N=int(r.integers(8, 13)),
        J=1 if fam == "portfolio" else int(r.integers(1, 4)),
        epsilon=float(r.choice([0.200333, 0.300333])),
        seed=seed if data_seed is None else data_seed,
        budget_fraction=0.6,
        cost_range=(-5, 10) if fam == "covering" else (1, 100),
    )
    return generate(cfg)


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    out = Corpus()
    t0 = time.perf_counter()
    seed = 0
    while len(out.instances) < 200:
        inst = _mixed_instance(seed)
        seed += 1
        sol = solve_cvar(inst, RUN_TOL)
        if sol.optimal:
            out.instances.append((inst, sol))
    for inst, _ in out.instances:
        out.oracles.append(brute_force_optimal(inst, tol=RUN_TOL))
    out.build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    for inst, sol in out.instances:
        out.traces.append(
            (
                scaling_heuristic(inst, sol.x, RUN_TOL),
                sequential_convex(inst, sol.x, RUN_TOL),
                hybrid_refine(inst, sol.x, RUN_TOL),
            )
        )
    out.method_seconds = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# Criterion 1: golden suite on the hand-checkable instances
# ---------------------------------------------------------------------------


def test_criterion_1_golden_suite(
    two_scenario, line_four, line_four_zero_offset, line_four_tight,
    three_scenario, three_scenario_tight,
):
    with verdict(1, "golden suite"):
        t0 = time.perf_counter()

        # two-scenario instance: exact 1, plain 2, scaled curve 1 + 3/a
        assert brute_force_optimal(two_scenario).v_star == pytest.approx(1.0, abs=1e-9)
        assert solve_cvar(two_scenario).objective == pytest.approx(2.0, abs=1e-9)
        for a in (4.0, 6.0, 10.0, 50.0):
            got = solve_scaled_cvar(two_scenario, ScalingVector([1.0, a])).objective
            assert got == pytest.approx(1.0 + 3.0 / a, abs=1e-6)
        for a in (1.0, 2.0, 2.9):
            got = solve_scaled_cvar(two_scenario, ScalingVector([1.0, a])).objective
            assert got == pytest.approx(2.0, abs=1e-6)

        # the 1-D line instance: grid optimum 0, plain infeasible, exact factors
        grid = [[float(v)] for v in range(6)]
        assert grid_brute_force(line_four, grid).v_star == pytest.approx(0.0)
        assert solve_cvar(line_four).status == SolveStatus.INFEASIBLE
        cons = construct_scaling(line_four, [0.0])
        assert cons.alpha_hat.alpha == pytest.approx([1.0, 5.0, 5.0, 5.0], abs=1e-12)
        assert cons.beta_hat == pytest.approx(-10.0, abs=1e-12)
        assert cons.s_hat == pytest.approx([20.0, 0.0, 0.0, 0.0], abs=1e-12)

        # variants that scaling provably cannot help, on the relevant grid
        for x in range(6):
            assert scaled_feasibility_at_x(line_four_zero_offset, [float(x)]) is None
            assert scaled_feasibility_at_x(line_four_tight, [float(x)]) is None

        # three-scenario instance: exact 2, plain 3, construction at (0, 1.1)
        assert brute_force_optimal(three_scenario).v_star == pytest.approx(2.0, abs=1e-9)
        assert solve_cvar(three_scenario).objective == pytest.approx(3.0, abs=1e-9)
        cons = construct_scaling(three_scenario, [0.0, 1.1])
        assert cons.alpha_bar == pytest.approx(5.0, abs=1e-9)
        assert cons.beta_hat == pytest.approx(-5.0, abs=1e-9)
        assert cons.s_hat[0] == pytest.approx(6.0, abs=1e-9)
        scaled = solve_scaled_cvar(three_scenario, cons.alpha_hat)
        assert scaled.objective <= 2.2 + 1e-6

        # tightened risk level: no factor grid up to 1e4 beats the plain value
        best = np.inf
        for a in (1.0, 3.0, 10.0, 100.0, 1e3, 1e4):
            for alpha in ([1.0, a, a], [a, a, a], [a, 1.0, 1.0]):
                sol = solve_scaled_cvar(three_scenario_tight, ScalingVector(alpha))
                if sol.optimal:
                    best = min(best, sol.objective)
        assert best == pytest.approx(3.0, abs=1e-6)

        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"golden suite took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 2: reference scaling curve through the command line
# ---------------------------------------------------------------------------


def test_criterion_2_reference_curve(two_scenario, tmp_path):
    with verdict(2, "reference curve"):
        path = tmp_path / "two.json"
        save_instance(two_scenario, path)
        out = tmp_path / "sweep.csv"
        rc = cli_main(["sweep", str(path), "--scenario", "2",
                       "--grid", "1,2,3.1,4,10,50", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()[1:]
        got = [float(line.split(",")[1]) for line in lines]
        want = [2.0, 2.0, 1.0 + 3.0 / 3.1, 1.75, 1.3, 1.06]
        assert got == pytest.approx(want, abs=1e-6)


# ---------------------------------------------------------------------------
# Criteria 3-5: sandwich, construction exactness, monotone traces
# ---------------------------------------------------------------------------


def test_criterion_3_sandwich(corpus):
    with verdict(3, "sandwich"):
        assert len(corpus.instances) == 200
        for (inst, cvar_sol), oracle, traces in zip(
            corpus.instances, corpus.oracles, corpus.traces
        ):
            for trace in traces:
                value = trace.incumbent.objective
                assert oracle.v_star - 1e-6 <= value, inst.name
                assert value <= cvar_sol.objective + 1e-9, inst.name
        elapsed = corpus.build_seconds + corpus.method_seconds
        print(
            f"[acceptance]   sandwich stage: build {corpus.build_seconds:.1f}s + "
            f"methods {corpus.method_seconds:.1f}s = {elapsed:.1f}s"
        )
        assert elapsed < 120.0, f"sandwich stage took {elapsed:.1f}s"


def test_criterion_4_construction_exactness(corpus):
    with verdict(4, "construction exactness"):
        strict = []
        for (inst, _), oracle in zip(corpus.instances, corpus.oracles):
            worst = g_max_all(inst, oracle.x_star)
            satisfied = worst <= 1e-6
            if np.all(worst[satisfied] < -1e-6) and (
                inst.probs[satisfied].sum() > 1.0 - inst.epsilon
            ):
                strict.append((inst, oracle))
        assert len(strict) >= 30, f"only {len(strict)} strict instances"
        for inst, oracle in strict:
            cons = construct_scaling(inst, oracle.x_star, strict_threshold=-1e-6)
            value = solve_scaled_cvar(inst, cons.alpha_hat).objective
            assert value == pytest.approx(oracle.v_star, abs=1e-6), inst.name
        print(f"[acceptance]   ({len(strict)} instances pass the strict filter)")


def test_criterion_5_monotone_traces(corpus):
    with verdict(5, "monotone traces"):
        for (inst, _), traces in zip(corpus.instances, corpus.traces):
            for trace in traces:
                assert np.all(np.diff(trace.objectives) <= 1e-9), inst.name
            hybrid = traces[2]
            if hybrid.handoff_index is not None and hybrid.handoff_index > 0:
                before = hybrid.records[hybrid.handoff_index - 1].objective
                after = hybrid.records[hybrid.handoff_index].objective
                assert after <= before + 1e-9, inst.name


# ---------------------------------------------------------------------------
# Criterion 6: budget bisection contract
# ---------------------------------------------------------------------------


def test_criterion_6_bisection_contract(corpus):
    with verdict(6, "bisection contract"):
        delta_A = RUN_TOL.delta_A
        for (inst, cvar_sol), oracle in zip(corpus.instances, corpus.oracles):
            plain = alsox_sharp(inst, tol=RUN_TOL)
            scaled = alsox_sharp_scaled(inst, tol=RUN_TOL)
            assert oracle.v_star - 1e-6 <= plain.t_upper, inst.name
            assert plain.t_upper <= cvar_sol.objective + delta_A + 1e-9, inst.name
            assert chance_feasible(inst, plain.x, RUN_TOL.feas_tol), inst.name
            gap0 = plain.bounds_history[0][1] - plain.bounds_history[0][0]
            cap = math.ceil(math.log2(max(gap0 / delta_A, 1.0)))
            assert len(plain.steps) <= max(cap, 0), inst.name
            assert scaled.t_upper <= plain.t_upper + 1e-9, inst.name


# ---------------------------------------------------------------------------
# Criterion 7: desk-scale trend check
# ---------------------------------------------------------------------------


def test_criterion_7_trend():
    with verdict(7, "trend check"):
        t0 = time.perf_counter()
        methods = ["cvar", "alg1", "alg2", "alg3", "alsox", "alsox-scaled"]
        # small iteration budget: the asserted properties are independent of
        # it.  With one BLAS thread on a shared 2-CPU machine this stage took
        # 4.1 s; at Tolerances() (max_iter=25) it took 21.0 s
        tol = Tolerances(max_iter=4)
        means = {}
        for eps in (0.100333, 0.300333):
            instances = [
                generate(GeneratorConfig(family="portfolio", n=20, N=200,
                                         epsilon=eps, seed=s))
                for s in (1, 2, 3, 4, 5)
            ]
            rows = run_experiment(instances, methods, tol)
            for row in rows:
                assert not np.isnan(row.value), (row.instance, row.method, row.error)
                assert row.improvement_pct >= -1e-6, (row.instance, row.method)
                assert row.feasible, (row.instance, row.method)
            means[eps] = float(
                np.mean([r.improvement_pct for r in rows if r.method == "alg1"])
            )
        elapsed = time.perf_counter() - t0
        print(
            f"[acceptance]   mean alg1 improvement: "
            f"eps=0.100333 -> {means[0.100333]:.3f}%, "
            f"eps=0.300333 -> {means[0.300333]:.3f}% "
            f"(positive: {all(v > 0 for v in means.values())}, "
            f"grows with eps: {means[0.300333] > means[0.100333]}) "
            f"[{elapsed:.0f}s]"
        )
        assert elapsed < 300.0, f"trend stage took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 8: solver unit quality
# ---------------------------------------------------------------------------


def test_criterion_8_solver_quality():
    with verdict(8, "solver quality"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n, m = int(rng.integers(3, 12)), int(rng.integers(5, 20))
            A = rng.normal(size=(m, n))
            b = A @ rng.uniform(-1, 1, size=n) + rng.uniform(0.2, 1.0, size=m)
            spec = LinearProgramSpec(c=rng.normal(size=n), A=A, b=b,
                                     lb=-5 * np.ones(n), ub=5 * np.ones(n))
            res = solve_lp(spec)
            assert res.status == SolveStatus.OPTIMAL
            assert res.duality_gap <= 1e-8 * (1.0 + abs(res.objective))
            assert res.dual_residual <= 1e-8
            assert res.primal_residual <= 1e-8
            again = solve_lp(spec)
            assert again.objective == res.objective
            assert np.array_equal(again.z, res.z)

        for _ in range(50):
            n = int(rng.integers(4, 14))
            x0 = rng.normal(size=n)
            cones = []
            for _ in range(int(rng.integers(2, 6))):
                F = rng.normal(size=(int(rng.integers(1, 4)), n))
                f = rng.normal(size=F.shape[0])
                g = rng.normal(size=n)
                h = float(np.linalg.norm(F @ x0 + f) - g @ x0 + rng.uniform(0.5, 2.0))
                cones.append(SocCone(F=F, f=f, g=g, h=h))
            spec = SocpSpec(c=rng.normal(size=n), A=np.zeros((0, n)), b=[],
                            cones=tuple(cones), lb=-5 * np.ones(n), ub=5 * np.ones(n))
            res = solve_socp(spec)
            assert res.status == SolveStatus.OPTIMAL
            assert res.primal_residual <= 1e-8
            assert res.dual_residual <= 1e-8
            assert res.duality_gap <= 1e-8 * (1.0 + abs(res.objective)) + 1e-8
            again = solve_socp(spec)
            assert again.objective == res.objective
