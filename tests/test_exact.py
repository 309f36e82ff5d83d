"""Exact enumeration oracles and the conservativeness sandwich."""

import itertools
import math

import numpy as np
import pytest

from cvarscale import CcpInstance, Domain, ScalingVector, Scenario, Tolerances, chance_feasible, exact
from cvarscale.bench import GeneratorConfig, generate
from cvarscale.conic import SolveStatus, solve_lp
from cvarscale.cvar import solve_cvar, solve_scaled_cvar
from cvarscale.errors import InfeasibleProblem, SolverFailure, TooLarge
from cvarscale.exact import brute_force_optimal, grid_brute_force, minimal_support_size
from cvarscale.model import _domain_lp
from cvarscale.scaling import scaling_heuristic
from cvarscale.sca import hybrid_refine, sequential_convex
from tests.conftest import single_row_instance
from tests.test_acceptance import RUN_TOL, _mixed_instance
from tests.test_scaling import small_corpus


class TestSubsetEnumeration:
    def test_two_scenario(self, two_scenario):
        res = brute_force_optimal(two_scenario)
        assert res.v_star == pytest.approx(1.0)
        assert res.x_star == pytest.approx([0.0, 1.0])
        assert res.satisfied_set == (2,)

    def test_three_scenario(self, three_scenario):
        res = brute_force_optimal(three_scenario)
        assert res.v_star == pytest.approx(2.0)
        assert res.x_star == pytest.approx([0.0, 1.0])
        assert res.satisfied_set == (2, 3)

    def test_subset_count_is_binomial(self, three_scenario):
        # N = 3, k = 2.  The walk solves prefix (1) cold, value 3 (x1 >= 1);
        # leaves (1,2) and (1,3), both 3; prefix (2), value 2 < 3, so it is
        # kept; leaf (2,3), value 2.  Prefix (3) has no later scenario to
        # reach k and is never solved: 5 LPs.  The full tree has C(N+1, k)
        # nodes, the unsolved domain-only root among them.
        res = brute_force_optimal(three_scenario)
        k = minimal_support_size(3, three_scenario.epsilon)
        assert res.subproblems_solved == 5
        assert res.subproblems_solved <= math.comb(3 + 1, k) - 1

    def test_single_scenario_subsets(self):
        # high risk level: single-scenario subsets suffice
        inst = single_row_instance(
            [1.0], [[-1.0], [-2.0]], [1.0, 1.0], 0.6, "loose"
        )
        res = brute_force_optimal(inst)
        assert res.v_star == pytest.approx(0.5)  # satisfy the steeper row
        # k = 1: the leaves (1) and (2) are the root's children, so both are
        # solved and nothing is pruned: 2 LPs, C(N+1, k) - 1 = C(3, 1) - 1
        assert res.subproblems_solved == 2
        assert res.subproblems_solved <= math.comb(2 + 1, 1) - 1

    def test_size_cap(self, two_scenario):
        with pytest.raises(TooLarge):
            brute_force_optimal(two_scenario, max_scenarios=1)

    def test_infeasible_when_rows_conflict(self):
        inst = single_row_instance([1.0], [[0.0], [0.0]], [1.0, 2.0], 0.4, "conflict")
        with pytest.raises(InfeasibleProblem):
            brute_force_optimal(inst)

    def test_general_probabilities_minimal_subsets(self):
        # p = (0.5, 0.3, 0.2), eps = 0.55 (need mass 0.45): minimal subsets
        # are {1} and {2,3}
        scen = (
            Scenario(W=[[-1.0]], d=[1.0], p=0.5),
            Scenario(W=[[-1.0]], d=[2.0], p=0.3),
            Scenario(W=[[-1.0]], d=[3.0], p=0.2),
        )
        inst = CcpInstance(c=[1.0], scenarios=scen, epsilon=0.55,
                           domain=Domain.nonnegative(1))
        res = brute_force_optimal(inst)
        assert res.subproblems_solved == 2
        assert res.v_star == pytest.approx(1.0)
        assert res.satisfied_set == (1,)

    def test_unequal_probabilities_walk_lexicographically(self, monkeypatch):
        # p = (0.3, 0.2, 0.3, 0.2), eps = 0.5: the minimal subsets are (1,2),
        # (1,3), (1,4), (2,3), (3,4) in lexicographic order.  Rows 2 and 3
        # conflict with row 1, and c = 0 ties every feasible subset, so the
        # first feasible leaf wins: (1,4), where integer mask order would
        # give (2,3)
        inst = CcpInstance(
            c=[0.0],
            scenarios=(
                Scenario(W=[[-1.0]], d=[1.0], p=0.3),    # x >= 1
                Scenario(W=[[1.0]], d=[0.0], p=0.2),     # x <= 0
                Scenario(W=[[1.0]], d=[-0.5], p=0.3),    # x <= 0.5
                Scenario(W=[[-1.0]], d=[0.0], p=0.2),    # x >= 0
            ),
            epsilon=0.5, domain=Domain.box([-5.0], [5.0]),
        )
        subsets = _spy_subsets(inst, monkeypatch)
        res = brute_force_optimal(inst)
        assert res.satisfied_set == (1, 4)
        # 0-based: prefix (0,) and its leaves in order, then prefixes (1,) and
        # (2,), which tie at 0 and are pruned; (3,) cannot reach the mass
        assert subsets == [(0,), (0, 1), (0, 2), (0, 3), (1,), (2,)]


class TestGridOracle:
    def test_line_instance(self, line_four):
        res = grid_brute_force(line_four, [[float(v)] for v in range(6)])
        assert res.v_star == pytest.approx(0.0)
        assert res.x_star == pytest.approx([0.0])

    def test_zero_offset_variant(self, line_four_zero_offset):
        res = grid_brute_force(line_four_zero_offset, [[float(v)] for v in range(6)])
        assert res.v_star == pytest.approx(0.0)

    def test_empty_candidates(self, line_four):
        with pytest.raises(InfeasibleProblem):
            grid_brute_force(line_four, [])

    def test_no_feasible_candidate(self):
        inst = single_row_instance([1.0], [[0.0], [0.0]], [1.0, 2.0], 0.4, "conflict")
        with pytest.raises(InfeasibleProblem):
            grid_brute_force(inst, [[0.0], [1.0]])

    def test_candidates_must_respect_bounds(self, line_four):
        with pytest.raises(InfeasibleProblem):
            grid_brute_force(line_four, [[-1.0]])


class TestSandwich:
    def test_scaled_values_dominate_optimum(self):
        rng = np.random.default_rng(21)
        for inst, cvar_sol in small_corpus(10):
            res = brute_force_optimal(inst)
            assert res.v_star <= cvar_sol.objective + 1e-9
            for _ in range(5):
                alpha = ScalingVector(rng.uniform(1.0, 30.0, size=inst.N))
                scaled = solve_scaled_cvar(inst, alpha)
                if scaled.optimal:
                    assert res.v_star <= scaled.objective + 1e-7

    def test_iterative_methods_between_optimum_and_plain(self):
        tol = Tolerances(delta2=0.0)
        for inst, cvar_sol in small_corpus(6):
            v_star = brute_force_optimal(inst).v_star
            for trace in (
                scaling_heuristic(inst, cvar_sol.x, tol),
                sequential_convex(inst, cvar_sol.x, tol),
                hybrid_refine(inst, cvar_sol.x, tol),
            ):
                assert v_star - 1e-6 <= trace.incumbent.objective
                assert trace.incumbent.objective <= cvar_sol.objective + 1e-9


# ---------------------------------------------------------------------------
# Differential test: the walk against the enumeration it replaced
# ---------------------------------------------------------------------------


def _reference_subsets(instance):
    """The minimal subsets as the replaced enumeration listed them.

    Equal probabilities gave ``itertools.combinations``; unequal ones walked
    subset-sum masks in integer order, sorted here into the lexicographic
    order the walk keeps.
    """
    p = instance.probs
    N = instance.N
    need = 1.0 - instance.epsilon
    if np.allclose(p, p[0], rtol=0, atol=1e-12):
        yield from itertools.combinations(range(N), minimal_support_size(N, instance.epsilon))
        return
    sums = np.zeros(1)
    mins = np.full(1, np.inf)
    for pi in p:
        sums = np.concatenate([sums, sums + pi])
        mins = np.concatenate([mins, np.minimum(mins, pi)])
    masks = np.flatnonzero((sums >= need - 1e-12) & (sums - mins < need - 1e-12))
    yield from sorted(tuple(i for i in range(N) if int(m) >> i & 1) for m in masks)


def _reference_optimal(instance):
    """One cold LP per minimal subset; returns (v*, x*, subset, accepted subsets)."""
    best_obj, best_x, best_subset, accepted = np.inf, None, None, []
    for subset in _reference_subsets(instance):
        keep = np.zeros(instance.N, dtype=bool)
        keep[list(subset)] = True
        rows = np.repeat(keep, instance.J)
        res = solve_lp(_domain_lp(instance, instance.c, instance.w_stack[rows],
                                  -instance.d_stack[rows]))
        if res.status == SolveStatus.OPTIMAL and res.objective < best_obj - 1e-12:
            best_obj, best_x, best_subset = res.objective, res.z, subset
            accepted.append(subset)
        elif res.status == SolveStatus.UNBOUNDED:
            raise SolverFailure("unbounded subset LP")
    if best_x is None:
        raise InfeasibleProblem("every minimal-subset LP is infeasible")
    return best_obj, best_x, best_subset, accepted


def _first_copy(instance, A, b):
    """The scenario of each J-row block of (A, b), as the first scenario with those rows."""
    J = instance.J
    W, r = instance.w_stack, -instance.d_stack
    for j in range(0, A.shape[0], J):
        yield next(i for i in range(instance.N)
                   if np.array_equal(W[i * J:(i + 1) * J], A[j:j + J])
                   and np.array_equal(r[i * J:(i + 1) * J], b[j:j + J]))


def _spy_subsets(instance, monkeypatch):
    """Record, in call order, the scenario prefix of every LP the walk solves.

    Each LP is the domain rows, then the rows of its scenarios in order; the
    prefix is read back by matching row blocks (the first match wins, so
    duplicated scenarios read as their first copy).
    """
    n_dom = _domain_lp(instance, instance.c).A.shape[0]
    seen = []

    def spy(spec, **kw):
        seen.append(tuple(_first_copy(instance, spec.A[n_dom:], spec.b[n_dom:])))
        return solve_lp(spec, **kw)

    monkeypatch.setattr(exact, "solve_lp", spy)
    return seen


def _agree_with_reference(instance, monkeypatch):
    """Same v*, same satisfied set, a chance-feasible x*, and every leaf the
    reference accepted was solved by the walk (none pruned)."""
    with monkeypatch.context() as m:
        solved = _spy_subsets(instance, m)
        res = brute_force_optimal(instance)
    v, _, subset, accepted = _reference_optimal(instance)
    assert res.v_star == pytest.approx(v, rel=1e-9, abs=1e-9)
    assert res.satisfied_set == tuple(i + 1 for i in subset)
    assert float(instance.c @ res.x_star) == pytest.approx(res.v_star, rel=1e-9, abs=1e-9)
    assert chance_feasible(instance, res.x_star, Tolerances().feas_tol)
    assert res.subproblems_solved == len(solved)
    J = instance.J
    rows = [np.concatenate([np.arange(i * J, (i + 1) * J) for i in t]) for t in accepted]
    assert {tuple(_first_copy(instance, instance.w_stack[r], -instance.d_stack[r]))
            for r in rows} <= set(solved)
    return res


def _copies(instance, repeat, epsilon):
    """Every scenario of ``instance`` ``repeat`` times, equiprobable."""
    scen = tuple(Scenario(W=s.W, d=s.d, p=1.0 / (repeat * instance.N))
                 for s in instance.scenarios for _ in range(repeat))
    return CcpInstance(c=instance.c, scenarios=scen, epsilon=epsilon, domain=instance.domain)


def _reweighted(instance, rng):
    p = rng.uniform(0.5, 1.5, size=instance.N)
    scen = tuple(Scenario(W=s.W, d=s.d, p=float(q)) for s, q in zip(instance.scenarios, p / p.sum()))
    return CcpInstance(c=instance.c, scenarios=scen, epsilon=instance.epsilon,
                       domain=instance.domain)


@pytest.mark.slow
def test_walk_matches_reference_on_acceptance_corpus(monkeypatch):
    seed, count = 0, 0
    while count < 200:
        inst = _mixed_instance(seed)
        seed += 1
        if solve_cvar(inst, RUN_TOL).optimal:
            _agree_with_reference(inst, monkeypatch)
            count += 1


class TestWalkMatchesReference:
    def test_duplicated_scenarios_tie_at_n_eps(self, monkeypatch):
        # N = 10, eps = 0.3: k = N (1 - eps) = 7 exactly, and each subset
        # has a twin of equal value
        for s in range(4):
            base = _mixed_instance(2 * s)
            base = CcpInstance(c=base.c, scenarios=base.scenarios[:5], epsilon=0.3,
                               domain=base.domain)
            inst = _copies(base, 2, 0.3)
            assert minimal_support_size(inst.N, inst.epsilon) == 7
            _agree_with_reference(inst, monkeypatch)

    def test_three_rows_per_scenario(self, monkeypatch):
        for seed in range(4):
            inst = generate(GeneratorConfig(family="covering", n=4, N=10, J=3, epsilon=0.300333,
                                            seed=seed, budget_fraction=0.6, cost_range=(-5, 10)))
            _agree_with_reference(inst, monkeypatch)

    def test_unequal_probabilities(self, monkeypatch):
        rng = np.random.default_rng(5)
        for seed in range(6):
            _agree_with_reference(_reweighted(_mixed_instance(seed), rng), monkeypatch)

    def test_unbounded_domain_bounded_leaves(self, monkeypatch):
        # min x1 + x2 over the plane: rows (1, t) . x >= d alone leave the
        # cost unbounded (the prefixes of the first five scenarios), and every
        # 6-subset holds one of the last two rows (s, 1) . x >= d as well
        rng = np.random.default_rng(11)
        scen = [Scenario(W=[[-1.0, -t]], d=[d], p=1 / 7)
                for t, d in zip(rng.uniform(0.2, 0.8, 5), rng.uniform(0.5, 2.0, 5))]
        scen += [Scenario(W=[[-s, -1.0]], d=[d], p=1 / 7)
                 for s, d in zip(rng.uniform(0.2, 0.8, 2), rng.uniform(0.5, 2.0, 2))]
        inst = CcpInstance(c=[1.0, 1.0], scenarios=tuple(scen), epsilon=0.15,
                           domain=Domain.box([-np.inf] * 2, [np.inf] * 2))
        assert minimal_support_size(7, 0.15) == 6
        statuses = []

        def record(spec, **kw):
            res = solve_lp(spec, **kw)
            statuses.append(res.status)
            return res

        with monkeypatch.context() as m:
            m.setattr(exact, "solve_lp", record)
            brute_force_optimal(inst)
        assert SolveStatus.UNBOUNDED in statuses
        _agree_with_reference(inst, monkeypatch)

    def test_epsilon_within_rounding_of_one(self):
        # the empty subset is the one minimal subset: the domain LP alone
        for probs in ([0.5, 0.5], [0.6, 0.4]):
            inst = single_row_instance([1.0], [[-1.0], [-2.0]], [1.0, 1.0], 1 - 1e-13, "near-one",
                                       probs=probs)
            res = brute_force_optimal(inst)
            assert (res.v_star, res.satisfied_set, res.subproblems_solved) == (0.0, (), 1)
            assert _reference_optimal(inst)[2] == ()

    def test_conflicting_rows(self, monkeypatch):
        # rows x1 + w x2 >= 1 and x1 + w' x2 <= 0, with w, w' in [0, 1) and
        # x2 in [0, 1], cannot both hold: a prefix holding both is infeasible
        rng = np.random.default_rng(3)
        up = [Scenario(W=[[-1.0, -w]], d=[1.0], p=1 / 6) for w in rng.uniform(0, 1, 3)]
        down = [Scenario(W=[[1.0, w]], d=[0.0], p=1 / 6) for w in rng.uniform(0, 1, 3)]
        scen = tuple(s for pair in zip(up, down) for s in pair)
        for eps, feasible in ((0.5, True), (1 / 3, False)):
            inst = CcpInstance(c=[1.0, 0.5], scenarios=scen, epsilon=eps,
                               domain=Domain.box([-2.0, 0.0], [2.0, 1.0]))
            if feasible:  # k = 3: only the all-up or all-down subsets
                res = _agree_with_reference(inst, monkeypatch)
                assert res.satisfied_set in {(1, 3, 5), (2, 4, 6)}
            else:  # k = 4: every subset holds both kinds
                with pytest.raises(InfeasibleProblem):
                    _reference_optimal(inst)
                with pytest.raises(InfeasibleProblem):
                    brute_force_optimal(inst)
