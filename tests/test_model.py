"""Data model: validation, evaluation, scaling, normalization, certificates."""

import json

import numpy as np
import pytest

from cvarscale import (
    CcpInstance,
    Domain,
    RegularityStatus,
    ScalingVector,
    Scenario,
    Tolerances,
    certificate_point,
    chance_feasible,
    epsilon_regularity_check,
    evaluate_g,
    g_max,
    g_max_all,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    normalize_covering_rows,
    save_instance,
    scale_scenarios,
    validate,
    violation_probability,
    with_extra_domain_rows,
)
from cvarscale.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotCovering,
    ProbabilityError,
    RiskLevelError,
    ScalingOutOfRange,
    ToleranceError,
)

TOL = 1e-9


class TestValidate:
    def test_ok(self, two_scenario):
        validate(two_scenario)

    def test_probabilities_must_sum_to_one(self, two_scenario):
        bad = CcpInstance(
            c=two_scenario.c,
            scenarios=(
                Scenario(W=[[-1, 0]], d=[1], p=0.5),
                Scenario(W=[[-1, -1]], d=[1], p=0.4),
            ),
            epsilon=two_scenario.epsilon,
            domain=two_scenario.domain,
        )
        with pytest.raises(ProbabilityError):
            validate(bad)

    def test_nonpositive_probability(self, two_scenario):
        bad = CcpInstance(
            c=two_scenario.c,
            scenarios=(
                Scenario(W=[[-1, 0]], d=[1], p=1.0),
                Scenario(W=[[-1, -1]], d=[1], p=0.0),
            ),
            epsilon=two_scenario.epsilon,
            domain=two_scenario.domain,
        )
        with pytest.raises(ProbabilityError):
            validate(bad)

    @pytest.mark.parametrize("eps", [1.2, 0.0, 1.0, -0.1])
    def test_risk_level_range(self, two_scenario, eps):
        bad = CcpInstance(
            c=two_scenario.c,
            scenarios=two_scenario.scenarios,
            epsilon=eps,
            domain=two_scenario.domain,
        )
        with pytest.raises(RiskLevelError):
            validate(bad)

    def test_row_count_mismatch(self, two_scenario):
        with pytest.raises(DimensionMismatch):
            validate(
                CcpInstance(
                    c=[1.0],
                    scenarios=(Scenario(W=[[1, 0]], d=[0], p=1.0),),
                    epsilon=0.5,
                    domain=Domain.nonnegative(1),
                )
            )

    def test_tolerances_contract(self):
        with pytest.raises(ToleranceError):
            Tolerances(delta2=0.1)
        with pytest.raises(ToleranceError):
            Tolerances(feas_tol=-1.0)


class TestEvaluation:
    def test_row_values_are_one_based(self, two_scenario, line_four):
        # second scenario of the two-scenario instance at (0,1): 1-x1-x2 = 0
        assert evaluate_g(two_scenario, 2, [0.0, 1.0]) == pytest.approx([0.0])
        # first scenario of the line instance at 0: -9*0+10 = 10
        assert evaluate_g(line_four, 1, [0.0]) == pytest.approx([10.0])

    def test_origin_returns_offsets(self, three_scenario):
        for i in range(1, 4):
            assert evaluate_g(three_scenario, i, [0.0, 0.0]) == pytest.approx(
                [three_scenario.scenarios[i - 1].d[0]]
            )

    def test_index_out_of_range(self, two_scenario):
        with pytest.raises(IndexOutOfRange):
            evaluate_g(two_scenario, 0, [0.0, 0.0])
        with pytest.raises(IndexOutOfRange):
            evaluate_g(two_scenario, 3, [0.0, 0.0])

    def test_dimension_mismatch(self, two_scenario):
        with pytest.raises(DimensionMismatch):
            evaluate_g(two_scenario, 1, [0.0])

    def test_worst_row(self, three_scenario, line_four):
        assert g_max(three_scenario, 1, [0.0, 1.0]) == pytest.approx(1.0)
        assert g_max(line_four, 2, [0.0]) == pytest.approx(-2.0)
        # single-row scenarios: worst row equals the row
        assert g_max(line_four, 1, [1.0]) == pytest.approx(1.0)

    def test_worst_rows_vectorized(self, line_four):
        by_one = [g_max(line_four, i, [0.5]) for i in range(1, 5)]
        assert g_max_all(line_four, [0.5]) == pytest.approx(by_one)

    def test_affine_in_x(self, three_scenario):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x, y = rng.normal(size=2), rng.normal(size=2)
            lam = rng.uniform()
            left = g_max_all(three_scenario, lam * x + (1 - lam) * y)
            # worst-row is not affine, but each row is; compare rowwise
            for i in range(1, 4):
                row = evaluate_g(three_scenario, i, lam * x + (1 - lam) * y)
                mix = lam * evaluate_g(three_scenario, i, x) + (1 - lam) * evaluate_g(
                    three_scenario, i, y
                )
                assert row == pytest.approx(mix, abs=1e-12)
            assert left.shape == (3,)


class TestViolationProbability:
    def test_line_instance_at_zero(self, line_four):
        assert violation_probability(line_four, [0.0], 1e-6) == pytest.approx(0.25)

    def test_strictly_inside(self, two_scenario):
        assert violation_probability(two_scenario, [2.0, 2.0], 1e-6) == 0.0

    def test_three_scenario(self, three_scenario):
        assert violation_probability(three_scenario, [0.0, 1.0], 1e-6) == pytest.approx(1 / 3)

    def test_chance_feasible(self, line_four, three_scenario, three_scenario_tight):
        assert chance_feasible(line_four, [0.0], 1e-6)
        assert chance_feasible(three_scenario, [0.0, 1.0], 1e-6)
        assert chance_feasible(three_scenario_tight, [1.0, 0.0], 1e-6)
        assert not chance_feasible(three_scenario_tight, [0.0, 0.5], 1e-6)


class TestScaling:
    def test_identity(self, two_scenario):
        out = scale_scenarios(two_scenario, ScalingVector.ones(2))
        assert np.allclose(out.w_stack, two_scenario.w_stack)
        assert np.allclose(out.d_stack, two_scenario.d_stack)

    def test_row_is_multiplied(self, two_scenario):
        out = scale_scenarios(two_scenario, ScalingVector([1.0, 4.0]))
        assert np.allclose(out.scenarios[1].W, [[-4.0, -4.0]])
        assert out.scenarios[1].d == pytest.approx([4.0])

    def test_rejects_factor_below_one(self, two_scenario):
        with pytest.raises(ScalingOutOfRange):
            scale_scenarios(two_scenario, ScalingVector([0.5, 1.0]))

    def test_violation_probability_invariant(self, three_scenario):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = rng.uniform(0, 2, size=3 - 1)
            alpha = ScalingVector(rng.uniform(1, 50, size=3))
            scaled = scale_scenarios(three_scenario, alpha)
            worst = g_max_all(three_scenario, x)
            if np.min(np.abs(worst)) < 1e-9:
                continue  # scaling only preserves strict signs
            assert violation_probability(scaled, x, 0.0) == pytest.approx(
                violation_probability(three_scenario, x, 0.0)
            )


class TestNormalization:
    def test_divides_by_offset(self):
        inst = CcpInstance(
            c=[1, 1],
            scenarios=(Scenario(W=[[-2, -2]], d=[4], p=1.0),),
            epsilon=0.5,
            domain=Domain.nonnegative(2),
        )
        out = normalize_covering_rows(inst)
        assert np.allclose(out.scenarios[0].W, [[-0.5, -0.5]])
        assert out.scenarios[0].d == pytest.approx([1.0])

    def test_unit_offsets_unchanged(self, two_scenario):
        out = normalize_covering_rows(two_scenario)
        assert np.allclose(out.w_stack, two_scenario.w_stack)

    def test_rejects_nonpositive_offsets(self, line_four_zero_offset):
        with pytest.raises(NotCovering):
            normalize_covering_rows(line_four_zero_offset)

    def test_preserves_feasibility_exactly(self):
        # rational data so both sides of the comparison are exact
        from fractions import Fraction as F

        W = [[F(-1), F(-2)], [F(-3), F(-1)], [F(-2), F(-2)]]
        d = [F(2), F(3), F(5)]
        inst = CcpInstance(
            c=[1, 1],
            scenarios=tuple(
                Scenario(W=[[float(a) for a in row]], d=[float(b)], p=1 / 3)
                for row, b in zip(W, d)
            ),
            epsilon=0.4,
            domain=Domain.nonnegative(2),
        )
        out = normalize_covering_rows(inst)
        grid = [
            (F(p, 4), F(q, 4)) for p in range(0, 13) for q in range(0, 13)
        ]
        for x in grid:
            sat_raw = sum(
                1 for row, b in zip(W, d) if row[0] * x[0] + row[1] * x[1] + b <= 0
            )
            xf = [float(x[0]), float(x[1])]
            assert chance_feasible(inst, xf, 0.0) == (sat_raw >= 2)
            assert chance_feasible(out, xf, 0.0) == chance_feasible(inst, xf, 0.0)


class TestCertificate:
    def test_exists_for_two_scenario(self, two_scenario):
        x = certificate_point(two_scenario, -1e-5)
        assert x is not None
        assert np.max(g_max_all(two_scenario, x)) <= -1e-5 + 1e-6

    def test_none_for_constant_positive_row(self):
        inst = CcpInstance(
            c=[1.0],
            scenarios=(Scenario(W=[[0.0]], d=[1.0], p=1.0),),
            epsilon=0.5,
            domain=Domain.nonnegative(1),
        )
        assert certificate_point(inst, -1e-5) is None

    def test_none_when_zero_offset_row_pins_origin(self, line_four_zero_offset):
        # the 4x <= 0 row forces x <= 0 strictly, impossible on x >= 0
        pinned = CcpInstance(
            c=line_four_zero_offset.c,
            scenarios=line_four_zero_offset.scenarios,
            epsilon=line_four_zero_offset.epsilon,
            domain=Domain.box([0.0], [0.0]),
        )
        assert certificate_point(pinned, -1e-5) is None

    def test_requires_negative_margin(self, two_scenario):
        with pytest.raises(ToleranceError):
            certificate_point(two_scenario, 0.0)


class TestRegularity:
    def test_equiprobable_pass(self):
        inst = CcpInstance(
            c=[1.0],
            scenarios=tuple(Scenario(W=[[0.0]], d=[0.0], p=1 / 3000) for _ in range(3000)),
            epsilon=0.050333,
            domain=Domain.nonnegative(1),
        )
        assert epsilon_regularity_check(inst) == RegularityStatus.PASS

    def test_equiprobable_integer_product_warns(self, line_four, six_losses):
        assert epsilon_regularity_check(line_four) == RegularityStatus.PERTURB_WARNING
        # 6 scenarios at eps=1/3: 6*(1/3) = 2
        tight = CcpInstance(
            c=six_losses.c,
            scenarios=six_losses.scenarios,
            epsilon=1 / 3,
            domain=six_losses.domain,
        )
        assert epsilon_regularity_check(tight) == RegularityStatus.PERTURB_WARNING

    def test_general_subset_sums(self):
        scen = tuple(
            Scenario(W=[[0.0]], d=[0.0], p=p) for p in (0.1, 0.2, 0.3, 0.4)
        )
        hit = CcpInstance(c=[1.0], scenarios=scen, epsilon=0.3,
                          domain=Domain.nonnegative(1))
        assert epsilon_regularity_check(hit) == RegularityStatus.PERTURB_WARNING
        miss = CcpInstance(c=[1.0], scenarios=scen, epsilon=0.35,
                           domain=Domain.nonnegative(1))
        assert epsilon_regularity_check(miss) == RegularityStatus.PASS

    def test_large_general_unknown(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(25))
        scen = tuple(Scenario(W=[[0.0]], d=[0.0], p=pi) for pi in p)
        inst = CcpInstance(c=[1.0], scenarios=scen, epsilon=0.25,
                           domain=Domain.nonnegative(1))
        assert epsilon_regularity_check(inst) == RegularityStatus.UNKNOWN


class TestInstanceFiles:
    def test_round_trip(self, tmp_path, two_scenario):
        path = tmp_path / "inst.json"
        save_instance(two_scenario, path)
        back = load_instance(path)
        validate(back)
        assert np.allclose(back.c, two_scenario.c)
        assert np.allclose(back.w_stack, two_scenario.w_stack)
        assert back.epsilon == two_scenario.epsilon

    def test_infinite_bounds_encoded_as_strings(self, two_scenario):
        doc = instance_to_dict(two_scenario)
        assert doc["domain"]["ub"] == ["inf", "inf"]
        back = instance_from_dict(doc)
        assert np.all(np.isinf(back.domain.ub))

    def test_declared_sizes_checked(self, two_scenario):
        doc = instance_to_dict(two_scenario)
        doc["N"] = 5
        with pytest.raises(DimensionMismatch):
            instance_from_dict(doc)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1}))
        with pytest.raises(DimensionMismatch):
            load_instance(path)


def test_extra_domain_rows(two_scenario):
    restricted = with_extra_domain_rows(two_scenario, [[1.0, 1.0]], [1.5])
    assert restricted.domain.P.shape == (1, 2)
    assert restricted.domain.q == pytest.approx([1.5])
    again = with_extra_domain_rows(restricted, [[1.0, 0.0]], [0.5])
    assert again.domain.P.shape == (2, 2)
