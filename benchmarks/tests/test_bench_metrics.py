"""End-to-end figures computed from synthetic cells."""

import pytest

from harness import Cell, Phase, end_to_end, latency_p50
from workloads import WORKLOADS


def cell(k, unit, name, eps, method, seconds, reason=None):
    return Cell(cell=k, unit=unit, instance=name, eps=eps, method=method,
                seconds=seconds, reason=reason)


def test_latency_is_the_median_of_unit_means():
    cells = [
        cell(0, 0, "a", 0.1, "cvar", 1.0), cell(1, 0, "b", 0.1, "cvar", 3.0),   # unit mean 2
        cell(2, 1, "c", 0.1, "cvar", 5.0), cell(3, 1, "d", 0.1, "cvar", 5.0),   # unit mean 5
        cell(4, 2, "e", 0.1, "cvar", 9.0),                                      # unit mean 9
        cell(5, 2, "f", 0.1, "cvar", 0.1, reason="chance: ..."),                # failed: left out
        cell(6, 2, "f", 0.1, "alg1", 7.0),
    ]
    assert latency_p50(cells, "cvar") == (5.0, 3)
    assert latency_p50(cells, "alg2") == (0.0, 0)


def test_instances_counted_per_risk_level_and_failures_drop_them():
    workload = WORKLOADS["trend-mid"]
    cells = [
        # one unit holds the same generated instance at two risk levels
        cell(0, 0, "p", 0.100333, "cvar", 1.0), cell(1, 0, "p", 0.100333, "alg1", 1.0),
        cell(2, 0, "p", 0.300333, "cvar", 1.0), cell(3, 0, "p", 0.300333, "alg1", 1.0),
        cell(4, 1, "q", 0.100333, "cvar", 1.0),
        cell(5, 1, "q", 0.100333, "alg1", 1.0, reason="SolverFailure: boom"),
    ]
    out = end_to_end(workload, Phase(cells=cells, units=2, seconds=4.0), 0.5, 64.0)
    assert out["instances_per_s"][0] == pytest.approx(2 / 4.0)
    assert out["failed_frac"][0] == pytest.approx(1 / 6)
    assert out["exact.s_p50"][:2] == (0.0, "s")
