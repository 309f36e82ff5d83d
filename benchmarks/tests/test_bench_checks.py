"""The benchmark's own output checks on hand-built instances."""

import numpy as np

from cvarscale import CcpInstance, Domain, Scenario
from checks import arrays_of, check_cell, satisfied_mass


def four_line():
    """minimize x on [0, 5]; scenario i needs x >= i (rows i - x <= 0); eps = 0.3."""
    scen = tuple(Scenario(W=[[-1.0]], d=[float(i)], p=0.25) for i in range(1, 5))
    return CcpInstance(c=np.array([1.0]), scenarios=scen, epsilon=0.3,
                       domain=Domain(lb=[0.0], ub=[5.0], P=[[1.0]], q=[4.5]), name="four-line")


def test_satisfied_mass_counts_rows_at_tolerance():
    a = arrays_of(four_line())
    assert satisfied_mass(a, np.array([2.0]), 1e-6) == 0.5
    assert satisfied_mass(a, np.array([4.0 - 5e-7]), 1e-6) == 1.0


def test_feasible_point_passes():
    a = arrays_of(four_line())
    # x = 3 satisfies three of four scenarios: mass 0.75 >= 1 - 0.3
    assert check_cell(a, np.array([3.0]), 3.0, cvar_value=4.0) is None


def test_chance_infeasible_point_rejected():
    a = arrays_of(four_line())
    # x = 2 satisfies only half the mass, below 1 - eps = 0.7
    reason = check_cell(a, np.array([2.0]), 2.0, cvar_value=4.0)
    assert reason is not None and reason.startswith("chance")


def test_domain_value_and_sandwich_rejections():
    a = arrays_of(four_line())
    assert check_cell(a, np.array([4.8]), 4.8, cvar_value=5.0).startswith("domain")
    assert check_cell(a, np.array([3.0]), 2.5, cvar_value=4.0).startswith("value_matches_x")
    assert check_cell(a, np.array([4.0]), 4.0, cvar_value=3.0).startswith("not_above_cvar")
    assert check_cell(a, np.array([4.0]), 4.0, cvar_value=3.0, cvar_margin=1.5) is None
    assert check_cell(a, np.array([3.0]), 3.0, cvar_value=4.0,
                      v_star=3.5).startswith("not_below_exact")
    assert check_cell(a, None, np.nan, cvar_value=4.0).startswith("no_point")
