"""Shared fixtures: a family of tiny instances with known optima.

Each fixture is small enough to verify by hand; the expected values asserted
in the tests were derived independently (subset enumeration, direct
substitution, or 1-D algebra) before the implementation existed.
"""

from __future__ import annotations

import os

# One BLAS thread, as benchmarks/run.py runs (its BLAS_THREAD_VARS): the
# acceptance criteria assert wall-clock bounds, and the solves are small.  Set
# before numpy loads; a value already in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from cvarscale import CcpInstance, Domain, Scenario


def single_row_instance(c, coeffs, offsets, eps, name, probs=None):
    """Instance with one affine row per scenario: W[i] = coeffs[i], d[i] = offsets[i]."""
    coeffs = [np.atleast_1d(np.asarray(w, dtype=float)) for w in coeffs]
    N = len(coeffs)
    probs = probs or [1.0 / N] * N
    scen = tuple(
        Scenario(W=w[None, :], d=[float(d)], p=p) for w, d, p in zip(coeffs, offsets, probs)
    )
    n = coeffs[0].shape[0]
    return CcpInstance(c=c, scenarios=scen, epsilon=eps, domain=Domain.nonnegative(n), name=name)


@pytest.fixture(scope="session")
def two_scenario():
    """cost 2x1+x2; rows 1-x1 and 1-x1-x2, equiprobable; eps=2/3.

    Exact optimum 1 at (0,1); plain approximation gives 2; scaling the second
    scenario by a >= 3 gives 1 + 3/a.
    """
    return single_row_instance([2, 1], [[-1, 0], [-1, -1]], [1, 1], 2 / 3, "two-scenario")


@pytest.fixture(scope="session")
def line_four():
    """cost -x; rows 10-9x and three copies of 4x-2, equiprobable; eps=1/2.

    On the nonnegative-integer grid the optimum is 0 at x=0; the plain
    approximation over the continuous relaxation is infeasible.
    """
    return single_row_instance([-1], [[-9], [4], [4], [4]], [10, -2, -2, -2], 0.5, "line-four")


@pytest.fixture(scope="session")
def line_four_zero_offset(line_four):
    """line_four with the last offset moved to zero: x=0 satisfies it only weakly."""
    return single_row_instance(
        [-1], [[-9], [4], [4], [4]], [10, -2, -2, 0], 0.5, "line-four-zero-offset"
    )


@pytest.fixture(scope="session")
def line_four_tight():
    """line_four at eps=1/4: the satisfied mass at x=0 exactly equals 1-eps."""
    return single_row_instance([-1], [[-9], [4], [4], [4]], [10, -2, -2, -2], 0.25,
                               "line-four-tight")


@pytest.fixture(scope="session")
def three_scenario():
    """cost 3x1+2x2; rows 1-x1 and twice 1-x1-x2, equiprobable; eps=0.4.

    Exact optimum 2 at (0,1); plain approximation gives 3; scaling scenarios
    2 and 3 by a > 10 gives 2 + 10/a.
    """
    return single_row_instance(
        [3, 2], [[-1, 0], [-1, -1], [-1, -1]], [1, 1, 1], 0.4, "three-scenario"
    )


@pytest.fixture(scope="session")
def three_scenario_tight():
    """three_scenario at eps=1/3: no scaling can beat the plain value 3."""
    return single_row_instance(
        [3, 2], [[-1, 0], [-1, -1], [-1, -1]], [1, 1, 1], 1 / 3, "three-scenario-tight"
    )


@pytest.fixture(scope="session")
def six_losses():
    """Constant rows with values (-4,-3,-2,-1,1,2), equiprobable; eps=5/12.

    The tail statistic of the loss at any x equals 1 (weights 1/12, 1/6, 1/6
    on the three worst values).
    """
    vals = [-4.0, -3.0, -2.0, -1.0, 1.0, 2.0]
    return single_row_instance([1], [[0]] * 6, vals, 5 / 12, "six-losses")
