"""Output checks on the benchmark's own numpy code.

Only the instance *data* is read from the package objects; every quantity the
checks compare (row values, satisfied mass, objective) is recomputed here, so
a defect in ``cvarscale.model`` cannot hide a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# slack on the satisfied-mass comparison, as in the chance constraint itself
MASS_TOL = 1e-9
# the sandwich bounds of the acceptance suite
CVAR_MARGIN = 1e-9
EXACT_MARGIN = 1e-6


@dataclass(frozen=True)
class InstanceArrays:
    c: np.ndarray    # (n,)
    W: np.ndarray    # (N, J, n)
    d: np.ndarray    # (N, J)
    p: np.ndarray    # (N,)
    epsilon: float
    lb: np.ndarray
    ub: np.ndarray
    P: np.ndarray    # (k, n), k may be 0
    q: np.ndarray    # (k,)


def arrays_of(instance) -> InstanceArrays:
    n = len(instance.c)
    dom = instance.domain
    return InstanceArrays(
        c=np.array(instance.c, dtype=float),
        W=np.array([s.W for s in instance.scenarios], dtype=float),
        d=np.array([s.d for s in instance.scenarios], dtype=float),
        p=np.array([s.p for s in instance.scenarios], dtype=float),
        epsilon=float(instance.epsilon),
        lb=np.array(dom.lb, dtype=float),
        ub=np.array(dom.ub, dtype=float),
        P=np.zeros((0, n)) if dom.P is None else np.array(dom.P, dtype=float),
        q=np.zeros(0) if dom.q is None else np.array(dom.q, dtype=float),
    )


def satisfied_mass(a: InstanceArrays, x: np.ndarray, feas_tol: float) -> float:
    worst = (a.W @ x + a.d).max(axis=1)
    return float(a.p[worst <= feas_tol].sum())


def check_cell(
    a: InstanceArrays,
    x,
    value: float,
    cvar_value: float,
    cvar_margin: float = CVAR_MARGIN,
    v_star: float | None = None,
    feas_tol: float = 1e-6,
) -> str | None:
    """Name and detail of the first failed check, or None when all pass."""
    if x is None:
        return "no_point: the method returned no x"
    x = np.asarray(x, dtype=float)
    if x.shape != a.c.shape or not np.all(np.isfinite(x)) or not np.isfinite(value):
        return f"not_finite: x shape {x.shape}, value {value!r}"
    cx = float(a.c @ x)
    if abs(cx - value) > 1e-6 * (1.0 + abs(cx)):
        return f"value_matches_x: reported {value!r}, c.x = {cx!r}"
    box = max(float(np.max(a.lb - x, initial=0.0)), float(np.max(x - a.ub, initial=0.0)))
    rows = float(np.max(a.P @ x - a.q, initial=0.0))
    if box > feas_tol or rows > feas_tol:
        return f"domain: bound violation {box:.3g}, row violation {rows:.3g}"
    mass = satisfied_mass(a, x, feas_tol)
    if mass < 1.0 - a.epsilon - MASS_TOL:
        return f"chance: satisfied mass {mass!r} < 1 - eps = {1.0 - a.epsilon!r}"
    if value > cvar_value + cvar_margin:
        return f"not_above_cvar: value {value!r} > cvar {cvar_value!r} + {cvar_margin!r}"
    if v_star is not None and value < v_star - EXACT_MARGIN:
        return f"not_below_exact: value {value!r} < exact {v_star!r} - {EXACT_MARGIN!r}"
    return None
