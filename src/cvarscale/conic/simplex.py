"""Dense two-phase primal simplex for desk-scale linear programs.

The solver favors determinism and verifiable answers over speed: identical
inputs produce identical pivot sequences, infeasibility is only reported
together with a verified Farkas certificate, and optimal bases are certified
by a duality-gap check (re-solved once under Bland's rule when certification
fails).  Dantzig pricing is used until a run of degenerate pivots exceeds
``10 * (rows + cols)``, after which Bland's rule takes over to guarantee
termination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import LinearProgramSpec, SolveResult, SolveStatus

__all__ = ["solve_lp"]

_PIV_TOL = 1e-9
_RATIO_TIE = 1e-9
_PHASE1_TOL = 1e-7


@dataclass
class _StandardForm:
    """min cs.w  s.t.  As w = bs, w >= 0, plus the map back to original z."""

    As: np.ndarray
    bs: np.ndarray
    cs: np.ndarray
    var_map: list[tuple[int, int, float]]  # (kind, first w column, constant)
    n_orig: int


def _to_standard_form(spec: LinearProgramSpec) -> _StandardForm:
    """Shift/flip/split variables to w >= 0 and append one slack per row."""
    n = spec.n
    c_parts: list[float] = []
    var_map: list[tuple[int, int, float]] = []
    bound_rows: list[tuple[int, float]] = []  # (w column, RHS of w <= RHS)

    shift = np.zeros(n)
    for j in range(n):
        lb, ub = spec.lb[j], spec.ub[j]
        if np.isfinite(lb):
            var_map.append((1, len(c_parts), lb))  # z = lb + w
            shift[j] = lb
            c_parts.append(spec.c[j])
            if np.isfinite(ub):
                bound_rows.append((len(c_parts) - 1, ub - lb))
        elif np.isfinite(ub):
            var_map.append((-1, len(c_parts), ub))  # z = ub - w
            shift[j] = ub
            c_parts.append(-spec.c[j])
        else:
            var_map.append((2, len(c_parts), 0.0))  # z = w+ - w-
            c_parts.append(spec.c[j])
            c_parts.append(-spec.c[j])

    nw = len(c_parts)
    m0 = spec.A.shape[0]
    A_bar = np.zeros((m0 + len(bound_rows), nw))
    b_bar = np.empty(m0 + len(bound_rows))
    b_bar[:m0] = spec.b - spec.A @ shift
    for j in range(n):
        kind, col, _ = var_map[j]
        if kind == 1:
            A_bar[:m0, col] += spec.A[:, j]
        elif kind == -1:
            A_bar[:m0, col] -= spec.A[:, j]
        else:
            A_bar[:m0, col] += spec.A[:, j]
            A_bar[:m0, col + 1] -= spec.A[:, j]
    for r, (col, rhs) in enumerate(bound_rows):
        A_bar[m0 + r, col] = 1.0
        b_bar[m0 + r] = rhs

    m = A_bar.shape[0]
    As = np.hstack([A_bar, np.eye(m)])
    cs = np.concatenate([np.array(c_parts), np.zeros(m)])
    return _StandardForm(As=As, bs=b_bar, cs=cs, var_map=var_map, n_orig=n)


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0
    basis[r] = j


def _run_simplex(T, basis, m, price_row, allowed, bland_threshold, max_pivots, start_bland):
    """Pivot until the priced row has no negative reduced cost among allowed cols."""
    bland = start_bland
    degenerate_run = 0
    pivots = 0
    rhs = T[:m, -1]
    while pivots < max_pivots:
        rc = np.where(allowed, T[price_row, :-1], np.inf)
        if bland:
            cand = np.flatnonzero(rc < -_PIV_TOL)
            if cand.size == 0:
                return "optimal", pivots
            j = int(cand[0])
        else:
            j = int(rc.argmin())
            if rc[j] >= -_PIV_TOL:
                return "optimal", pivots
        col = T[:m, j]
        pos = col > _PIV_TOL
        if not pos.any():
            return "unbounded", pivots
        ratios = np.divide(rhs, col, out=np.full(m, np.inf), where=pos)
        rmin = ratios.min()
        ties = (ratios <= rmin + _RATIO_TIE * (1.0 + abs(rmin))).nonzero()[0]
        r = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
        degenerate_run = degenerate_run + 1 if rmin <= 1e-10 else 0
        if degenerate_run > bland_threshold:
            bland = True
        _pivot(T, basis, r, j)
        np.maximum(rhs, 0.0, out=rhs)
        pivots += 1
    return "iteration-limit", pivots


def _fail(status: SolveStatus, iterations: int = 0) -> SolveResult:
    return SolveResult(
        status=status,
        z=None,
        objective=np.nan,
        primal_residual=np.nan,
        dual_residual=np.nan,
        duality_gap=np.nan,
        iterations=iterations,
    )


def _primal_residual(spec: LinearProgramSpec, z: np.ndarray) -> float:
    res = 0.0
    if spec.A.shape[0]:
        res = max(res, float(np.max(spec.A @ z - spec.b, initial=0.0)))
    res = max(res, float(np.max(spec.lb - z, initial=0.0)))
    res = max(res, float(np.max(z - spec.ub, initial=0.0)))
    return res


def _solve_once(spec: LinearProgramSpec, start_bland: bool) -> SolveResult:
    if np.any(spec.lb > spec.ub):
        return _fail(SolveStatus.INFEASIBLE)
    sf = _to_standard_form(spec)
    m, nw = sf.As.shape

    # row equilibration keeps phase-1 tolerances meaningful across magnitudes
    row_scale = np.maximum(1.0, np.max(np.abs(sf.As), axis=1))
    As = sf.As / row_scale[:, None]
    bs = sf.bs / row_scale
    neg = bs < 0
    As[neg] *= -1.0
    bs[neg] *= -1.0

    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    ncols = nw + n_art
    T = np.zeros((m + 2, ncols + 1))
    T[:m, :nw] = As
    T[:m, -1] = bs
    for k, r in enumerate(art_rows):
        T[r, nw + k] = 1.0
    basis = np.arange(nw - m, nw)  # slack columns
    basis[art_rows] = nw + np.arange(n_art)

    P2, P1 = m, m + 1
    T[P2, :nw] = sf.cs
    for r in range(m):
        if basis[r] < nw and sf.cs[basis[r]] != 0.0:
            T[P2] -= sf.cs[basis[r]] * T[r]
    T[P1, nw:ncols] = 1.0
    for r in art_rows:
        T[P1] -= T[r]

    allowed = np.ones(ncols, dtype=bool)
    bland_threshold = 10 * (m + ncols)
    max_pivots = 20000 + 200 * (m + ncols)
    total_pivots = 0

    keep_rows = np.arange(m)
    if n_art:
        out, piv = _run_simplex(T, basis, m, P1, allowed, bland_threshold, max_pivots, start_bland)
        total_pivots += piv
        if out == "iteration-limit":
            return _fail(SolveStatus.ITERATION_LIMIT, total_pivots)
        phase1_obj = -T[P1, -1]
        if phase1_obj > _PHASE1_TOL:
            art_cols = np.zeros((m, n_art))
            art_cols[art_rows, np.arange(n_art)] = 1.0
            A_ph1 = np.hstack([As, art_cols])
            c1 = np.zeros(ncols)
            c1[nw:] = 1.0
            try:
                y = np.linalg.solve(A_ph1[:, basis].T, c1[basis])
            except np.linalg.LinAlgError:
                return _fail(SolveStatus.NUMERICAL_ERROR, total_pivots)
            # Farkas: y.As <= 0 and y.bs > 0 proves {As w = bs, w >= 0} empty
            viol = float(np.max(As.T @ y))
            gain = float(bs @ y)
            if viol <= 1e-7 and gain >= 0.5 * phase1_obj:
                return _fail(SolveStatus.INFEASIBLE, total_pivots)
            return _fail(SolveStatus.NUMERICAL_ERROR, total_pivots)
        drop = []
        for r in range(m):
            if basis[r] >= nw:
                row = T[r, :nw]
                piv_cols = np.flatnonzero(np.abs(row) > 1e-7)
                if piv_cols.size:
                    _pivot(T, basis, r, int(piv_cols[0]))
                else:
                    drop.append(r)  # redundant constraint
        if drop:
            keep_rows = np.setdiff1d(np.arange(m), np.array(drop))
            T = np.vstack([T[keep_rows], T[P2][None, :], T[P1][None, :]])
            basis = basis[keep_rows]
            m = keep_rows.size
            P2, P1 = m, m + 1
        allowed[nw:] = False

    out, piv = _run_simplex(T, basis, m, P2, allowed, bland_threshold, max_pivots, start_bland)
    total_pivots += piv
    if out == "iteration-limit":
        return _fail(SolveStatus.ITERATION_LIMIT, total_pivots)
    if out == "unbounded":
        return _fail(SolveStatus.UNBOUNDED, total_pivots)

    w = np.zeros(ncols)
    w[basis] = T[:m, -1]
    z = np.empty(sf.n_orig)
    for j, (kind, col, const) in enumerate(sf.var_map):
        if kind == 1:
            z[j] = const + w[col]
        elif kind == -1:
            z[j] = const - w[col]
        else:
            z[j] = w[col] - w[col + 1]
    objective = float(spec.c @ z)

    # certify optimality: basis duals of the (scaled, surviving) standard system
    dual_res = gap = np.inf
    if not np.any(basis >= nw):
        As_kept = As[keep_rows]
        bs_kept = bs[keep_rows]
        try:
            y = np.linalg.solve(As_kept[:, basis].T, sf.cs[basis])
            reduced = sf.cs - As_kept.T @ y
            dual_res = max(0.0, float(-reduced.min()))
            gap = abs(float(sf.cs @ w[:nw]) - float(bs_kept @ y))
        except np.linalg.LinAlgError:
            pass

    primal_res = _primal_residual(spec, z)
    scale = 1.0 + abs(objective)
    status = SolveStatus.OPTIMAL
    if gap > 1e-6 * scale or dual_res > 1e-6 or primal_res > 1e-6 * scale:
        status = SolveStatus.NUMERICAL_ERROR
    return SolveResult(
        status=status,
        z=z,
        objective=objective,
        primal_residual=primal_res,
        dual_residual=dual_res,
        duality_gap=gap,
        iterations=total_pivots,
    )


def solve_lp(spec: LinearProgramSpec, tolerances=None) -> SolveResult:
    """Solve the LP; re-solve once under Bland's rule if certification fails."""
    res = _solve_once(spec, start_bland=False)
    if res.status == SolveStatus.NUMERICAL_ERROR:
        res = _solve_once(spec, start_bland=True)
    return res
