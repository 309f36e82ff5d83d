"""Dense two-phase primal simplex for desk-scale linear programs.

The solver favors determinism and verifiable answers over speed: identical
inputs produce identical pivot sequences, infeasibility is only reported
together with a verified Farkas certificate, and optimal bases are certified
by a duality-gap check (re-solved once under Bland's rule when certification
fails).  Dantzig pricing is used until a run of degenerate pivots exceeds
``10 * (rows + cols)``, after which Bland's rule takes over to guarantee
termination.

An optimal result carries its basis.  Passed back with the same LP after rows
were appended to ``A``, it warm-starts the solve: the new rows' slacks join
the basis, which stays dual feasible, and dual simplex pivots restore primal
feasibility under the same pricing and Bland switch.  The answer is certified
as a cold one is, and a dual row without a negative entry is checked as a
Farkas ray before INFEASIBLE is returned.  Anything else (a pivot cap, a
singular basis, a failed certificate) falls back to the cold two-phase solve.
The hinge-cut master in ``cvar`` uses this between separation rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import get_lapack_funcs

from .types import LinearProgramSpec, SolveResult, SolveStatus

__all__ = ["solve_lp"]

_PIV_TOL = 1e-9
_RATIO_TIE = 1e-9
_PHASE1_TOL = 1e-7
_GESV = get_lapack_funcs("gesv", (np.zeros((1, 1)),))


@dataclass
class _StandardForm:
    """min cs.w  s.t.  As w = bs, w >= 0, plus the map back to original z.

    Variable j has its first w column at col[j] and z_j = shift_j + sign_j w;
    a free (split) one reads z_j = w[col] - w[col + 1].  Rows are the bound
    rows w_col <= ub - lb first, then the rows of A, each with its slack
    column after the shifted variables; appending rows to A leaves every
    existing column index in place.
    """

    As: np.ndarray
    bs: np.ndarray
    cs: np.ndarray
    col: np.ndarray
    shift: np.ndarray
    sign: np.ndarray
    split: np.ndarray

    def z_of(self, w: np.ndarray) -> np.ndarray:
        z = self.shift + self.sign * w[self.col]
        pos = self.col[self.split]
        z[self.split] = w[pos] - w[pos + 1]
        return z


def _to_standard_form(spec: LinearProgramSpec) -> _StandardForm:
    """Shift/flip/split variables to w >= 0 and append one slack per row."""
    fin_lb, fin_ub = np.isfinite(spec.lb), np.isfinite(spec.ub)
    split = ~(fin_lb | fin_ub)
    width = 1 + split.astype(np.intp)
    col = np.cumsum(width) - width
    shift = np.where(fin_lb, spec.lb, np.where(fin_ub, spec.ub, 0.0))
    sign = np.where(fin_lb | split, 1.0, -1.0)  # z = lb + w, ub - w or w+ - w-
    boxed = np.flatnonzero(fin_lb & fin_ub)

    nw = spec.n + int(split.sum())
    nb = boxed.size
    m = nb + spec.A.shape[0]
    As = np.zeros((m, nw + m))
    bs = np.empty(m)
    bs[nb:] = spec.b - spec.A @ shift
    As[nb:, col] = spec.A * sign + 0.0
    As[np.arange(nb), col[boxed]] = 1.0
    bs[:nb] = spec.ub[boxed] - spec.lb[boxed]
    np.fill_diagonal(As[:, nw:], 1.0)
    cs = np.zeros(nw + m)
    cs[col] = spec.c * sign
    if nw > spec.n:
        As[nb:, col[split] + 1] = 0.0 - spec.A[:, split]
        cs[col[split] + 1] = -spec.c[split]
    return _StandardForm(As=As, bs=bs, cs=cs, col=col, shift=shift, sign=sign, split=split)


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


def _run_dual_simplex(T, basis, m, bland_threshold, max_pivots):
    """Pivot a dual feasible tableau until no basic value is negative.

    The most negative basic value leaves; the entering column has the least
    ratio of reduced cost to the row's negative entry, ties going to the
    largest entry.  Bland's rule (lowest basis index leaves, lowest column
    enters) takes over after a long run of dual degenerate pivots.  Returns
    the outcome, the pivot count and, for "infeasible", the row whose entries
    are all nonnegative.
    """
    bland = False
    degenerate_run = 0
    pivots = 0
    rhs = T[:m, -1]
    rc = T[m, :-1]
    while pivots < max_pivots:
        r = int(rhs.argmin())
        if rhs[r] >= -_PIV_TOL:
            return "optimal", pivots, None
        if bland:
            rows = np.flatnonzero(rhs < -_PIV_TOL)
            r = int(rows[basis[rows].argmin()])
        row = T[r, :-1]
        cand = np.flatnonzero(row < -_PIV_TOL)
        if cand.size == 0:
            return "infeasible", pivots, r
        ratios = rc[cand] / -row[cand]
        rmin = ratios.min()
        ties = cand[ratios <= rmin + _RATIO_TIE * (1.0 + abs(rmin))]
        j = int(ties[0] if bland or ties.size == 1 else ties[row[ties].argmin()])
        degenerate_run = degenerate_run + 1 if rmin <= 1e-10 else 0
        if degenerate_run > bland_threshold:
            bland = True
        _pivot(T, basis, r, j)
        np.maximum(rc, 0.0, out=rc)
        pivots += 1
    return "iteration-limit", pivots, None


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


def _equilibrate(sf: _StandardForm) -> tuple[np.ndarray, np.ndarray]:
    """Row equilibration keeps phase-1 tolerances meaningful across magnitudes."""
    row_scale = np.maximum(1.0, np.max(np.abs(sf.As), axis=1))
    return sf.As / row_scale[:, None], sf.bs / row_scale


def _is_farkas_ray(As: np.ndarray, bs: np.ndarray, y: np.ndarray, gain: float) -> bool:
    """y.As <= 0 and y.bs >= gain > 0 prove {As w = bs, w >= 0} empty."""
    return float(np.max(As.T @ y)) <= 1e-7 and float(bs @ y) >= gain


def _finish(spec, sf, As, bs, T, basis, pivots) -> SolveResult:
    """Read z off an optimal tableau and certify it against the system (As, bs)."""
    nw = sf.As.shape[1]
    w = np.zeros(T.shape[1] - 1)
    w[basis] = T[:basis.size, -1]
    z = sf.z_of(w)
    objective = float(spec.c @ z)

    # certify optimality: basis duals of the (scaled, surviving) standard system
    dual_res = gap = np.inf
    if not np.any(basis >= nw):
        try:
            y = np.linalg.solve(As[:, basis].T, sf.cs[basis])
            reduced = sf.cs - As.T @ y
            dual_res = max(0.0, float(-reduced.min()))
            gap = abs(float(sf.cs @ w[:nw]) - float(bs @ y))
        except np.linalg.LinAlgError:
            pass

    primal_res = _primal_residual(spec, z)
    scale = 1.0 + abs(objective)
    status = SolveStatus.OPTIMAL
    if gap > 1e-6 * scale or dual_res > 1e-6 or primal_res > 1e-6 * scale:
        status = SolveStatus.NUMERICAL_ERROR
    # a basis that lost a redundant row cannot be resumed
    resumable = status == SolveStatus.OPTIMAL and basis.size == sf.bs.size
    return SolveResult(
        status=status,
        z=z,
        objective=objective,
        primal_residual=primal_res,
        dual_residual=dual_res,
        duality_gap=gap,
        iterations=pivots,
        basis=basis.copy() if resumable else None,
    )


def _solve_once(spec: LinearProgramSpec, start_bland: bool) -> SolveResult:
    if np.any(spec.lb > spec.ub):
        return _fail(SolveStatus.INFEASIBLE)
    sf = _to_standard_form(spec)
    m, nw = sf.As.shape

    As, bs = _equilibrate(sf)
    neg = bs < 0
    As[neg] *= -1.0
    bs[neg] *= -1.0

    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    ncols = nw + n_art
    T = np.zeros((m + 2, ncols + 1))
    T[:m, :nw] = As
    T[:m, -1] = bs
    T[art_rows, nw + np.arange(n_art)] = 1.0
    basis = np.arange(nw - m, nw)  # slack columns, whose cost is zero
    basis[art_rows] = nw + np.arange(n_art)

    P2, P1 = m, m + 1
    T[P2, :nw] = sf.cs
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
            if _is_farkas_ray(As, bs, y, 0.5 * phase1_obj):
                return _fail(SolveStatus.INFEASIBLE, total_pivots)
            return _fail(SolveStatus.NUMERICAL_ERROR, total_pivots)
        drop = []
        for r in np.flatnonzero(basis >= nw):
            piv_cols = np.flatnonzero(np.abs(T[r, :nw]) > 1e-7)
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
    return _finish(spec, sf, As[keep_rows], bs[keep_rows], T, basis, total_pivots)


def _resume(spec: LinearProgramSpec, basis: np.ndarray) -> tuple[SolveResult | None, int]:
    """Dual simplex from ``basis``, optimal for the LP made of the leading rows of A.

    Returns the result and the pivots spent; the result is None when the warm
    start cannot certify an answer and the cold solve has to decide.
    """
    if np.any(spec.lb > spec.ub):
        return None, 0
    sf = _to_standard_form(spec)
    m, ncols = sf.As.shape
    first_new = ncols - m + basis.size  # slack column of the first appended row
    if m == 0 or basis.size > m or np.any((basis < 0) | (basis >= first_new)):
        return None, 0
    basis = np.concatenate([basis, np.arange(first_new, ncols)])

    # B^-1 [As | bs] on the nonbasic columns and the right-hand side, by
    # blocks: the rows whose slack is nonbasic fix the structural basics, the
    # others follow by substitution.  A row with a huge right-hand side (the
    # 1e9 beta floor) then stays out of the solve.
    As, bs = _equilibrate(sf)
    struct = basis < ncols - m
    jb = basis[struct]
    slack_rows = basis[~struct] - (ncols - m)
    tight = np.ones(m, dtype=bool)
    tight[slack_rows] = False
    if np.count_nonzero(tight) != jb.size:  # a repeated slack: not a basis
        return None, 0
    nonbasic = np.ones(ncols + 1, dtype=bool)  # the last column is the right-hand side
    nonbasic[basis] = False
    cols = np.flatnonzero(nonbasic)
    M = np.column_stack([As, bs])[:, cols]
    _, _, top, info = _GESV(As[tight][:, jb], M[tight])
    if info != 0:
        return None, 0
    T = np.zeros((m + 1, ncols + 1))
    T[np.arange(m), basis] = 1.0
    T[np.flatnonzero(struct)[:, None], cols] = top
    slack_coef = As[slack_rows, basis[~struct]]  # 1 / row scale
    T[np.flatnonzero(~struct)[:, None], cols] = (
        (M[slack_rows] - As[slack_rows][:, jb] @ top) / slack_coef[:, None])
    T[m, cols] = np.append(sf.cs, 0.0)[cols] - sf.cs[jb] @ top
    if T[m, :-1].min() < -1e-6:  # not dual feasible by the certificate's threshold
        return None, 0
    np.maximum(T[m, :-1], 0.0, out=T[m, :-1])

    out, pivots, r = _run_dual_simplex(T, basis, m, 10 * (m + ncols),
                                       20000 + 200 * (m + ncols))
    if out == "infeasible":
        # row r reads u.As >= 0 with u.bs < 0 for u = B^-T e_r; -u is a Farkas ray
        try:
            u = np.linalg.solve(As[:, basis].T, np.eye(m)[r])
        except np.linalg.LinAlgError:
            return None, pivots
        size = float(np.abs(u).max())
        if _is_farkas_ray(As, bs, -u / size, max(_PHASE1_TOL, -0.5 * T[r, -1] / size)):
            return _fail(SolveStatus.INFEASIBLE, pivots), pivots
        return None, pivots
    if out != "optimal":
        return None, pivots
    np.maximum(T[:m, -1], 0.0, out=T[:m, -1])
    res = _finish(spec, sf, As, bs, T, basis, pivots)
    return (res if res.status == SolveStatus.OPTIMAL else None), pivots


def solve_lp(spec: LinearProgramSpec, *, basis=None) -> SolveResult:
    """Solve the LP; re-solve once under Bland's rule if certification fails.

    ``basis`` is the ``SolveResult.basis`` of an earlier solve of the same LP
    with fewer rows in ``A``; the solve then resumes from it by dual simplex
    pivots and falls back to the cold solve if that fails.
    """
    warm_pivots = 0
    if basis is not None:
        res, warm_pivots = _resume(spec, np.asarray(basis))
        if res is not None:
            return res
    res = _solve_once(spec, start_bland=False)
    if res.status == SolveStatus.NUMERICAL_ERROR:
        res = _solve_once(spec, start_bland=True)
    if warm_pivots:
        res = replace(res, iterations=res.iterations + warm_pivots)
    return res
