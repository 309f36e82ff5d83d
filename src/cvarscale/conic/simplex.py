"""Dense two-phase primal simplex for desk-scale linear programs.

The solver favors determinism and verifiable answers over speed: identical
inputs produce identical pivot sequences, infeasibility is only reported
together with a verified Farkas certificate, and optimal bases are certified
by a duality-gap check (re-solved once under Bland's rule when certification
fails).  Dantzig pricing is used until a run of degenerate pivots exceeds
``10 * (rows + cols)``, after which Bland's rule takes over to guarantee
termination.  The duals of either check are read off an objective row: the
slack column of row i has reduced cost -y_i times its entry in that row.

An optimal result privately carries its tableau: B^-1 [As | bs] of the
equilibrated standard form, the objective row and the map back to z.  Passed
back as ``warm`` with the same LP after rows were appended to ``A``, or after
the right-hand sides of its rows changed, or both, it resumes the solve.  Only
the new rows are written in standard form and equilibrated; their basic
columns are eliminated with one product against the old tableau rows, their
slacks join the basis, which stays dual feasible, and dual simplex pivots
restore primal feasibility under the same pricing and Bland switch
(Koberstein, "The dual simplex method, techniques for a fast and stable
implementation", 2005).  A changed right-hand side leaves B^-1 As and the
reduced costs as they are; B^-1 bs and the objective value are recomputed
from the tableau's slack columns, which hold B^-1 times the row scales, so
the basis stays dual feasible and the same pivots apply.  The answer is
certified as a cold one is, and a dual row without a negative entry is
checked as a Farkas ray before INFEASIBLE is returned.  Anything else (a
carrier of another LP, a pivot cap, a failed certificate) falls back to the
cold two-phase solve.  The hinge-cut master in ``cvar`` uses this between
separation rounds, and between the budgets of one bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .types import LinearProgramSpec, SolveResult, SolveStatus

__all__ = ["solve_lp"]

_PIV_TOL = 1e-9
_RATIO_TIE = 1e-9
_PHASE1_TOL = 1e-7


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

    def rows(self, A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows A z <= b appended to (As, bs), with a new slack column each."""
        ncols = self.As.shape[1]
        R = np.zeros((A.shape[0], ncols + A.shape[0]))
        _write_rows(R, A, self.col, self.sign, self.split)
        np.fill_diagonal(R[:, ncols:], 1.0)
        return R, b - A @ self.shift


def _write_rows(out: np.ndarray, A: np.ndarray, col, sign, split) -> None:
    """Write the rows of A over z into ``out`` over the shifted columns w."""
    out[:, col] = A * sign + 0.0
    out[:, col[split] + 1] = 0.0 - A[:, split]


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
    _write_rows(As[nb:], spec.A, col, sign, split)
    As[np.arange(nb), col[boxed]] = 1.0
    bs[:nb] = spec.ub[boxed] - spec.lb[boxed]
    np.fill_diagonal(As[:, nw:], 1.0)
    cs = np.zeros(nw + m)
    cs[col] = spec.c * sign
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


def _equilibrate(As: np.ndarray, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row equilibration keeps phase-1 tolerances meaningful across magnitudes."""
    row_scale = np.maximum(1.0, np.max(np.abs(As), axis=1))
    return As / row_scale[:, None], bs / row_scale


def _is_farkas_ray(As: np.ndarray, bs: np.ndarray, y: np.ndarray, gain: float) -> bool:
    """y.As <= 0 and y.bs >= gain > 0 prove {As w = bs, w >= 0} empty."""
    return float(np.max(y @ As)) <= 1e-7 and float(bs @ y) >= gain


def _row_duals(T: np.ndarray, row: int, As: np.ndarray) -> np.ndarray:
    """y with T[row, slack_i] = -y_i As[i, slack_i], the slacks being As's last columns."""
    m, ncols = As.shape
    return -T[row, ncols - m:ncols] / np.diagonal(As, ncols - m)


@dataclass(frozen=True)
class _Tableau:
    """An optimal tableau and what it takes to append rows to its LP.

    ``sf`` holds the equilibrated system (As, bs), m rows by ncols columns.
    Over the first ncols columns and the last one, T[:m] is B^-1 [As | bs]
    and T[m] the objective row: reduced costs, then minus the objective.  A
    cold tableau keeps its artificial columns and phase-1 row, which are not
    read, and the rows whose slack stayed basic keep the factor 1 / row scale.
    """

    spec: LinearProgramSpec
    sf: _StandardForm
    T: np.ndarray
    basis: np.ndarray


def _finish(spec, sf, T, basis, pivots) -> SolveResult:
    """Read z off an optimal tableau and certify it against the system (sf.As, sf.bs)."""
    m, ncols = sf.As.shape
    w = np.zeros(T.shape[1] - 1)
    w[basis] = T[:basis.size, -1]
    w = w[:ncols]
    z = sf.z_of(w)
    objective = float(spec.c @ z)

    y = _row_duals(T, basis.size, sf.As)
    dual_res = max(0.0, float(-(sf.cs - y @ sf.As).min()))
    gap = abs(float(sf.cs @ w) - float(sf.bs @ y))
    primal_res = _primal_residual(spec, z)
    scale = 1.0 + abs(objective)
    status = SolveStatus.OPTIMAL
    if not (gap <= 1e-6 * scale and dual_res <= 1e-6 and primal_res <= 1e-6 * scale):
        status = SolveStatus.NUMERICAL_ERROR
    # a basis that lost a redundant row cannot be resumed
    resumable = status == SolveStatus.OPTIMAL and basis.size == m
    return SolveResult(
        status=status,
        z=z,
        objective=objective,
        primal_residual=primal_res,
        dual_residual=dual_res,
        duality_gap=gap,
        iterations=pivots,
        _warm=_Tableau(spec, sf, T, basis) if resumable else None,
    )


def _solve_once(spec: LinearProgramSpec, start_bland: bool) -> SolveResult:
    if np.any(spec.lb > spec.ub):
        return _fail(SolveStatus.INFEASIBLE)
    sf = _to_standard_form(spec)
    m, nw = sf.As.shape

    As, bs = _equilibrate(sf.As, sf.bs)
    sf = replace(sf, As=As, bs=bs)
    art_rows = np.flatnonzero(bs < 0)
    n_art = art_rows.size
    ncols = nw + n_art
    T = np.zeros((m + 2, ncols + 1))
    T[:m, :nw] = As
    T[:m, -1] = bs
    T[art_rows] *= -1.0
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

    if n_art:
        out, piv = _run_simplex(T, basis, m, P1, allowed, bland_threshold, max_pivots, start_bland)
        total_pivots += piv
        if out == "iteration-limit":
            return _fail(SolveStatus.ITERATION_LIMIT, total_pivots)
        phase1_obj = -T[P1, -1]
        if phase1_obj > _PHASE1_TOL:
            if _is_farkas_ray(As, bs, _row_duals(T, P1, As), 0.5 * phase1_obj):
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
    return _finish(spec, sf, T, basis, total_pivots)


def _same_lp(spec: LinearProgramSpec, done: LinearProgramSpec) -> bool:
    """True when ``spec`` is the LP ``done`` with zero or more rows appended to A,
    whatever the right-hand sides of its rows."""
    m = done.A.shape[0]
    return (spec.A.shape[0] >= m and np.array_equal(spec.c, done.c)
            and np.array_equal(spec.lb, done.lb) and np.array_equal(spec.ub, done.ub)
            and np.array_equal(spec.A[:m], done.A))


def _append_rows(tab: _Tableau, spec: LinearProgramSpec) -> _Tableau:
    """The tableau of ``tab`` with the rows ``spec`` appends, their slacks basic.

    The new rows are written in standard form and equilibrated on their own;
    the old rows keep their scales.  A new tableau row is the standard row
    less its basic columns, eliminated against the old rows in one product.
    Where ``spec`` changed the right-hand side of an old row, B^-1 bs and the
    objective value are recomputed first: the slack column of row i holds
    B^-1 e_i / (row scale i), so B^-1 bs is the slack block times the raw
    right-hand sides, and the objective row's slack entries give c_B B^-1 bs
    the same way, its slacks' costs being zero.
    """
    sf, old = tab.sf, tab.T
    m, ncols = sf.As.shape
    m_old = tab.spec.A.shape[0]
    R, r = sf.rows(spec.A[m_old:], spec.b[m_old:])
    k = R.shape[0]
    Rs, rs = _equilibrate(R, r)
    As = np.zeros((m + k, ncols + k))
    As[:m, :ncols] = sf.As
    As[m:] = Rs

    # a row whose slack has been basic since the cold start still reads
    # 1 / row scale in that column; scale it to the unit row of B^-1
    unit = old[np.arange(m), tab.basis][:, None]
    T = np.zeros((m + k + 1, ncols + k + 1))
    T[:m, :ncols] = old[:m, :ncols] / unit
    T[:m, -1:] = old[:m, -1:] / unit
    T[-1, :ncols] = old[m, :ncols]
    T[-1, -1] = old[m, -1]
    bs = sf.bs
    if not np.array_equal(spec.b[:m_old], tab.spec.b):
        nb = m - m_old  # bound rows, whose scale is one
        raw = np.concatenate([bs[:nb], spec.b[:m_old] - spec.A[:m_old] @ sf.shift])
        bs = np.concatenate([bs[:nb], raw[nb:] * np.diagonal(sf.As, ncols - m)[nb:]])
        T[:, -1] = T[:, ncols - m:ncols] @ raw  # the new rows are still zero
    T[m:-1, :-1] = R
    T[m:-1, -1] = r
    T[m:-1] -= T[m:-1, tab.basis] @ T[:m]
    sf = replace(sf, As=As, bs=np.concatenate([bs, rs]), cs=np.append(sf.cs, np.zeros(k)))
    return _Tableau(spec, sf, T, np.concatenate([tab.basis, np.arange(ncols, ncols + k)]))


def _warm_solve(spec: LinearProgramSpec, tab: _Tableau) -> tuple[SolveResult | None, int]:
    """Dual simplex from ``tab`` once ``spec`` appended its rows or changed its
    right-hand sides.

    Returns the result and the pivots spent; the result is None when the warm
    start cannot certify an answer and the cold solve has to decide.
    """
    if not _same_lp(spec, tab.spec):
        return None, 0
    tab = _append_rows(tab, spec)
    T, basis, As = tab.T, tab.basis, tab.sf.As
    m, ncols = As.shape
    if T[m, :-1].min() < -1e-6:  # not dual feasible by the certificate's threshold
        return None, 0
    np.maximum(T[m, :-1], 0.0, out=T[m, :-1])

    out, pivots, r = _run_dual_simplex(T, basis, m, 10 * (m + ncols), 20000 + 200 * (m + ncols))
    if out == "infeasible":
        # row r reads u.As >= 0 with u.bs < 0 for u = B^-T e_r; y = -u is a Farkas ray
        y = _row_duals(T, r, As)
        size = float(np.abs(y).max())
        if _is_farkas_ray(As, tab.sf.bs, y / size, max(_PHASE1_TOL, -0.5 * T[r, -1] / size)):
            return _fail(SolveStatus.INFEASIBLE, pivots), pivots
        return None, pivots
    if out != "optimal":
        return None, pivots
    np.maximum(T[:m, -1], 0.0, out=T[:m, -1])
    res = _finish(spec, tab.sf, T, basis, pivots)
    return (res if res.status == SolveStatus.OPTIMAL else None), pivots


def solve_lp(spec: LinearProgramSpec, *, warm: SolveResult | None = None) -> SolveResult:
    """Solve the LP; re-solve once under Bland's rule if certification fails.

    ``warm`` is an earlier result of the same LP with fewer (or as many) rows
    in ``A``; the right-hand sides of those rows may differ, but nothing else
    of them, and the arrays of its spec must not have been changed in place
    since.  If it is optimal, the solve resumes from its tableau: B^-1 b is
    recomputed from the tableau's slack columns where a right-hand side
    changed, the new rows are eliminated against it, and dual simplex pivots
    follow.  It falls back to the cold solve if that fails.
    """
    warm_pivots = 0
    if warm is not None and isinstance(warm._warm, _Tableau):
        res, warm_pivots = _warm_solve(spec, warm._warm)
        if res is not None:
            return res
    res = _solve_once(spec, start_bland=False)
    if res.status == SolveStatus.NUMERICAL_ERROR:
        res = _solve_once(spec, start_bland=True)
    if warm_pivots:
        res = replace(res, iterations=res.iterations + warm_pivots)
    return res
