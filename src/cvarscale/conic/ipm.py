"""Primal-dual interior point solver for dense second-order-cone programs.

Standard conic form with a homogeneous self-dual embedding:

    minimize    c.v
    subject to  G v + s = h,   s in K,

where K is a product of a nonnegative orthant and second-order cones
Q_d = {(u0, u1) : u0 >= ||u1||_2}.  Search directions use Nesterov-Todd
scaling with a Mehrotra predictor-corrector; the embedding yields verified
certificates for infeasible and unbounded problems.  Everything is dense.
The cone blocks are stored in ascending dimension, so the blocks of one
dimension fill one slice of the stacked vector and every kernel processes
them as a single batch through a reshape of that slice; this keeps the
per-iteration cost dominated by one Cholesky factorization.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .types import SocpSpec, SolveResult, SolveStatus

__all__ = ["solve_socp"]

_MAX_ITER = 200
_FEAS_TOL = 1e-8
_STEP_DAMP = 0.99
_REG = 1e-12

# LAPACK Cholesky factor/solve, called directly: the problems are small, so
# the per-call checks of scipy's cho_factor/cho_solve wrappers cost more than
# the factorization itself
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.zeros((1, 1)),))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector (numpy's own formula, without its dispatch)."""
    return math.sqrt(v.dot(v))


def _cho_factor(M: np.ndarray) -> np.ndarray:
    c, info = _POTRF(M, lower=0, overwrite_a=0, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (info={info})")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    if b.size == 0:
        return np.empty_like(b)
    x, info = _POTRS(c, b, lower=0, overwrite_b=0)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _add_at_layers(idx: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split ``idx`` into (positions, indices) layers without repeated indices.

    Applying ``out[indices] += vals[positions]`` layer by layer adds every
    value in the same order as ``np.add.at(out, idx, vals)``, at the cost of
    one fancy-indexed update per layer instead of the unbuffered ufunc loop.
    """
    seen: dict[int, int] = {}
    depth = np.empty(idx.size, dtype=int)
    for k, i in enumerate(idx.tolist()):
        depth[k] = seen.get(i, 0)
        seen[i] = depth[k] + 1
    layers = []
    for level in range(int(depth.max(initial=-1)) + 1):
        pos = np.flatnonzero(depth == level)
        layers.append((pos, idx[pos]))
    return layers


@dataclass
class _ConeLayout:
    """Orthant block plus SOC blocks batched by equal dimension.

    The blocks are stored in ascending dimension after the orthant, so
    ``groups`` maps block dimension d to the one slice of the stacked vector
    that holds all dimension-d blocks back to back.
    """

    l: int
    groups: dict[int, slice]
    m: int
    n_soc: int

    @classmethod
    def build(cls, l: int, soc_dims: list[int]) -> "_ConeLayout":
        """Layout of an orthant of size l and cones of the given dimensions,
        stored in ascending dimension."""
        groups = {}
        start = l
        for d in sorted(set(soc_dims)):
            stop = start + d * soc_dims.count(d)
            groups[d] = slice(start, stop)
            start = stop
        return cls(l=l, groups=groups, m=start, n_soc=len(soc_dims))

    def view(self, u: np.ndarray, d: int) -> np.ndarray:
        """Block matrix (B, d) or (B, d, k) for dimension-d cones: a view of
        the stacked array, so writing to it writes to ``u``."""
        return u[self.groups[d]].reshape((-1, d) + u.shape[1:])

    @property
    def degree(self) -> int:
        return self.l + self.n_soc

    def identity(self) -> np.ndarray:
        e = np.zeros(self.m)
        e[: self.l] = 1.0
        for d in self.groups:
            self.view(e, d)[:, 0] = 1.0
        return e


def _min_cone_margin(lay: _ConeLayout, u: np.ndarray) -> float:
    """Most negative "distance into the cone" across blocks (>=0 iff u in K)."""
    worst = u[: lay.l].min(initial=np.inf)
    for d in lay.groups:
        blk = lay.view(u, d)
        margin = blk[:, 0] - np.linalg.norm(blk[:, 1:], axis=1)
        worst = min(worst, margin.min())
    return float(worst)


def _shift_into_cone(lay: _ConeLayout, u: np.ndarray) -> np.ndarray:
    margin = _min_cone_margin(lay, u)
    if margin > 1e-8:
        return u
    return u + (1.0 + abs(margin)) * lay.identity()


class _NTScaling:
    """Nesterov-Todd scaling W with W z = W^-1 s = lambda.

    Per SOC block the scaling is eta * H(wbar) where wbar has unit hyperbolic
    norm and H(w) = [[w0, w1'], [w1, I + w1 w1' / (1 + w0)]] is the square
    root of the quadratic representation 2 w w' - J.  The inverse flips the
    sign of w1 and divides by eta.
    """

    def __init__(self, lay: _ConeLayout, s: np.ndarray, z: np.ndarray):
        self.lay = lay
        l = lay.l
        if np.any(s[:l] <= 0) or np.any(z[:l] <= 0):
            raise FloatingPointError("iterate left the orthant interior")
        self.w_lin = np.sqrt(s[:l] / z[:l]) if l else np.zeros(0)
        # per group: (d, w0, w1, -w1, eta, 1/eta, 1 + w0), wbar = (w0, w1)
        self.blocks: list[tuple] = []
        for d in lay.groups:
            sb, zb = lay.view(s, d), lay.view(z, d)
            rs = sb[:, 0] ** 2 - np.einsum("bk,bk->b", sb[:, 1:], sb[:, 1:])
            rz = zb[:, 0] ** 2 - np.einsum("bk,bk->b", zb[:, 1:], zb[:, 1:])
            if np.any(rs <= 0) or np.any(rz <= 0):
                raise FloatingPointError("iterate left the cone interior")
            sbar = sb / np.sqrt(rs)[:, None]
            zbar = zb / np.sqrt(rz)[:, None]
            inner = np.maximum(1.0 + np.einsum("bk,bk->b", sbar, zbar), 0.0)
            gamma = np.sqrt(inner / 2.0)
            if np.any(gamma <= 1e-12):
                raise FloatingPointError("scaling point degenerate at the cone boundary")
            wb = sbar.copy()
            wb[:, 0] += zbar[:, 0]
            wb[:, 1:] -= zbar[:, 1:]
            wb /= (2.0 * gamma)[:, None]
            eta = (rs / rz) ** 0.25
            w0, w1 = wb[:, 0], wb[:, 1:]
            self.blocks.append((d, w0, w1, -w1, eta, 1.0 / eta, 1.0 + w0))

    def _apply(self, u: np.ndarray, inverse: bool) -> np.ndarray:
        """eta^{+-1} H(+-wbar) blockwise (the orthant part is diagonal)."""
        lay = self.lay
        out = np.empty_like(u)
        l = lay.l
        if inverse:
            np.divide(u[:l], self.w_lin, out=out[:l])
        else:
            np.multiply(u[:l], self.w_lin, out=out[:l])
        for d, w0, w1p, w1n, eta, inv_eta, opw0 in self.blocks:
            w1 = w1n if inverse else w1p
            U, res = lay.view(u, d), lay.view(out, d)
            U0, U1 = U[:, 0], U[:, 1:]
            inner = np.einsum("bk,bk->b", w1, U1)
            np.multiply(w0, U0, out=res[:, 0])
            res[:, 0] += inner
            res[:, 1:] = U1 + (U0 + inner / opw0)[:, None] * w1
            res *= (inv_eta if inverse else eta)[:, None]
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self._apply(u, inverse=False)

    def apply_inv(self, u: np.ndarray) -> np.ndarray:
        return self._apply(u, inverse=True)

    def scale_rows(self, G: np.ndarray) -> np.ndarray:
        """W^-1 G (apply W^-1 to every column at once)."""
        lay = self.lay
        out = np.empty_like(G)
        l = lay.l
        np.divide(G[:l], self.w_lin[:, None], out=out[:l])
        for d, w0, _, w1, eta, _, opw0 in self.blocks:
            blk = lay.view(G, d)  # (B, d, ncols)
            inner = np.einsum("bk,bkc->bc", w1, blk[:, 1:, :])
            res = lay.view(out, d)
            np.multiply(w0[:, None], blk[:, 0, :], out=res[:, 0, :])
            res[:, 0, :] += inner
            res[:, 1:, :] = blk[:, 1:, :] + w1[:, :, None] * (
                blk[:, 0, :] + inner / opw0[:, None]
            )[:, None, :]
            res /= eta[:, None, None]
        return out


def _jordan_product(lay: _ConeLayout, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    l = lay.l
    np.multiply(u[:l], v[:l], out=out[:l])
    for d in lay.groups:
        ub, vb, res = lay.view(u, d), lay.view(v, d), lay.view(out, d)
        np.einsum("bk,bk->b", ub, vb, out=res[:, 0])
        res[:, 1:] = ub[:, :1] * vb[:, 1:] + vb[:, :1] * ub[:, 1:]
    return out


def _jordan_solve(lay: _ConeLayout, lam: np.ndarray, d_vec: np.ndarray) -> np.ndarray:
    """Solve lam o x = d blockwise (lam interior, so the systems are regular)."""
    out = np.empty_like(d_vec)
    l = lay.l
    np.divide(d_vec[:l], lam[:l], out=out[:l])
    for d in lay.groups:
        lb, db, res = lay.view(lam, d), lay.view(d_vec, d), lay.view(out, d)
        l1 = lb[:, 1:]
        det = lb[:, 0] ** 2 - np.einsum("bk,bk->b", l1, l1)
        x0 = (lb[:, 0] * db[:, 0] - np.einsum("bk,bk->b", l1, db[:, 1:])) / det
        res[:, 0] = x0
        res[:, 1:] = (db[:, 1:] - x0[:, None] * l1) / lb[:, :1]
    return out


class _StepLimit:
    """Largest t with s + t*ds in K and with z + t*dz in K (np.inf where the
    ray stays inside), for the predictor and the corrector of one iteration.

    The terms that depend only on (s, z) are formed once, and both rays go
    through one batched root computation per cone group.  Used under
    ``solve_socp``'s errstate: the masked-out quotients may divide by zero.
    """

    def __init__(self, lay: _ConeLayout, s: np.ndarray, z: np.ndarray):
        self.lay = lay
        l = lay.l
        self.neg_lin = (-s[:l], -z[:l])
        # per group: (d, u0, -u0, u1, c, B) over the stacked blocks of s then z
        self.blocks = []
        for d in lay.groups:
            ub = np.concatenate((lay.view(s, d), lay.view(z, d)))
            u0, u1 = ub[:, 0], ub[:, 1:]
            c = np.maximum(u0 ** 2 - np.einsum("bk,bk->b", u1, u1), 0.0)
            self.blocks.append((d, u0, -u0, u1, c, ub.shape[0] // 2))

    def __call__(self, ds: np.ndarray, dz: np.ndarray) -> tuple[float, float]:
        lay = self.lay
        steps = [np.inf, np.inf]
        l = lay.l
        if l:
            for k, (neg_w, dw) in enumerate(zip(self.neg_lin, (ds[:l], dz[:l]))):
                neg = dw < 0
                if neg.any():
                    steps[k] = min(steps[k], float(np.min(neg_w[neg] / dw[neg])))
        for d, u0, neg_u0, u1, c, half in self.blocks:
            db = np.concatenate((lay.view(ds, d), lay.view(dz, d)))
            d0, d1 = db[:, 0], db[:, 1:]
            a = d0 ** 2 - np.einsum("bk,bk->b", d1, d1)
            b = 2.0 * (u0 * d0 - np.einsum("bk,bk->b", u1, d1))
            disc = b * b - 4.0 * a * c
            sq = np.sqrt(np.maximum(disc, 0.0))
            q = -(b + np.copysign(sq, b)) / 2.0
            quadratic = np.abs(a) > 1e-14
            quad = quadratic & (disc >= 0.0)
            # both roots of a t^2 + b t + c, positive ones only
            r1 = q / a
            r2 = np.where(np.abs(q) > 1e-300, c / q, np.inf)
            roots = np.minimum(
                np.where(quad & (r1 > 1e-14), r1, np.inf),
                np.where(quad & (r2 > 1e-14), r2, np.inf),
            )
            if not quadratic.all():
                # the root of b t + c where a vanishes
                lin = np.where(b < -1e-14, -c / b, np.inf)
                roots = np.where(quadratic, roots, np.where(lin > 1e-14, lin, np.inf))
            head = np.where(d0 < -1e-14, neg_u0 / d0, np.inf)
            roots = np.minimum(roots, head)
            if half:
                steps[0] = min(steps[0], float(roots[:half].min()))
                steps[1] = min(steps[1], float(roots[half:].min()))
        return steps[0], steps[1]


def _assemble(spec: SocpSpec):
    """Flatten linear rows, bounds, and cone blocks into (G, h, layout).

    The cones are written in ascending dimension (a stable sort, so cones of
    equal dimension keep their order), which makes each batch one slice.
    """
    n = spec.n
    g_rows = [spec.A]
    h_parts = [spec.b]
    fin_lb = np.isfinite(spec.lb)
    fin_ub = np.isfinite(spec.ub)
    if fin_lb.any():
        B = np.zeros((int(fin_lb.sum()), n))
        B[np.arange(B.shape[0]), np.flatnonzero(fin_lb)] = -1.0
        g_rows.append(B)
        h_parts.append(-spec.lb[fin_lb])
    if fin_ub.any():
        B = np.zeros((int(fin_ub.sum()), n))
        B[np.arange(B.shape[0]), np.flatnonzero(fin_ub)] = 1.0
        g_rows.append(B)
        h_parts.append(spec.ub[fin_ub])
    l = sum(r.shape[0] for r in g_rows)
    soc_dims = []
    for cone in sorted(spec.cones, key=lambda cone: cone.F.shape[0]):
        g_rows.append(-cone.g[None, :])
        h_parts.append(np.array([cone.h]))
        g_rows.append(-cone.F)
        h_parts.append(cone.f)
        soc_dims.append(1 + cone.F.shape[0])
    G = np.vstack(g_rows)
    h = np.concatenate(h_parts)
    lay = _ConeLayout.build(l, soc_dims)

    # block-aware equilibration: one positive factor per orthant row and per
    # cone block (uniform within a block, so membership in K is unchanged)
    d = np.ones(lay.m)
    if lay.l:
        mx = np.max(np.abs(G[: lay.l]), axis=1, initial=0.0)
        d[: lay.l] = np.maximum(1.0, np.maximum(mx, np.abs(h[: lay.l])))
    for k in lay.groups:
        blk = np.maximum(
            np.abs(lay.view(G, k)).max(axis=(1, 2)), np.abs(lay.view(h, k)).max(axis=1)
        )
        lay.view(d, k)[:] = np.maximum(1.0, blk)[:, None]
    return G / d[:, None], h / d, lay


class _RowSplit:
    """Single-nonzero orthant rows (bounds) split from the dense rows.

    Bound rows only add diagonal terms to the Schur complement, which cuts
    the dominant cost of forming it roughly in half on the SCA subproblems.
    """

    def __init__(self, G: np.ndarray, l: int):
        nnz = np.count_nonzero(G, axis=1)
        mask = np.zeros(G.shape[0], dtype=bool)
        mask[:l] = nnz[:l] == 1
        self.simple = np.flatnonzero(mask)
        self.dense = np.flatnonzero(~mask)
        self.cols = np.argmax(G[self.simple] != 0, axis=1)
        self.layers = _add_at_layers(self.cols)
        self.diag = np.arange(G.shape[1])
        self.m = G.shape[0]
        self._take(G)

    def _take(self, G: np.ndarray) -> None:
        self.G_dense = np.ascontiguousarray(G[self.dense])
        self.coef = G[self.simple, self.cols]

    def with_rows(self, G: np.ndarray) -> "_RowSplit":
        """The same split over the NT-scaled rows of G.  The scaling is
        diagonal on the orthant, so each bound row keeps its one column."""
        other = copy.copy(self)
        other._take(G)
        return other

    def add_simple(self, out: np.ndarray, vals: np.ndarray) -> None:
        """``np.add.at(out, self.cols, vals)``: bound-row terms into a column
        vector."""
        for pos, cols in self.layers:
            out[cols] += vals[pos]

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """G @ u."""
        out = np.empty(self.m)
        out[self.dense] = self.G_dense @ u
        out[self.simple] = self.coef * u[self.cols]
        return out

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """G.T @ w."""
        out = self.G_dense.T @ w[self.dense]
        self.add_simple(out, self.coef * w[self.simple])
        return out


def _schur_factor(rows: _RowSplit) -> np.ndarray:
    """Cholesky factor of G'G, plus a small ridge, for the split rows of G.

    Bound rows add only their squared coefficients to the diagonal.
    """
    dense, coef = rows.G_dense, rows.coef
    M = dense.T @ dense
    sq = coef * coef
    for pos, cols in rows.layers:
        M[cols, cols] += sq[pos]
    M[rows.diag, rows.diag] += _REG * (1.0 + np.trace(M) / max(1, M.shape[0]))
    return _cho_factor(M)


class _KKT:
    """Factorized core system [[0, G'], [G, -W^2]] via the Schur complement.

    Single-nonzero bound rows are carried separately: they contribute only
    diagonal terms to the Schur complement and scalar terms to the matrix-
    vector products, so the dense work runs on the remaining rows alone.
    """

    def __init__(self, G: np.ndarray, W: _NTScaling, split: _RowSplit):
        self.W = W
        self.split = split
        # the rows of Gt = W^-1 G, split like G's
        self.scaled = split.with_rows(W.scale_rows(G))
        self.chol = _schur_factor(self.scaled)

    def _solve_raw(self, p: np.ndarray, q: np.ndarray):
        Winv_q = self.W.apply_inv(q)
        u = _cho_solve(self.chol, p + self.scaled.rmatvec(Winv_q))
        v = self.W.apply_inv(self.scaled.matvec(u) - Winv_q)
        return u, v

    def solve(self, p: np.ndarray, q: np.ndarray):
        """Return (u, v) with G'v = p and G u - W^2 v = q (iterative refinement)."""
        u, v = self._solve_raw(p, q)
        scale = 1.0 + _norm(p) + _norm(q)
        prev = np.inf
        for _ in range(2):
            rp = p - self.split.rmatvec(v)
            rq = q - (self.split.matvec(u) - self.W.apply(self.W.apply(v)))
            err = max(_norm(rp), _norm(rq))
            if err <= 1e-13 * scale or err >= 0.5 * prev:
                break
            prev = err
            du, dv = self._solve_raw(rp, rq)
            u += du
            v += dv
        return u, v


def _result(status, z, obj, pres, dres, gap, iters) -> SolveResult:
    return SolveResult(
        status=status,
        z=z,
        objective=obj,
        primal_residual=pres,
        dual_residual=dres,
        duality_gap=gap,
        iterations=iters,
    )


def solve_socp(spec: SocpSpec, tol: float = _FEAS_TOL) -> SolveResult:
    """Solve the SOCP to residuals and relative gap at most ``tol``."""
    # boundary iterates can transiently produce inf/nan; every such case is
    # caught explicitly, so silence the intermediate floating-point warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _solve_socp(spec, tol)


def _solve_socp(spec: SocpSpec, tol: float) -> SolveResult:
    c = spec.c.copy()
    n = spec.n
    G, h, lay = _assemble(spec)
    m = lay.m
    if m == 0:
        return _result(SolveStatus.UNBOUNDED if np.any(c != 0) else SolveStatus.OPTIMAL,
                       np.zeros(n), 0.0, 0.0, 0.0, 0.0, 0)

    norm_h = 1.0 + _norm(h)
    norm_c = 1.0 + _norm(c)
    e = lay.identity()
    degree = lay.degree + 1  # tau/kappa pair counts once

    split = _RowSplit(G, lay.l)
    try:
        chol = _schur_factor(split)
        x = _cho_solve(chol, G.T @ h)
        s = _shift_into_cone(lay, h - G @ x)
        z = _shift_into_cone(lay, -G @ _cho_solve(chol, c))
    except np.linalg.LinAlgError:
        return _result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan, 0)
    tau, kappa = 1.0, 1.0

    best = None
    stall = 0
    for it in range(_MAX_ITER):
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(z)):
            return _result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan, it)

        # convergence on the de-homogenized point
        xh, sh, zh = x / tau, s / tau, z / tau
        pres = _norm(split.matvec(xh) + sh - h) / norm_h
        dres = _norm(split.rmatvec(zh) + c) / norm_c
        pobj = c @ xh
        gap_abs = sh @ zh
        relgap = abs(gap_abs) / max(1.0, abs(pobj))
        if pres <= tol and dres <= tol and relgap <= tol:
            return _result(SolveStatus.OPTIMAL, xh, float(pobj), float(pres), float(dres),
                           float(max(gap_abs, 0.0)), it)
        merit = pres + dres + relgap
        if best is None or merit < best[0] * 0.99:
            stall = 0
        else:
            stall += 1
        if best is None or merit < best[0]:
            best = (merit, xh.copy(), float(pobj), float(pres), float(dres),
                    float(gap_abs), it)
        if stall >= 8:
            break

        # infeasibility / unboundedness certificates, each re-verified from
        # scratch: the dual ray must be in the cone with G'z ~ 0, and the
        # primal ray's implied slack -G x must itself lie in the cone
        hz = h @ z
        cx = c @ x
        if hz < -1e-10:
            zc = z / (-hz)
            if (np.linalg.norm(G.T @ zc) <= 1e-9 * norm_c
                    and _min_cone_margin(lay, zc) >= -1e-9):
                return _result(SolveStatus.INFEASIBLE, None, np.nan,
                               float(np.linalg.norm(G.T @ zc)), np.nan, np.nan, it)
        if cx < -1e-10:
            xc = x / (-cx)
            ray_slack = -G @ xc
            if _min_cone_margin(lay, ray_slack) >= -1e-9 * (
                1.0 + np.linalg.norm(ray_slack)
            ):
                return _result(SolveStatus.UNBOUNDED, None, np.nan, np.nan, np.nan, np.nan, it)

        # a diverging iterate cannot certify anything; stop on the best point
        if max(_norm(x), _norm(z)) > 1e12:
            break

        try:
            W = _NTScaling(lay, s, z)
            kkt = _KKT(G, W, split)
        except (FloatingPointError, np.linalg.LinAlgError):
            break
        lam = W.apply(z)
        max_steps = _StepLimit(lay, s, z)
        mu = (s @ z + tau * kappa) / degree

        r1 = split.rmatvec(z) + c * tau      # want 0
        r2 = s + split.matvec(x) - h * tau   # want 0
        r3 = kappa + c @ x + h @ z       # want 0

        u1, v1 = kkt.solve(-c, h)
        denom = (c @ u1 + h @ v1) - kappa / tau

        def direction(ds_rhs: np.ndarray, dkappa_rhs: float, fac: float):
            ds_tilde = _jordan_solve(lay, lam, ds_rhs)
            p = -fac * r1
            q = -fac * r2 - W.apply(ds_tilde)
            u2, v2 = kkt.solve(p, q)
            num = (-fac * r3 - dkappa_rhs / tau) - (c @ u2 + h @ v2)
            dtau = num / denom
            dx = u2 + dtau * u1
            dz = v2 + dtau * v1
            ds = W.apply(ds_tilde - W.apply(dz))
            dkappa = (dkappa_rhs - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkappa

        # predictor
        lam_sq = _jordan_product(lay, lam, lam)
        ds_aff = -lam_sq
        dx_a, dz_a, ds_a, dtau_a, dkap_a = direction(ds_aff, -tau * kappa, 1.0)
        step_s, step_z = max_steps(ds_a, dz_a)
        alpha = min(
            step_s,
            step_z,
            tau / -dtau_a if dtau_a < 0 else np.inf,
            kappa / -dkap_a if dkap_a < 0 else np.inf,
            1.0,
        )
        sigma = float(min(max((1.0 - alpha) ** 3, 0.0), 1.0))

        # corrector
        corr = _jordan_product(lay, W.apply_inv(ds_a), W.apply(dz_a))
        ds_comb = -lam_sq - corr + sigma * mu * e
        dkap_comb = -(tau * kappa) - dtau_a * dkap_a + sigma * mu
        fac = 1.0 - sigma
        dx, dz, ds, dtau, dkap = direction(ds_comb, dkap_comb, fac)

        step_s, step_z = max_steps(ds, dz)
        step = min(
            step_s,
            step_z,
            tau / -dtau if dtau < 0 else np.inf,
            kappa / -dkap if dkap < 0 else np.inf,
        )
        step = _STEP_DAMP * min(step, 1.0 / _STEP_DAMP)
        if not np.isfinite(step) or step <= 1e-14:
            break

        x += step * dx
        z += step * dz
        s += step * ds
        tau += step * dtau
        kappa += step * dkap
    else:
        it = _MAX_ITER
    # it counts the steps taken: a break at index it leaves before that step

    if best is not None:
        _, xh, pobj, pres, dres, gap_abs, _ = best
        relgap = abs(gap_abs) / max(1.0, abs(pobj))
        if pres <= tol and dres <= tol and relgap <= tol:
            return _result(SolveStatus.OPTIMAL, xh, pobj, pres, dres, gap_abs, it)
        if pres <= 1e-6 and dres <= 1e-6:
            # stalled short of full accuracy; report honestly as an iteration limit
            return _result(SolveStatus.ITERATION_LIMIT, xh, pobj, pres, dres, gap_abs, it)
    return _result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan, it)
