"""Primal-dual interior point solver for second-order-cone programs.

Standard conic form with a homogeneous self-dual embedding:

    minimize    c.v
    subject to  G v + s = h,   s in K,

where K is a product of a nonnegative orthant and second-order cones
Q_d = {(u0, u1) : u0 >= ||u1||_2}.  Search directions use Nesterov-Todd
scaling with a Mehrotra predictor-corrector; the embedding yields verified
certificates for infeasible and unbounded problems.  Every solve runs to
residuals and relative gap at most ``_FEAS_TOL`` (1e-8).  There is no
per-call accuracy: the package's SCA loops take only the scaling factors
from each cone solve and re-solve the scaled CVaR LP at them.  The cone
blocks are stored in ascending dimension, so the blocks of one dimension
fill one slice of the stacked vector and every kernel processes them as a
single batch through a reshape of that slice.

Each iteration solves the KKT system through the normal equations
G'W^-2 G, on one of two paths:

* dense: G is a dense matrix and G'W^-2 G is formed and Cholesky-factored
  whole, at O(m n^2) per iteration.  Specs without a column partition, and
  partitioned ones with fewer than ``_MIN_BLOCKS`` blocks, take it.
* block: a spec's ``partition`` splits the columns into global ones and
  small local blocks that each cone touches at most one of (the SCA
  subproblems: (x, beta) global, (s_i, alpha_i) per scenario).  Every row
  keeps only its global and own-block coefficients; the 1x1/2x2 local
  blocks are inverted in closed form, the few rows that couple blocks (the
  risk row) add one rank-one term each, and only the global columns'
  reduced system is Cholesky-factored, at O(N n^2) per iteration for N
  blocks.

Both paths refine every KKT solve against the residual of the unscaled
system, and the u-solve for (-c, h) shares each operation with the
predictor's solve.

Warm start: an OPTIMAL result privately carries its de-homogenized dual,
divided by the equilibration, and the layout of its spec.  Given a primal
point x0 and that result, a spec of the same layout starts from the blend
lambda * (x0, h - G x0, the dual times the new equilibration, tau = 1,
kappa = 0) + (1 - lambda) * (the cold start), lambda = ``_WARM_WEIGHT``
(Skajaa, Andersen & Ye, Math. Prog. Comp. 2013).  Another layout, a result
that is not OPTIMAL, or a blended s or z that is not strictly inside K falls
back to the cold start.  The iterations, exits and certificates that follow
are the same for either start.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .types import ConeStack, SocpSpec, SolveResult, SolveStatus

__all__ = ["solve_socp"]

_MAX_ITER = 200
_FEAS_TOL = 1e-8
_STEP_DAMP = 0.99
_REG = 1e-12
# Weight of the previous solution in a warm start (see ``solve_socp``).  Over
# the SCA loops of 120 corpus instances and 80 trend-shape instances (portfolio
# n = 20, N = 50), the IPM iterations against cold starts were 75/77 % at 0.9,
# 69/73 % at 0.99, 66/69 % at 0.999 and 66/69 % at 0.9999, every solve OPTIMAL.
_WARM_WEIGHT = 0.999
# Fewest local blocks for which the block-eliminated KKT solve is used.  On
# SCA subproblems of portfolio instances (n = 5 and 20, one BLAS thread) its
# time per iteration over the dense path's was 1.3-1.6 at N = 12, 1.0-1.25 at
# N = 40, 0.94-1.03 at N = 50 and 0.75 at N = 70; below that, numpy's
# per-call cost outweighs the smaller factorization.
_MIN_BLOCKS = 50

# LAPACK Cholesky factor/solve, called directly: the problems are small, so
# the per-call checks of scipy's cho_factor/cho_solve wrappers cost more than
# the factorization itself
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.zeros((1, 1)),))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector (numpy's own formula, without its dispatch)."""
    return math.sqrt(v.dot(v))


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of a vector, or of each row of a stack."""
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def _cho_factor(M: np.ndarray) -> np.ndarray:
    c, info = _POTRF(M, lower=0, overwrite_a=0, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (info={info})")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve with the factor ``c`` for b, or for each row of a 2-D b."""
    if b.size == 0:
        return np.empty_like(b)
    x, info = _POTRS(c, b.T, lower=0, overwrite_b=0)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x.T


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
        """Block matrix (B, d) for dimension-d cones, or (k, B, d) for a
        stack u of k vectors: a view of the stacked array, so writing to it
        writes to ``u``."""
        return u[..., self.groups[d]].reshape(u.shape[:-1] + (-1, d))

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
        # per group: (d, w0, w1, -w1, eta, 1/eta, 1/(1 + w0)), wbar = (w0, w1),
        # eta and 1/eta as (B, 1) columns
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
            eta = ((rs / rz) ** 0.25)[:, None]
            w0, w1 = wb[:, 0], wb[:, 1:]
            self.blocks.append((d, w0, w1, -w1, eta, 1.0 / eta, 1.0 / (1.0 + w0)))

    def _apply(self, u: np.ndarray, inverse: bool) -> np.ndarray:
        """eta^{+-1} H(+-wbar) blockwise (the orthant part is diagonal), to a
        vector or to each row of a stack of vectors."""
        lay = self.lay
        out = np.empty_like(u)
        l = lay.l
        if inverse:
            np.divide(u[..., :l], self.w_lin, out=out[..., :l])
        else:
            np.multiply(u[..., :l], self.w_lin, out=out[..., :l])
        for d, w0, w1p, w1n, eta, inv_eta, inv_opw0 in self.blocks:
            w1 = w1n if inverse else w1p
            U, res = lay.view(u, d), lay.view(out, d)
            U0, U1 = U[..., 0], U[..., 1:]
            inner = np.einsum("bk,...bk->...b", w1, U1)
            np.multiply(w0, U0, out=res[..., 0])
            res[..., 0] += inner
            res[..., 1:] = U1 + (U0 + inner * inv_opw0)[..., None] * w1
            res *= inv_eta if inverse else eta
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self._apply(u, inverse=False)

    def apply_inv(self, u: np.ndarray) -> np.ndarray:
        return self._apply(u, inverse=True)

    def apply_sq(self, u: np.ndarray) -> np.ndarray:
        """W^2 u in one pass: eta^2 (2 wbar wbar' - J) u per block, with
        J = diag(1, -1, ..., -1) (the quadratic representation of wbar)."""
        lay = self.lay
        out = np.empty_like(u)
        l = lay.l
        np.multiply(u[..., :l], self.w_lin * self.w_lin, out=out[..., :l])
        for d, w0, w1, _, eta, _, _ in self.blocks:
            U, res = lay.view(u, d), lay.view(out, d)
            t = 2.0 * (w0 * U[..., 0] + np.einsum("bk,...bk->...b", w1, U[..., 1:]))
            np.multiply(t, w0, out=res[..., 0])
            res[..., 0] -= U[..., 0]
            res[..., 1:] = t[..., None] * w1 + U[..., 1:]
            res *= eta * eta
        return out

    def scale_rows(self, G: np.ndarray) -> np.ndarray:
        """W^-1 G (apply W^-1 to every column at once)."""
        return self.apply_inv(G.T).T


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


def _cone_groups(cones) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The cone blocks as stacked (F, f, g, h), one group per row count in
    ascending order; blocks of equal dimension keep their order."""
    if isinstance(cones, ConeStack):
        return [(cones.F, cones.f, cones.g, cones.h)] if len(cones) else []
    groups = []
    for r in sorted({cone.F.shape[0] for cone in cones}):
        blk = [cone for cone in cones if cone.F.shape[0] == r]
        groups.append((np.stack([cone.F for cone in blk]), np.stack([cone.f for cone in blk]),
                       np.stack([cone.g for cone in blk]), np.array([cone.h for cone in blk])))
    return groups


def _assemble(spec: SocpSpec):
    """Flatten linear rows, bounds, and cone blocks into (c, rows, h, layout).

    The cones are written in ascending dimension, which makes each batch one
    slice.  The rows are split by ``spec.partition`` when it has at least
    ``_MIN_BLOCKS`` local blocks, and kept dense otherwise; each row is
    written straight into its split form, so a partitioned spec never
    becomes one dense matrix.
    """
    n = spec.n
    part = spec.partition
    if part is None or part.max(initial=-1) + 1 < _MIN_BLOCKS:
        part = np.full(n, -1)
    cols = _Columns(part)
    own = cols.owners(spec.A != 0)
    rows = [(cols.gather(spec.A, own), own)]
    h_parts = [spec.b]
    for sign, bound in ((-1.0, spec.lb), (1.0, spec.ub)):
        j = np.flatnonzero(np.isfinite(bound))
        if j.size:
            Gc = np.zeros((j.size, cols.width))
            Gc[np.arange(j.size), cols.pos[j]] = sign
            rows.append((Gc, part[j]))
            h_parts.append(sign * bound[j])
    l = sum(Gc.shape[0] for Gc, _ in rows)
    soc_dims = []
    for F, f, g, h in _cone_groups(spec.cones):
        B, r = f.shape
        own = cols.owners(np.concatenate((g[:, None, :], F), axis=1) != 0)
        if np.any(own == -2):
            raise ValueError("a cone block touches more than one local column block")
        Gc = cols.gather(np.concatenate((-g[:, None, :], -F), axis=1), own)
        rows.append((Gc.reshape(B * (r + 1), -1), np.repeat(own, r + 1)))
        h_parts.append(np.concatenate((h[:, None], f), axis=1).ravel())
        soc_dims += [r + 1] * B
    Gc = np.vstack([Gc for Gc, _ in rows])
    own = np.concatenate([own for _, own in rows])
    h = np.concatenate(h_parts)
    lay = _ConeLayout.build(l, soc_dims)
    # the coupling rows (all from A) keep their local coefficients densely
    cpl = np.flatnonzero(own == -2)
    Rl = cols.local(spec.A[cpl])

    # block-aware equilibration: one positive factor per orthant row and per
    # cone block (uniform within a block, so membership in K is unchanged)
    d = np.ones(lay.m)
    if lay.l:
        mx = np.max(np.abs(Gc[: lay.l]), axis=1, initial=0.0)
        mx[cpl] = np.maximum(mx[cpl], np.max(np.abs(Rl), axis=1, initial=0.0))
        d[: lay.l] = np.maximum(1.0, np.maximum(mx, np.abs(h[: lay.l])))
    for k in lay.groups:
        blk = np.maximum(
            np.abs(lay.view(Gc.T, k)).max(axis=(0, 2)), np.abs(lay.view(h, k)).max(axis=1)
        )
        lay.view(d, k)[:] = np.maximum(1.0, blk)[:, None]
    Gc /= d[:, None]
    Rl /= d[cpl, None]
    block_rows = _BlockRows.build(Gc, Rl, own, cols, lay)
    return block_rows.to_internal(spec.c), block_rows, h / d, d, lay


class _Columns:
    """The split of the columns by a partition: the ng global columns, then
    the local blocks, each padded to the largest block's size L.

    ``lcols`` holds each block's columns in ascending order (-1 pads) and
    ``pos`` each column's place in a split row [global | own block].
    """

    def __init__(self, part: np.ndarray):
        self.part = part
        self.gcols = np.flatnonzero(part < 0)
        self.loc = np.flatnonzero(part >= 0)
        nb = int(part.max(initial=-1)) + 1
        counts = np.bincount(part[self.loc], minlength=nb)
        order = self.loc[np.argsort(part[self.loc], kind="stable")]
        slot = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self.lcols = np.full((nb, int(counts.max(initial=0))), -1)
        self.lcols[part[order], slot] = order
        self.pos = np.empty(part.size, dtype=int)
        self.pos[self.gcols] = np.arange(self.gcols.size)
        self.pos[order] = self.gcols.size + slot
        self.width = self.gcols.size + self.lcols.shape[1]

    def owners(self, touch: np.ndarray) -> np.ndarray:
        """The local block each row (or each stack of rows, the last axis
        but one) of a nonzero pattern touches: -1 for none, -2 for several."""
        if touch.ndim == 3:
            touch = touch.any(axis=1)
        nb = self.lcols.shape[0]
        blocks = np.where(touch[:, self.loc], self.part[self.loc], -1)
        hi = blocks.max(axis=1, initial=-1)
        lo = np.where(blocks < 0, nb, blocks).min(axis=1, initial=nb)
        return np.where(lo < hi, -2, hi)

    def gather(self, R: np.ndarray, own: np.ndarray) -> np.ndarray:
        """The split rows of R (r x n, or stacks B x d x n) whose owners are
        ``own``: each keeps the local coefficients of its own block, and a
        row of several blocks only its global ones."""
        if self.lcols.size:
            lc = self.lcols[np.maximum(own, 0)]
        else:
            lc = np.zeros(own.shape + (0,), dtype=int)
        keep = (lc >= 0) & (own >= 0)[:, None]
        if R.ndim == 3:
            lc, keep = lc[:, None, :], keep[:, None, :]
        lc = np.broadcast_to(np.maximum(lc, 0), R.shape[:-1] + lc.shape[-1:])
        Gl = np.take_along_axis(R, lc, axis=-1) * keep
        return np.concatenate((R[..., self.gcols], Gl), axis=-1)

    def local(self, R: np.ndarray) -> np.ndarray:
        """The local coefficients of rows R over all blocks, padding 0."""
        flat = self.lcols.ravel()
        return R[:, np.maximum(flat, 0)] * (flat >= 0)


class _BlockRows:
    """The rows of G with the columns split into global ones and local blocks.

    Internal vectors over the columns are ordered [global | block 0 | block
    1 | ...], each local block padded with zeros to L entries.  Row r keeps
    its coefficients on the ng global columns and on the L columns of its own
    block ``blk[r]`` in ``Gc = [Gg | Gl]`` (Gl is zero for rows without a
    block).  The orthant rows that touch several blocks (``cpl``) keep their
    local coefficients densely in ``Rl``.  With no blocks, Gc is G itself.
    """

    def __init__(self, Gc, Rl, ng, nb, L, blk, cpl, cols, grows, groups):
        self.ng, self.nb, self.L, self.blk = ng, nb, L, blk
        self.cpl, self.cols, self.grows = cpl, cols, grows
        self.groups = groups  # (nb, R) rows of each block, and their 0/1 mask
        # internal index of the local entries each row reads
        self.lflat = ng + blk[:, None] * L + np.arange(L)
        self.n = cols.size - np.count_nonzero(cols == -1)
        # (block, slot) of every padding entry
        self.pads = np.nonzero(cols[ng:].reshape(nb, L) < 0)
        self._set(Gc, Rl)

    def _set(self, Gc: np.ndarray, Rl: np.ndarray) -> None:
        idx, mask = self.groups
        self.Gc, self.Rl = Gc, Rl
        self.H = Gc[idx] * mask[:, :, None]  # (nb, R, ng + L): each block's rows
        self.Hl = np.ascontiguousarray(self.H[:, :, self.ng:])

    @classmethod
    def build(cls, Gc, Rl, own, cols: _Columns, lay: _ConeLayout) -> "_BlockRows":
        """Split rows Gc with owners ``own`` (-2 for the coupling rows,
        whose local coefficients are Rl)."""
        m = Gc.shape[0]
        ng, (nb, L) = cols.gcols.size, cols.lcols.shape
        coupled = own == -2
        hi = np.where(coupled, -1, own)
        # rows in the Gram of the global columns: all but the coupling rows
        # and the orthant rows without a global coefficient
        grows = np.flatnonzero(~coupled & ((np.arange(m) >= lay.l)
                                          | np.any(Gc[:, :ng] != 0, axis=1)))
        if grows.size == m:
            grows = slice(None)
        # the rows of each block, padded to a common count R
        members = np.flatnonzero(hi >= 0)
        by_block = members[np.argsort(hi[members], kind="stable")]
        per = np.bincount(hi[members], minlength=nb)
        R = int(per.max(initial=0))
        where = (hi[by_block], np.arange(by_block.size) - np.repeat(np.cumsum(per) - per, per))
        idx = np.zeros((nb, R), dtype=int)
        mask = np.zeros((nb, R))
        idx[where] = by_block
        mask[where] = 1.0
        return cls(Gc, Rl, ng, nb, L, np.maximum(hi, 0), np.flatnonzero(coupled),
                   np.concatenate((cols.gcols, cols.lcols.ravel())), grows, (idx, mask))

    def to_internal(self, v: np.ndarray) -> np.ndarray:
        """A vector over the spec's columns in the internal order (padding 0)."""
        return np.where(self.cols >= 0, v[np.maximum(self.cols, 0)], 0.0)

    def to_spec(self, u: np.ndarray) -> np.ndarray:
        """An internal vector over the spec's columns."""
        out = np.empty(self.n)
        real = self.cols >= 0
        out[self.cols[real]] = u[real]
        return out

    def scaled(self, W: "_NTScaling") -> "_BlockRows":
        """The same split over the NT-scaled rows W^-1 G; every row keeps its
        block, because W^-1 mixes only the rows of one cone."""
        other = copy.copy(self)
        other._set(W.scale_rows(self.Gc), self.Rl / W.w_lin[self.cpl, None])
        return other

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """G @ u, or G @ u[k] for each row of a stack u."""
        ng = self.ng
        out = u[..., :ng] @ self.Gc[:, :ng].T
        if self.nb:
            out += np.einsum("...rl,rl->...r", u[..., self.lflat], self.Gc[:, ng:])
            out[..., self.cpl] += u[..., ng:] @ self.Rl.T
        return out

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """G.T @ w, or G.T @ w[k] for each row of a stack w."""
        ng = self.ng
        if not self.nb:
            return w @ self.Gc
        out = np.empty(w.shape[:-1] + (ng + self.Rl.shape[1],))
        out[..., :ng] = w @ self.Gc[:, :ng]
        loc = np.matmul(w[..., self.groups[0]][..., None, :], self.Hl)  # (..., nb, 1, L)
        out[..., ng:] = loc.reshape(out[..., ng:].shape) + w[..., self.cpl] @ self.Rl
        return out


class _BlockFactor:
    """Solver for the normal equations (G'G + ridge) u = b of split rows.

    The local blocks are eliminated in closed form, leaving the ng x ng
    reduced system S of the global columns for Cholesky.  A coupling row r
    enters as an extra unknown w = r.u, eliminated after the local blocks
    with the pivot 1 + r_l' D^-1 r_l >= 1, which adds a rank-one term to S;
    inverting the uncoupled matrix instead (Sherman-Morrison) would lose the
    directions that only an active coupling row pins down.  The ridge adds
    _REG * (1 + M_jj) to each diagonal entry of M = G'G, so it stays small
    beside the small entries of M (a ridge scaled by the mean diagonal
    swamps them once the diagonal spans many orders of magnitude).
    """

    def __init__(self, rows: _BlockRows):
        self.rows = rows
        ng, nb, L = rows.ng, rows.nb, rows.L
        Gg = rows.Gc[rows.grows, :ng]
        S = Gg.T @ Gg
        Rg = rows.Gc[rows.cpl, :ng]
        j = np.arange(ng)
        S[j, j] += _REG * (1.0 + S[j, j] + np.einsum("kj,kj->j", Rg, Rg))
        if nb:
            H = rows.H
            K = np.matmul(H[:, :, ng:].transpose(0, 2, 1), H)     # (nb, L, ng + L)
            D = K[:, :, ng:]
            k = np.arange(L)
            Rl = rows.Rl
            D[:, k, k] += _REG * (1.0 + D[:, k, k]
                                  + np.einsum("kj,kj->j", Rl, Rl).reshape(nb, L))
            D[rows.pads[0], rows.pads[1], rows.pads[1]] = 1.0
            self.Dinv = _inv_small(D)
            self.C = K[:, :, :ng].reshape(nb * L, ng)
            self.Y = np.matmul(self.Dinv, K[:, :, :ng]).reshape(nb * L, ng)  # D^-1 C
            S -= self.C.T @ self.Y
            if rows.cpl.size:
                self.Zl = self._local(Rl)                          # (D^-1 Rl')'
                self.E = Rg - Rl @ self.Y
                # k x k and >= I: its inverse is accurate and cheaper to apply
                eye = np.eye(Rl.shape[0])
                self.cap_inv = _cho_solve(_cho_factor(eye + Rl @ self.Zl.T), eye)
                S += self.E.T @ self.cap_inv @ self.E
        self.chol = _cho_factor(S)

    def _local(self, v: np.ndarray) -> np.ndarray:
        """D^-1 v over the local entries (the last axis of v)."""
        rows = self.rows
        V = v.reshape(v.shape[:-1] + (rows.nb, rows.L))
        return np.einsum("bij,...bj->...bi", self.Dinv, V).reshape(v.shape)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution for b, or for each row of a stack b."""
        rows = self.rows
        ng = rows.ng
        if not rows.nb:
            return _cho_solve(self.chol, b)
        t = self._local(b[..., ng:])
        g = b[..., :ng] - t @ self.C
        if not rows.cpl.size:
            ug = _cho_solve(self.chol, g)
            return np.concatenate((ug, t - ug @ self.Y.T), axis=-1)
        a = t @ rows.Rl.T
        ug = _cho_solve(self.chol, g - a @ self.cap_inv @ self.E)
        w = (ug @ self.E.T + a) @ self.cap_inv
        return np.concatenate((ug, t - ug @ self.Y.T - w @ self.Zl), axis=-1)


def _inv_small(D: np.ndarray) -> np.ndarray:
    """Inverses of a stack of small symmetric positive definite blocks,
    in closed form up to 2 x 2."""
    L = D.shape[1]
    if L == 1:
        return 1.0 / D
    if L == 2:
        det = D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 0, 1]
        inv = np.empty_like(D)
        inv[:, 0, 0], inv[:, 1, 1] = D[:, 1, 1] / det, D[:, 0, 0] / det
        inv[:, 0, 1] = inv[:, 1, 0] = -D[:, 0, 1] / det
        return inv
    return np.linalg.inv(D)


class _KKT:
    """Factorized core system [[0, G'], [G, -W^2]] via the normal equations
    of the scaled rows W^-1 G."""

    def __init__(self, rows: _BlockRows, W: _NTScaling):
        self.W = W
        self.rows = rows
        self.scaled = rows.scaled(W)
        self.factor = _BlockFactor(self.scaled)

    def _solve_raw(self, p: np.ndarray, q: np.ndarray):
        Winv_q = self.W.apply_inv(q)
        u = self.factor.solve(p + self.scaled.rmatvec(Winv_q))
        v = self.W.apply_inv(self.scaled.matvec(u) - Winv_q)
        return u, v

    def solve(self, p: np.ndarray, q: np.ndarray):
        """Return (u, v) with G'v = p and G u - W^2 v = q, for one right-hand
        side or for each row of stacked ones (iterative refinement, which a
        row leaves once its residual is tiny or stops halving)."""
        u, v = self._solve_raw(p, q)
        scale = 1.0 + _norms(p) + _norms(q)
        prev = np.inf
        for _ in range(2):
            rp = p - self.rows.rmatvec(v)
            rq = q - (self.rows.matvec(u) - self.W.apply_sq(v))
            err = np.maximum(_norms(rp), _norms(rq))
            going = (err > 1e-13 * scale) & (err < 0.5 * prev)
            if not going.any():
                break
            prev = err
            du, dv = self._solve_raw(rp, rq)
            if not going.all():
                du[~going], dv[~going] = 0.0, 0.0
            u += du
            v += dv
        return u, v


def _result(status, z, obj, pres, dres, gap, iters, dual=None) -> SolveResult:
    return SolveResult(
        status=status,
        z=z,
        objective=obj,
        primal_residual=pres,
        dual_residual=dres,
        duality_gap=gap,
        iterations=iters,
        _warm=dual,
    )


@dataclass(frozen=True)
class _Dual:
    """An optimal solve's de-homogenized dual over the rows of its spec,
    divided by the equilibration, and the layout of that spec."""

    layout: tuple
    z: np.ndarray


def _layout(spec: SocpSpec, lay: _ConeLayout) -> tuple:
    """What a warm start's spec must share: columns, rows, cone blocks and
    partition."""
    part = spec.partition
    return (spec.n, spec.A.shape[0], np.isfinite(spec.lb).tobytes(),
            np.isfinite(spec.ub).tobytes(), lay.groups,
            None if part is None else part.tobytes())


def solve_socp(spec: SocpSpec, *,
               warm: tuple[np.ndarray, SolveResult] | None = None) -> SolveResult:
    """Solve the SOCP to residuals and relative gap at most ``_FEAS_TOL``; a
    stalled point with residuals at most 1e-6 comes back as ITERATION_LIMIT.

    ``warm = (x0, result)`` is a primal point over the spec's columns and an
    earlier OPTIMAL result of a spec with the same columns, rows, cone blocks
    and partition.  The solve starts from lambda * (x0 and its slack, the
    result's dual, tau = 1, kappa = 0) + (1 - lambda) * (the cold start), with
    lambda = ``_WARM_WEIGHT`` = 0.999, chosen by measurement (Skajaa,
    Andersen & Ye, "Warmstarting the homogeneous and self-dual interior point
    method for linear and conic quadratic problems", Math. Prog. Comp. 2013).
    Another layout, a result that is not OPTIMAL, or a blended slack or dual
    not strictly inside the cone gives the cold start; ``warm=None`` is the
    cold start, bit for bit.  Exits, tolerances and certificates are the same
    for either start.
    """
    # boundary iterates can transiently produce inf/nan; every such case is
    # caught explicitly, so silence the intermediate floating-point warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _solve_socp(spec, warm)


def _warm_start(spec, warm, rows, h, d, lay, cold):
    """The blended start (x, s, z) of ``solve_socp``'s ``warm``, or None
    where it falls back to the cold start ``cold``."""
    x0, prev = warm
    x0 = np.asarray(x0, dtype=float)
    dual = prev._warm
    if (prev.status != SolveStatus.OPTIMAL or not isinstance(dual, _Dual)
            or x0.shape != (spec.n,) or dual.layout != _layout(spec, lay)):
        return None
    xw = rows.to_internal(x0)
    point = (xw, h - rows.matvec(xw), dual.z * d)
    x, s, z = (_WARM_WEIGHT * u + (1.0 - _WARM_WEIGHT) * v for u, v in zip(point, cold))
    if not (np.all(np.isfinite(x)) and _min_cone_margin(lay, s) > 0.0
            and _min_cone_margin(lay, z) > 0.0):
        return None
    return x, s, z


def _solve_socp(spec: SocpSpec, warm) -> SolveResult:
    n = spec.n
    c, rows, h, d, lay = _assemble(spec)
    m = lay.m
    if m == 0:
        return _result(SolveStatus.UNBOUNDED if np.any(c != 0) else SolveStatus.OPTIMAL,
                       np.zeros(n), 0.0, 0.0, 0.0, 0.0, 0)

    norm_h = 1.0 + _norm(h)
    norm_c = 1.0 + _norm(c)
    e = lay.identity()
    degree = lay.degree + 1  # tau/kappa pair counts once

    try:
        normal = _BlockFactor(rows)
        x = normal.solve(rows.rmatvec(h))
        s = _shift_into_cone(lay, h - rows.matvec(x))
        z = _shift_into_cone(lay, -rows.matvec(normal.solve(c)))
    except np.linalg.LinAlgError:
        return _result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan, 0)
    tau, kappa = 1.0, 1.0
    start = None if warm is None else _warm_start(spec, warm, rows, h, d, lay, (x, s, z))
    if start is not None:
        x, s, z = start
        kappa = 1.0 - _WARM_WEIGHT

    best = None
    stall = 0
    for it in range(_MAX_ITER):
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(z)):
            return _result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan, it)

        # G x and G'z serve the residuals, the certificates and the
        # right-hand sides of this iteration
        Gx, Gz = rows.matvec(x), rows.rmatvec(z)

        # convergence on the de-homogenized point
        xh, sh, zh = x / tau, s / tau, z / tau
        pres = _norm(Gx / tau + sh - h) / norm_h
        dres = _norm(Gz / tau + c) / norm_c
        pobj = c @ xh
        gap_abs = sh @ zh
        relgap = abs(gap_abs) / max(1.0, abs(pobj))
        if pres <= _FEAS_TOL and dres <= _FEAS_TOL and relgap <= _FEAS_TOL:
            return _result(SolveStatus.OPTIMAL, rows.to_spec(xh), float(pobj), float(pres),
                           float(dres), float(max(gap_abs, 0.0)), it,
                           _Dual(_layout(spec, lay), zh / d))
        merit = pres + dres + relgap
        if best is None or merit < best[0] * 0.99:
            stall = 0
        else:
            stall += 1
        if best is None or merit < best[0]:
            best = (merit, xh, float(pobj), float(pres), float(dres),
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
            ray_res = _norm(Gz) / -hz
            if ray_res <= 1e-9 * norm_c and _min_cone_margin(lay, zc) >= -1e-9:
                return _result(SolveStatus.INFEASIBLE, None, np.nan, ray_res, np.nan, np.nan, it)
        if cx < -1e-10:
            ray_slack = Gx / cx  # -G x / (-c.x)
            if _min_cone_margin(lay, ray_slack) >= -1e-9 * (
                1.0 + np.linalg.norm(ray_slack)
            ):
                return _result(SolveStatus.UNBOUNDED, None, np.nan, np.nan, np.nan, np.nan, it)

        # a diverging iterate cannot certify anything; stop on the best point
        if max(_norm(x), _norm(z)) > 1e12:
            break

        try:
            W = _NTScaling(lay, s, z)
            kkt = _KKT(rows, W)
        except (FloatingPointError, np.linalg.LinAlgError):
            break
        lam = W.apply(z)
        max_steps = _StepLimit(lay, s, z)
        mu = (s @ z + tau * kappa) / degree

        r1 = Gz + c * tau      # want 0
        r2 = s + Gx - h * tau  # want 0
        r3 = kappa + c @ x + h @ z       # want 0

        # the predictor's system is solved together with the one for (-c, h),
        # which both directions combine with.  Its ds_tilde solves
        # lam o ds_tilde = -lam o lam, so it is -lam, and W(-lam) = -s
        lam_sq = _jordan_product(lay, lam, lam)
        dst_a, wdst_a = -lam, -s
        (u1, u2), (v1, v2) = kkt.solve(np.stack((-c, -r1)), np.stack((h, -r2 - wdst_a)))
        denom = (c @ u1 + h @ v1) - kappa / tau

        def direction(u, v, wdst: np.ndarray, fac: float, dkappa_rhs: float):
            """The step from the solution (u, v) for the right-hand side
            (-fac r1, -fac r2 - W ds_tilde), with wdst = W ds_tilde."""
            num = (-fac * r3 - dkappa_rhs / tau) - (c @ u + h @ v)
            dtau = num / denom
            dx = u + dtau * u1
            dz = v + dtau * v1
            ds = wdst - W.apply_sq(dz)
            dkappa = (dkappa_rhs - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkappa

        # predictor
        dx_a, dz_a, ds_a, dtau_a, dkap_a = direction(u2, v2, wdst_a, 1.0, -tau * kappa)
        step_s, step_z = max_steps(ds_a, dz_a)
        alpha = min(
            step_s,
            step_z,
            tau / -dtau_a if dtau_a < 0 else np.inf,
            kappa / -dkap_a if dkap_a < 0 else np.inf,
            1.0,
        )
        sigma = float(min(max((1.0 - alpha) ** 3, 0.0), 1.0))

        # corrector; W^-1 ds_a = ds_tilde_a - W dz_a
        wdz_a = W.apply(dz_a)
        corr = _jordan_product(lay, dst_a - wdz_a, wdz_a)
        ds_comb = -lam_sq - corr + sigma * mu * e
        dkap_comb = -(tau * kappa) - dtau_a * dkap_a + sigma * mu
        fac = 1.0 - sigma
        wdst = W.apply(_jordan_solve(lay, lam, ds_comb))
        u2, v2 = kkt.solve(-fac * r1, -fac * r2 - wdst)
        dx, dz, ds, dtau, dkap = direction(u2, v2, wdst, fac, dkap_comb)

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
    # it counts the steps taken: a break at index it leaves before that step.
    # The loop returns on the first iterate that meets _FEAS_TOL, so the best
    # stored one does not

    if best is not None:
        _, xh, pobj, pres, dres, gap_abs, _ = best
        if pres <= 1e-6 and dres <= 1e-6:
            # stalled short of full accuracy; report honestly as an iteration limit
            return _result(SolveStatus.ITERATION_LIMIT, rows.to_spec(xh), pobj, pres, dres,
                           gap_abs, it)
    return _result(SolveStatus.NUMERICAL_ERROR, None, np.nan, np.nan, np.nan, np.nan, it)
