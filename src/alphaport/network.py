"""One network core for the nodal (KCL) and loop (KVL) equations.

Both descriptions of a one-port solve  A^T w f(A x + s u) = 0,  the
gradient of the co-content  sum_k w_k F(y_k)  at  y = A x + s u  (f the
odd extension of the element law, F its integral, w the multiplicities;
Millar's content/co-content duality).  Nodal: x are the internal node
potentials, A the signed incidence of the live branches over them, s marks
the branches at the driven terminal, u = v_in, y the branch drops.  Loop:
x are the loop currents, A = diag(1/w) L for the loop matrix L,
s = source / w, u = i_in, y the per-element currents.

A is kept in padded-row form: index and value arrays of shape (branches,
most entries in a row), padded with a sentinel column n that gathers a
zero and is cut off every sum, so each product is a gather or a bincount.

Jacobians  A^T diag(g) A  are sparse: two unknowns couple only when they
share a row of A.  The unknowns are therefore grouped once per network
into blocks of consecutive breadth-first levels of that sharing graph
(each component walked from a pseudo-peripheral start).  A level touches
only its neighbouring levels, so the Jacobian is symmetric
block-tridiagonal over the blocks and is solved by block elimination,
numpy only.  A network with fewer than 2 * MIN_BLOCK unknowns is one
dense block.  Several blocks are assembled already equilibrated: the
diagonal comes first, from one bincount of g A^2, and its power-of-two
scaling is folded into the weights of the cell bincount, so the
elimination itself never rescales.

The residual, objective and tolerances at one iterate share one evaluation
of the terms of A x, of y and of the flows.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._newton import EPS, NOISE_MULT, REL_TOL, TINY
from .characteristic import Characteristic

__all__ = ["BlockTridiagonal", "Network"]

# Diagonal bump applied when a sublinear exponent meets a (numerically)
# zero branch value, where the true slope diverges.
SINGULAR_SLOPE_REG = 1e-9
ZERO_DROP = 1e-12
# Guards the tolerance-floor granule when every term forming y_k is 0.
TINY_SCALE = 1e-300
# Fewest unknowns in a level block: merged levels amortize numpy's
# per-call cost on each block's dense solve.
MIN_BLOCK = 32


def _check_drive(f: Characteristic, u: float, name: str) -> None:
    """Reject a drive u whose flow scale f(u) the solver cannot resolve.

    The tolerances are shares of f(u): it must be finite, and REL_TOL * f(u)
    must not fall below TINY, where every residual would count as converged.
    """
    if not u > 0.0:
        raise ValueError(f"{name} must be positive, got {u}")
    try:
        scale = f(u)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"{name} = {u:g} is too large: the law's current there overflows")
    if REL_TOL * scale < TINY:
        raise ValueError(f"{name} = {u:g} is too small: the law's current there, "
                         f"{scale:.3g}, is below what the solver resolves")


def _currents(f: Characteristic, y: np.ndarray) -> np.ndarray:
    """Odd extension sign(y) * f(|y|), vectorized over branches."""
    coef = np.array(f.coefficients)
    expo = np.array(f.exponents)
    ay = np.abs(y)
    mag = (coef[None, :] * ay[:, None] ** expo[None, :]).sum(axis=1)
    return np.sign(y) * mag


def _slopes(f: Characteristic, y: np.ndarray) -> np.ndarray:
    ay = np.abs(y)
    out = np.zeros_like(ay)
    for d, a in f.terms:
        base = np.maximum(ay, ZERO_DROP) if a < 1.0 else ay
        out += d * a * base ** (a - 1.0)
    return out


def _floor_slopes(f: Characteristic, y: np.ndarray, granule: np.ndarray) -> np.ndarray:
    """Slopes evaluated no closer to the origin than one representable step.

    Feeds the per-equation tolerance floor: a sublinear law's value jumps
    by about f(granule) when a near-zero y moves by one ulp of its terms,
    which is far more than slope-at-the-clamp would suggest.
    """
    ay = np.abs(y)
    out = np.zeros_like(ay)
    for d, a in f.terms:
        base = np.maximum(ay, granule)
        out += d * a * base ** (a - 1.0)
    return out


def _integral(f: Characteristic, y: np.ndarray) -> np.ndarray:
    coef = np.array(f.coefficients)
    expo = np.array(f.exponents)
    ay = np.abs(y)
    return (coef[None, :] / (expo[None, :] + 1.0)
            * ay[:, None] ** (expo[None, :] + 1.0)).sum(axis=1)


def _bfs_levels(neighbours: list[list[int]], root: int, mark: list[int],
                stamp: int) -> list[list[int]]:
    """Breadth-first levels from ``root``, marking each reached node with ``stamp``."""
    mark[root] = stamp
    level, levels = [root], []
    while level:
        levels.append(level)
        following = []
        for p in level:
            for q in neighbours[p]:
                if mark[q] != stamp:
                    mark[q] = stamp
                    following.append(q)
        level = following
    return levels


def _level_blocks(n: int, index: np.ndarray) -> list[np.ndarray]:
    """Unknowns in blocks of consecutive breadth-first levels, each sorted.

    Two unknowns are neighbours when they share a row of ``index``.  Each
    component, taken by smallest unknown, is walked from a pseudo-peripheral
    start (George-Liu: the smallest unknown in the last level of a first
    walk), which keeps the levels narrow; levels are then merged in order
    until a block holds MIN_BLOCK unknowns, and a short remainder joins the
    last block.
    """
    if n < 2 * MIN_BLOCK:
        return [np.arange(n)]
    width = index.shape[1]
    p = np.repeat(index, width, axis=1).ravel()
    q = np.tile(index, width).ravel()
    shared = (p < n) & (q < n) & (p != q)
    p, q = np.divmod(np.unique(p[shared] * n + q[shared]), n)
    start = np.searchsorted(p, np.arange(n + 1)).tolist()
    q = q.tolist()
    neighbours = [q[start[i]:start[i + 1]] for i in range(n)]

    mark = [0] * n
    levels: list[list[int]] = []
    for root in range(n):
        if mark[root]:
            continue
        stamp = 2 * root + 1
        far = min(_bfs_levels(neighbours, root, mark, stamp)[-1])
        levels += _bfs_levels(neighbours, far, mark, stamp + 1)

    blocks: list[list[int]] = []
    current: list[int] = []
    for level in levels:
        current += level
        if len(current) >= MIN_BLOCK:
            blocks.append(current)
            current = []
    if current:
        blocks[-1] += current
    return [np.array(sorted(b), dtype=np.intp) for b in blocks]


class _BlockLayout:
    """Where a network's unknowns and the entry pairs of A's rows sit in the
    flat cells of a ``BlockTridiagonal``.

    ``offsets`` are the first cells of D_0.. and then L_0.., the last one
    being the total; ``pair_cell`` is the cell of each ordered pair of
    entries in a row of A's padded form.  Holds no reference to the
    network, so a network's cached matrices do not form a cycle with it.
    """

    def __init__(self, n: int, index: np.ndarray):
        self.n = n
        self.blocks = _level_blocks(n, index)
        sizes = [b.size for b in self.blocks]
        self.sizes = sizes
        self.order = np.concatenate(self.blocks)
        self.slices = [slice(a - m, a) for a, m in zip(accumulate(sizes), sizes)]
        self.offsets = list(accumulate(
            [0] + [m * m for m in sizes] + [m1 * m0 for m0, m1 in zip(sizes, sizes[1:])]))
        # per unknown: its block, its place there and the first cells of its
        # rows in D_k and (from block 1 on) in L_{k-1}; the sentinel column
        # n sits two blocks away from all of them, and its own pairs land
        # in a cell past the end, which is cut off
        total = self.offsets[-1]
        block = np.full(n + 1, -2, dtype=np.intp)
        pos = np.zeros(n + 1, dtype=np.intp)
        d_row = np.full(n + 1, total, dtype=np.intp)
        l_row = np.zeros(n + 1, dtype=np.intp)
        for k, members in enumerate(self.blocks):
            place = np.arange(members.size)
            block[members] = k
            pos[members] = place
            d_row[members] = self.offsets[k] + place * members.size
            if k:
                l_row[members] = self.offsets[len(sizes) + k - 1] + place * sizes[k - 1]
        self.diagonal_cell = (d_row + pos)[:n]

        # each ordered pair of entries in a row adds to one cell: a pair in
        # block k to D_k, a row in block k+1 with a column in block k to
        # L_k; L_k^T pairs and pairs with the sentinel go past the end
        p, q = index[:, :, None], index[:, None, :]
        gap = block[p] - block[q]
        self.pair_cell = np.where(gap == 0, d_row[p] + pos[q],
                                  np.where(gap == 1, l_row[p] + pos[q], total)).ravel()


def _equilibration(diag: np.ndarray) -> np.ndarray:
    """Powers of two that scale a diagonal symmetrically into [0.5, 2)."""
    return np.ldexp(1.0, -(np.frexp(diag)[1] // 2))


class BlockTridiagonal:
    """Symmetric block-tridiagonal matrix J over a network's level blocks.

    ``cells`` holds the diagonal blocks D_k, row-major, then the
    sub-diagonal blocks L_k (rows in block k+1, columns in block k); the
    super-diagonal blocks are L_k^T.  Vectors are indexed by unknown.
    ``diag`` is J's diagonal.  With several blocks the cells hold S J S,
    for the power-of-two ``scale`` S that brings that diagonal into
    [0.5, 2), which is exact: elimination does not pivot across blocks,
    and on strongly graded Jacobians (slopes down to subnormal at large
    exponents) unscaled couplings overflow or swamp the small equations.
    One block is stored as it is (``scale`` None) and solved by one LU
    with partial pivoting.
    """

    def __init__(self, layout: _BlockLayout, cells: np.ndarray, diag: np.ndarray,
                 scale: np.ndarray | None):
        self.layout = layout
        self.cells = cells
        self.diag = diag
        self.scale = scale

    def _blocks(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Views of the D_k and L_k in ``cells``."""
        cells, sizes, offsets = self.cells, self.layout.sizes, self.layout.offsets
        d = [cells[o:o + m * m].reshape(m, m) for o, m in zip(offsets, sizes)]
        low = [cells[o:o + m1 * m0].reshape(m1, m0)
               for o, m0, m1 in zip(offsets[len(sizes):], sizes, sizes[1:])]
        return d, low

    def diagonal(self) -> np.ndarray:
        return self.diag

    def ridged(self, add) -> "BlockTridiagonal":
        """A copy with ``add`` (scalar or per unknown) added to the diagonal."""
        diag = self.diag + add
        cells = self.cells.copy()
        if self.scale is None:
            cells[self.layout.diagonal_cell] += add
            return BlockTridiagonal(self.layout, cells, diag, None)
        # rescale to the ridged diagonal's powers of two (an exact ratio),
        # multiplying in turn where a product of factors could overflow
        scale = _equilibration(diag)
        ratio = scale / self.scale
        out = BlockTridiagonal(self.layout, cells, diag, scale)
        d, low = out._blocks()
        r = [ratio[members] for members in self.layout.blocks]
        for dk, rk in zip(d, r):
            dk *= rk[:, None]
            dk *= rk
        for lk, r0, r1 in zip(low, r, r[1:]):
            lk *= r1[:, None]
            lk *= r0
        cells[self.layout.diagonal_cell] = diag * scale * scale
        return out

    def pinned(self, dead: np.ndarray) -> "BlockTridiagonal":
        """A copy whose ``dead`` rows and columns are those of the identity."""
        scale = None if self.scale is None else np.where(dead, 1.0, self.scale)
        out = BlockTridiagonal(self.layout, self.cells.copy(), np.where(dead, 1.0, self.diag), scale)
        d, low = out._blocks()
        for k, members in enumerate(self.layout.blocks):
            idx = np.flatnonzero(dead[members])
            d[k][idx, :] = 0.0
            d[k][:, idx] = 0.0
            d[k][idx, idx] = 1.0
            if k:
                low[k - 1][idx, :] = 0.0
            if k < len(low):
                low[k][:, idx] = 0.0
        return out

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The solution x of J x = r by block elimination (block Thomas).

        Each Schur complement S_k is solved once against [L_k^T | y_k];
        raises ``np.linalg.LinAlgError`` when one is singular.
        """
        if self.scale is None:
            n = self.layout.n
            return np.linalg.solve(self.cells.reshape(n, n), r)
        d, low = self._blocks()
        perm, slices = self.layout.order, self.layout.slices
        scale = self.scale[perm]
        scaled = r[perm] * scale
        rhs = [scaled[sl] for sl in slices]

        schur, y = d[0], rhs[0]
        eliminated = []
        for lk, dk, rk in zip(low, d[1:], rhs[1:]):
            sol = np.linalg.solve(schur, np.concatenate((lk.T, y[:, None]), axis=1))
            coupling, z = sol[:, :-1], sol[:, -1]
            eliminated.append((coupling, z))
            schur, y = dk - lk @ coupling, rk - lk @ z
        xk = [np.linalg.solve(schur, y)]
        for coupling, z in reversed(eliminated):
            xk.append(z - coupling @ xk[-1])
        x = np.empty_like(r)
        x[perm] = np.concatenate(xk[::-1]) * scale
        return x

    def cholesky_pivots(self) -> np.ndarray:
        """Squared Cholesky pivots of J, each at its unknown, in block order.

        For a positive semidefinite matrix these are the pivots of the full
        factorization in that order; raises ``np.linalg.LinAlgError`` when
        a Schur complement is not positive definite.
        """
        d, low = self._blocks()
        schur = d[0]
        pivots = []
        for lk, dk in zip(low, d[1:]):
            pivots.append(np.diag(np.linalg.cholesky(schur)) ** 2)
            schur = dk - lk @ np.linalg.solve(schur, lk.T)
        pivots.append(np.diag(np.linalg.cholesky(schur)) ** 2)
        out = np.empty(self.layout.n)
        out[self.layout.order] = np.concatenate(pivots)
        return out if self.scale is None else out / self.scale / self.scale


class Network:
    """``A^T w f(A x + s u) = 0`` for one topology, with n unknowns.

    A is given as coordinate triplets (branch ``rows``, unknown ``cols``,
    ``vals``), at most one per row and column below n; entries in column n
    are ignored.  ``s`` and ``w`` have one entry per branch.  ``blocks``
    lists the unknowns of each level block, in elimination order.
    """

    def __init__(self, n: int, rows, cols, vals, s, w):
        rows = np.asarray(rows, dtype=np.intp)
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        self.n = n
        self.s = np.asarray(s, dtype=float)
        self.w = np.asarray(w, dtype=float)
        n_br = self.w.size
        counts = np.bincount(rows, minlength=n_br)
        width = max(int(counts.max(initial=0)), 1)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self.index = np.full((n_br, width), n, dtype=np.intp)
        self.value = np.zeros((n_br, width))
        self.index[rows, slot] = np.asarray(cols, dtype=np.intp)[order]
        self.value[rows, slot] = np.asarray(vals, dtype=float)[order]
        self._abs_value = np.abs(self.value)

        self.layout = _BlockLayout(n, self.index)
        self.blocks = self.layout.blocks
        self._pair_value = self.value[:, :, None] * self.value[:, None, :]
        self._square = self.value * self.value

    def _terms(self, x: np.ndarray) -> np.ndarray:
        return self.value * np.append(x, 0.0)[self.index]

    def _transpose(self, v: np.ndarray, value: np.ndarray | None = None) -> np.ndarray:
        """A^T v (or |A|^T v with ``value=self._abs_value``)."""
        value = self.value if value is None else value
        return np.bincount(self.index.ravel(), (value * v[:, None]).ravel(),
                           minlength=self.n + 1)[:self.n]

    def gram(self, g: np.ndarray) -> BlockTridiagonal:
        """A^T diag(g) A over the level blocks, equilibrated when there are several.

        The diagonal is one bincount of g A^2; its powers of two s are
        folded into the weights of the cell bincount as (g a_p a_q s_p) s_q,
        in that order, so no product leaves the range of its result.
        """
        layout = self.layout
        total = layout.offsets[-1]
        weights = g[:, None, None] * self._pair_value
        if len(self.blocks) == 1:
            cells = np.bincount(layout.pair_cell, weights.ravel(), minlength=total + 1)[:total]
            return BlockTridiagonal(layout, cells, cells[layout.diagonal_cell], None)
        diag = np.bincount(self.index.ravel(), (g[:, None] * self._square).ravel(),
                           minlength=self.n + 1)[:self.n]
        scale = _equilibration(diag)
        s = np.append(scale, 1.0)[self.index]
        weights = weights * s[:, :, None] * s[:, None, :]
        cells = np.bincount(layout.pair_cell, weights.ravel(), minlength=total + 1)[:total]
        return BlockTridiagonal(layout, cells, diag, scale)

    @cached_property
    def linear_gram(self) -> BlockTridiagonal:
        """The f' = 1 matrix A^T diag(w) A of the linear start."""
        return self.gram(self.w)

    def values(self, x: np.ndarray, u: float) -> np.ndarray:
        """y = A x + s u: branch drops (nodal) or element currents (loop)."""
        return self._terms(x).sum(axis=1) + self.s * u

    def flows(self, f: Characteristic, x: np.ndarray, u: float) -> np.ndarray:
        """w f(y): branch currents (nodal) or w times element voltages (loop)."""
        return self.w * _currents(f, self.values(x, u))

    def abs_tol(self, f: Characteristic, u: float) -> float:
        """Flat tolerance at the scale of the drive's own flow, f(u)."""
        return REL_TOL * max(1.0, f(u))

    def linear_start(self, u: float) -> np.ndarray:
        """Solution of the f' = 1 system A^T w (A x + s u) = 0."""
        return self.linear_gram.solve(-self._transpose(self.w * self.s * u))

    def equations(self, f: Characteristic, u: float):
        """residual, jacobian, objective and tolerances of law f at drive u.

        Returned in ``damped_newton``'s positional order.  They share one
        evaluation of the terms of A x, y and the flows per iterate, keyed
        on the iterate's value, since a caller may change x in place.
        """
        w = self.w
        su = self.s * u
        abs_tol = self.abs_tol(f, u)
        sublinear = f.min_exponent < 1.0
        last: list = [None, None]

        def evaluate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            if last[0] is None or not np.array_equal(last[0], x):
                terms = self._terms(x)
                y = terms.sum(axis=1) + su
                last[0], last[1] = x.copy(), (terms, y, w * _currents(f, y))
            return last[1]

        def residual(x: np.ndarray) -> np.ndarray:
            return self._transpose(evaluate(x)[2])

        def jacobian(x: np.ndarray) -> BlockTridiagonal:
            y = evaluate(x)[1]
            J = self.gram(w * _slopes(f, y))
            if sublinear and np.any(np.abs(y) < ZERO_DROP):
                J = J.ridged(SINGULAR_SLOPE_REG)
            return J

        def objective(x: np.ndarray) -> float:
            return float((w * _integral(f, evaluate(x)[1])).sum())

        def tolerances(x: np.ndarray) -> np.ndarray:
            # relative share of the local flow (capped at the flat
            # drive-scale tolerance), plus the roundoff floor of forming
            # each y_k from its terms, a granule of EPS * max |term|
            terms, y, flows = evaluate(x)
            scale = np.maximum(np.abs(terms).max(axis=1), np.abs(su))
            flow = self._transpose(np.abs(flows), self._abs_value)
            slo = w * _floor_slopes(f, y, EPS * np.maximum(scale, TINY_SCALE))
            floor = self._transpose(slo * scale, self._abs_value)
            return np.maximum(np.minimum(REL_TOL * flow, abs_tol),
                              NOISE_MULT * EPS * floor)

        return residual, jacobian, objective, tolerances
