"""One network core for the nodal (KCL) and loop (KVL) equations.

Both descriptions of a one-port solve  A^T w f(A x + s u) = 0,  the
gradient of the co-content  sum_k w_k F(y_k)  at  y = A x + s u  (f the
odd extension of the element law, F its integral, w the multiplicities;
Millar's content/co-content duality).  Nodal: x are the internal node
potentials, A the signed incidence of the live branches over them, s marks
the branches at the driven terminal, u = v_in, y the branch drops.  Loop:
x are the loop currents, A = diag(1/w) L for the loop matrix L,
s = source / w, u = i_in, y the per-element currents.  The law is the
``Characteristic`` passed in, evaluated on all branches at once by its
array methods: ``values`` (f), ``slopes`` (f') and ``integral`` (F).

A ``Network`` solves only at unit drive: drive u of law f is the unit
drive of g(t) = f(u t) / k, k = min(1, f(u)) (``_unit_drive``), whose
unknowns are x / u and whose residuals are f's divided by k.

A is kept in padded-row form: index and value arrays of shape (branches,
most entries in a row), padded with a sentinel column n that gathers a
zero and is cut off every sum, so each product is a gather or a bincount.

Jacobians  A^T diag(g) A  are sparse: two unknowns couple only when they
share a row of A.  The unknowns are therefore grouped once per network
into blocks of consecutive breadth-first levels of that sharing graph
(each component walked from a pseudo-peripheral start).  A level touches
only its neighbouring levels, so the Jacobian is symmetric
block-tridiagonal over the blocks and is solved by block elimination,
numpy only.  Each block lists its unknowns level by level, and block k
meets block k+1 only between its last level and the first level of block
k+1: only that coupling is stored, and an elimination step solves block
k's Schur complement against one column per unknown of that first level
plus the right-hand side, about m^3 + m^2 f for m unknowns and a first
level of f.  A network with fewer than 2 * MIN_BLOCK unknowns is one
dense block.  Several blocks are assembled already equilibrated: the
diagonal comes first, from one bincount of g A^2, and its power-of-two
scaling is folded into the weights of the cell bincount, so the
elimination itself never rescales.  A y_k within NOISE_MULT granules of
the roundoff of its terms has no resolved slope; the Jacobian takes it at
the edge of that band, which also bounds a sublinear law's slope near
zero drop, and the tolerances take it at the edge of one granule.

The residual, Jacobian, objective and tolerances at one iterate share one
evaluation of y, of the flows and of the scale of the terms of each y_k.
``Network.solve`` is the one solve step of both descriptions, continuation
in the exponent included: a predictor-corrector path in t = 1 / (smallest
exponent) from the linear start at t = 1, anchored for nodal solves at
t = 0 by the exponent -> infinity limit that the caller passes in.  It is
also where a solve is judged, for both descriptions: a last law that has
not converged is restarted once from its final iterate, and when that has
not converged either it raises ``SolverError``, named "KCL" or "KVL" after
the network's equations.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._newton import EPS, NOISE_MULT, REL_TOL, TINY, NewtonOutcome, damped_newton, max_iterations
from .characteristic import Characteristic

__all__ = ["BlockTridiagonal", "Network", "SolverError"]

# Smallest exponent above which a cold solve is continued (Network.solve),
# and the exponent of its first law: that law sits at t = 1 / 8 or later,
# so its start is never the limit at t = 0 itself.
CONTINUATION_START = 8.0
# Guards the tolerance-floor granule when every term forming y_k is 0.
TINY_SCALE = 1e-300
# Fewest unknowns in a level block: merged levels amortize numpy's
# per-call cost on each block's dense solve.
MIN_BLOCK = 32


class SolverError(RuntimeError):
    """A solve whose last law did not meet its tolerances, restart included."""


def _unit_drive(f: Characteristic, u: float, name: str) -> tuple[Characteristic, float]:
    """The unit-drive law g(t) = f(u t) / k of drive u, and k = min(1, f(u)).

    g(1) = max(1, f(u)); terms whose current at u underflows are dropped.
    Rejects a drive whose flow scale f(u) the solver cannot resolve: the
    tolerances are shares of it, so it must be finite, and REL_TOL * f(u)
    must not fall below TINY, where every residual would count as converged.
    """
    if not u > 0.0:
        raise ValueError(f"{name} must be positive, got {u}")
    try:
        at_u = [(d * u**a, a) for d, a in f.terms]
        scale = sum(c for c, _ in at_u)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"{name} = {u:g} is too large: the law's current there overflows")
    if REL_TOL * scale < TINY:
        raise ValueError(f"{name} = {u:g} is too small: the law's current there, "
                         f"{scale:.3g}, is below what the solver resolves")
    k = min(1.0, scale)
    return Characteristic(tuple((c / k, a) for c, a in at_u if c > 0.0)), k


def _neighbours(n: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sharing graph of the unknowns in CSR form: unknown p's neighbours
    are ``adjacent[start[p]:start[p + 1]]``, a neighbour repeated once per
    row the two share."""
    width = index.shape[1]
    p = np.repeat(index, width, axis=1).ravel()
    q = np.tile(index, width).ravel()
    shared = (p < n) & (q < n) & (p != q)
    p, q = p[shared], q[shared]
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(p, minlength=n), out=start[1:])
    return start, q[np.argsort(p)]


def _bfs_levels(start: np.ndarray, adjacent: np.ndarray, root: int,
                unseen: np.ndarray) -> list[np.ndarray]:
    """Breadth-first levels from ``root`` over the CSR arrays of
    ``_neighbours``, each sorted; clears ``unseen`` at every unknown reached.

    A level's neighbours are one gather, and the next level is what of them
    is still unseen, read off a mask.
    """
    degree, stop = np.diff(start), start[1:]
    reached = np.zeros(unseen.size, dtype=bool)
    unseen[root] = False
    level, levels = np.array([root]), []
    while level.size:
        levels.append(level)
        count = degree[level]
        ends = np.cumsum(count)
        reached[adjacent[np.repeat(stop[level] - ends, count) + np.arange(ends[-1])]] = True
        reached &= unseen
        level = np.flatnonzero(reached)
        unseen[level] = False
        reached[level] = False
    return levels


def _level_blocks(n: int, index: np.ndarray) -> tuple[list[np.ndarray], list[int], list[int]]:
    """Unknowns in blocks of consecutive breadth-first levels, in level order,
    and the sizes of each block's first and last level.

    Two unknowns are neighbours when they share a row of ``index``.  Each
    component, taken by smallest unknown, is walked from a pseudo-peripheral
    start (George-Liu: the smallest unknown in the last level of a first
    walk), which keeps the levels narrow; levels are then merged in order
    until a block holds MIN_BLOCK unknowns, and a short remainder joins the
    last block.  A level touches only the levels next to it, so block k
    meets block k+1 only between its last level, its trailing slice, and
    the first level of block k+1, its leading slice.  A lone block is kept
    in unknown order.
    """
    if n >= 2 * MIN_BLOCK:
        start, adjacent = _neighbours(n, index)
        unseen = np.ones(n, dtype=bool)
        levels: list[np.ndarray] = []
        root = 0
        while unseen[root]:
            far = int(_bfs_levels(start, adjacent, root, unseen.copy())[-1][0])
            levels += _bfs_levels(start, adjacent, far, unseen)
            root = int(np.argmax(unseen))

        blocks: list[list[np.ndarray]] = []
        current: list[np.ndarray] = []
        size = 0
        for level in levels:
            current.append(level)
            size += level.size
            if size >= MIN_BLOCK:
                blocks.append(current)
                current, size = [], 0
        blocks[-1] += current
        if len(blocks) > 1:
            return ([np.concatenate(b) for b in blocks], [b[0].size for b in blocks],
                    [b[-1].size for b in blocks])
    return [np.arange(n)], [n], [n]


class _BlockLayout:
    """Where a network's unknowns and the entry pairs of A's rows sit in the
    flat cells of a ``BlockTridiagonal``.

    ``offsets`` are the first cells of D_0.. and then L_0.., the last one
    being the total; D_k is m_k x m_k and L_k only (first level of block
    k+1) x (last level of block k), ``couplings`` giving that shape.
    ``pair_cell`` is the cell of each ordered pair of entries in a row of
    A's padded form.  Holds no reference to the network, so a network's
    cached matrices do not form a cycle with it.
    """

    def __init__(self, n: int, index: np.ndarray):
        self.n = n
        self.blocks, leading, trailing = _level_blocks(n, index)
        sizes = [b.size for b in self.blocks]
        self.sizes = sizes
        self.couplings = list(zip(leading[1:], trailing))
        self.order = np.concatenate(self.blocks)
        self.slices = [slice(a - m, a) for a, m in zip(accumulate(sizes), sizes)]
        self.offsets = list(accumulate(
            [0] + [m * m for m in sizes] + [f * l for f, l in self.couplings]))
        # per unknown: its block, its place there, its place in the block's
        # trailing slice and the first cells of its rows in D_k and (in the
        # leading slice of block 1 on) in L_{k-1}; the sentinel column n
        # sits two blocks away from all of them, and its own pairs land in
        # a cell past the end, which is cut off
        total = self.offsets[-1]
        block = np.full(n + 1, -2, dtype=np.intp)
        pos = np.zeros(n + 1, dtype=np.intp)
        tail = np.zeros(n + 1, dtype=np.intp)
        d_row = np.full(n + 1, total, dtype=np.intp)
        l_row = np.zeros(n + 1, dtype=np.intp)
        for k, (members, m) in enumerate(zip(self.blocks, sizes)):
            place = np.arange(m)
            block[members] = k
            pos[members] = place
            tail[members] = place - (m - trailing[k])
            d_row[members] = self.offsets[k] + place * m
            if k:
                f = leading[k]
                l_row[members[:f]] = self.offsets[len(sizes) + k - 1] + place[:f] * trailing[k - 1]
        self.diagonal_cell = (d_row + pos)[:n]

        # each ordered pair of entries in a row adds to one cell: a pair in
        # block k to D_k, a row in block k+1 with a column in block k (the
        # one in its leading, the other in its trailing slice) to L_k;
        # L_k^T pairs and pairs with the sentinel go past the end
        p, q = index[:, :, None], index[:, None, :]
        gap = block[p] - block[q]
        self.pair_cell = np.where(gap == 0, d_row[p] + pos[q],
                                  np.where(gap == 1, l_row[p] + tail[q], total)).ravel()


def _equilibration(diag: np.ndarray) -> np.ndarray:
    """Powers of two that scale a diagonal symmetrically into [0.5, 2)."""
    return np.ldexp(1.0, -(np.frexp(diag)[1] // 2))


class BlockTridiagonal:
    """Symmetric block-tridiagonal matrix J over a network's level blocks.

    ``cells`` holds the diagonal blocks D_k, row-major, then the
    sub-diagonal blocks L_k, row-major too.  L_k holds only the rows of
    the first level of block k+1 (its leading slice) and the columns of
    the last level of block k (its trailing slice): the rest of the
    coupling between the two blocks is zero.  The super-diagonal blocks
    are L_k^T.  Vectors are indexed by unknown.
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
        cells, layout = self.cells, self.layout
        d = [cells[o:o + m * m].reshape(m, m) for o, m in zip(layout.offsets, layout.sizes)]
        low = [cells[o:o + f * l].reshape(f, l)
               for o, (f, l) in zip(layout.offsets[len(d):], layout.couplings)]
        return d, low

    def diagonal(self) -> np.ndarray:
        return self.diag

    def ridged(self, factor: float) -> "BlockTridiagonal":
        """A copy with its diagonal multiplied by 1 + ``factor``.

        The stored diagonal is multiplied alike, so the copy keeps the
        power-of-two ``scale``.
        """
        cells = self.cells.copy()
        cells[self.layout.diagonal_cell] *= 1.0 + factor
        return BlockTridiagonal(self.layout, cells, self.diag * (1.0 + factor), self.scale)

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
                lead = low[k - 1]
                lead[idx[idx < lead.shape[0]], :] = 0.0
            if k < len(low):
                trail = low[k]
                first = members.size - trail.shape[1]
                trail[:, idx[idx >= first] - first] = 0.0
        return out

    def _eliminate(self, b: np.ndarray, pivots: list | None = None):
        """Forward block elimination of J x = b, b given in block order.

        Each Schur complement S_k is solved once against [0; L_k^T | y_k],
        L_k^T filling its trailing rows; the update L_k S_k^{-1} L_k^T is
        subtracted from the leading corner of D_{k+1} only.  Returns the
        last Schur complement, its right-hand side and, per step, the
        solved (coupling, z) pair.  With ``pivots`` a list, the squared
        Cholesky pivots of each Schur complement but the last are appended
        to it.  Raises ``np.linalg.LinAlgError`` when one is singular.
        """
        d, low = self._blocks()
        rhs = [b[sl] for sl in self.layout.slices]
        schur, y = d[0], rhs[0]
        eliminated = []
        for lk, dk, rk in zip(low, d[1:], rhs[1:]):
            if pivots is not None:
                pivots.append(np.diag(np.linalg.cholesky(schur)) ** 2)
            (f, l), first = lk.shape, y.size - lk.shape[1]
            cols = np.zeros((y.size, f + 1))
            cols[first:, :f] = lk.T
            cols[:, f] = y
            sol = np.linalg.solve(schur, cols)
            coupling, z = sol[:, :f], sol[:, f]
            eliminated.append((coupling, z))
            schur, y = dk.copy(), rk.copy()
            schur[:f, :f] -= lk @ coupling[first:]
            y[:f] -= lk @ z[first:]
        return schur, y, eliminated

    def solve(self, r: np.ndarray) -> np.ndarray:
        """The solution x of J x = r by block elimination (block Thomas).

        Raises ``np.linalg.LinAlgError`` when a Schur complement is singular.
        """
        if self.scale is None:
            n = self.layout.n
            return np.linalg.solve(self.cells.reshape(n, n), r)
        perm = self.layout.order
        scale = self.scale[perm]
        schur, y, eliminated = self._eliminate(r[perm] * scale)
        xk = [np.linalg.solve(schur, y)]
        for coupling, z in reversed(eliminated):
            xk.append(z - coupling @ xk[-1][:coupling.shape[1]])
        x = np.empty_like(r)
        x[perm] = np.concatenate(xk[::-1]) * scale
        return x

    def cholesky_pivots(self) -> np.ndarray:
        """Squared Cholesky pivots of J, each at its unknown, in block order.

        For a positive semidefinite matrix these are the pivots of the full
        factorization in that order; raises ``np.linalg.LinAlgError`` when
        a Schur complement is not positive definite.
        """
        pivots: list[np.ndarray] = []
        schur = self._eliminate(np.zeros(self.layout.n), pivots)[0]
        pivots.append(np.diag(np.linalg.cholesky(schur)) ** 2)
        out = np.empty(self.layout.n)
        out[self.layout.order] = np.concatenate(pivots)
        return out if self.scale is None else out / self.scale / self.scale


class Network:
    """``A^T w f(A x + s) = 0`` for one topology, with n unknowns.

    A is given as coordinate triplets (branch ``rows``, unknown ``cols``,
    ``vals``), at most one per row and column below n; entries in column n
    are ignored.  ``s`` and ``w`` have one entry per branch.  ``blocks``
    lists the unknowns of each level block, in elimination order.
    ``name`` ("KCL" or "KVL") names the equations in a ``SolverError``.
    """

    def __init__(self, n: int, rows, cols, vals, s, w, name: str):
        rows = np.asarray(rows, dtype=np.intp)
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        self.n = n
        self.name = name
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

    def values(self, x: np.ndarray) -> np.ndarray:
        """y = A x + s: branch drops (nodal) or element currents (loop)."""
        return self._terms(x).sum(axis=1) + self.s

    def flows(self, f: Characteristic, x: np.ndarray) -> np.ndarray:
        """w f(y): branch currents (nodal) or w times element voltages (loop)."""
        return self.w * f.values(self.values(x))

    @cached_property
    def unit_start(self) -> np.ndarray:
        """Solution of A^T w (A x + s) = 0 (f' = 1), every cold solve's start,
        kept read-only because it is shared.  Its matrix is not kept: on a
        100x100 grid it takes about 11 MB, three times the rest of the network.
        """
        x = self.gram(self.w).solve(-self._transpose(self.w * self.s))
        x.flags.writeable = False
        return x

    def solve(self, f: Characteristic, x0: np.ndarray | None = None,
              limit: np.ndarray | None = None) -> NewtonOutcome:
        """Damped Newton on law f at unit drive from ``x0``, or cold when it is None.

        A cold solve follows the path in t = 1 / (smallest exponent) from
        ``unit_start``, its point at t = 1: when f's smallest exponent m is
        above CONTINUATION_START it first solves f with its exponents scaled
        by s / m for s = 8, 16, ... below m.  Each law starts from a secant,
        a predictor-corrector step.  Given ``limit``, the point at t = 0
        (``solver._lex_limit``), the secant runs through it and the last
        point solved, the first law's through ``unit_start``; so no law
        starts at the limit itself.  Without it the first two laws start
        from ``unit_start`` and from the first law's solution, and each
        later law from the secant through the two laws solved before it.
        Only the last law's outcome is judged; its iterations are summed.
        When it has not converged, damped Newton runs once more on that
        law from its final iterate, under the same cap: a stalled damped
        phase (sublinear kinks) often resumes from there.  Raises
        ``SolverError`` when that restart has not converged either.
        """
        laws = [f]
        solved: list[tuple[float, np.ndarray]] = []
        if x0 is None:
            x0 = self.unit_start
            if limit is not None:
                solved = [(0.0, limit), (1.0, x0)]
            m = f.min_exponent
            s = CONTINUATION_START
            while s < m:
                laws.insert(-1, Characteristic(tuple((d, s * (a / m)) for d, a in f.terms)))
                s *= 2.0

        def newton(law: Characteristic, start: np.ndarray) -> NewtonOutcome:
            return damped_newton(start, *self.equations(law), abs_tol=REL_TOL * law(1.0),
                                 max_iters=max_iterations())

        anchor = solved[:1]
        iterations = 0
        for law in laws:
            t = 1.0 / law.min_exponent
            if len(solved) == 2:
                (t_a, x_a), (t_b, x_b) = solved
                x0 = x_b + (x_b - x_a) * ((t - t_b) / (t_b - t_a))
            outcome = newton(law, x0)
            iterations += outcome.iterations
            x0 = outcome.x
            solved = (anchor or solved[-1:]) + [(t, x0)]
        if not outcome.converged:
            outcome = newton(f, outcome.x)
            iterations += outcome.iterations
            if not outcome.converged:
                raise SolverError(
                    f"{self.name} iteration did not converge in {iterations} "
                    f"iterations (residual {outcome.residual_inf:.3e})")
        outcome.iterations = iterations
        return outcome

    def equations(self, f: Characteristic):
        """residual, jacobian, objective and tolerances of law f at unit drive.

        Returned in ``damped_newton``'s positional order.  They share one
        evaluation per iterate of y, the flows and each y_k's scale, the
        largest magnitude it is formed from, keyed on the iterate's value,
        since a caller may change x in place.
        """
        w, s = self.w, self.s
        abs_s = np.abs(s)
        abs_tol = REL_TOL * f(1.0)
        last: list = [None, None]

        def evaluate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            if last[0] is None or not np.array_equal(last[0], x):
                terms = self._terms(x)
                y = terms.sum(axis=1) + s
                scale = np.maximum(np.abs(terms).max(axis=1), abs_s)
                last[0], last[1] = x.copy(), (y, w * f.values(y), scale)
            return last[1]

        def residual(x: np.ndarray) -> np.ndarray:
            return self._transpose(evaluate(x)[1])

        def jacobian(x: np.ndarray) -> BlockTridiagonal:
            # a y_k within the noise band of the roundoff of its terms has
            # no resolved slope; it is taken at the edge of that band
            y, _, scale = evaluate(x)
            return self.gram(w * f.slopes(y, NOISE_MULT * EPS * scale))

        def objective(x: np.ndarray) -> float:
            return float((w * f.integral(evaluate(x)[0])).sum())

        def tolerances(x: np.ndarray) -> np.ndarray:
            # relative share of the local flow (capped at the flat
            # drive-scale tolerance), plus the roundoff floor of forming
            # each y_k from its terms, a granule of EPS * scale
            y, flows, scale = evaluate(x)
            flow = self._transpose(np.abs(flows), self._abs_value)
            slo = w * f.slopes(y, EPS * np.maximum(scale, TINY_SCALE))
            floor = self._transpose(slo * scale, self._abs_value)
            return np.maximum(np.minimum(REL_TOL * flow, abs_tol),
                              NOISE_MULT * EPS * floor)

        return residual, jacobian, objective, tolerances
