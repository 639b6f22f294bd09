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
"""

from __future__ import annotations

import numpy as np

from ._newton import EPS, NOISE_MULT, REL_TOL
from .characteristic import Characteristic

__all__ = ["Network"]

# Diagonal bump applied when a sublinear exponent meets a (numerically)
# zero branch value, where the true slope diverges.
SINGULAR_SLOPE_REG = 1e-9
ZERO_DROP = 1e-12
# Guards the tolerance-floor granule when every term forming y_k is 0.
TINY_SCALE = 1e-300


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


class Network:
    """``A^T w f(A x + s u) = 0`` for one topology, with n unknowns.

    A is given as coordinate triplets (branch ``rows``, unknown ``cols``,
    ``vals``), where entries in column n are ignored; ``s`` and ``w`` have
    one entry per branch.
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
        # each ordered pair of entries in a row adds to one cell of the
        # (n+1)^2 Jacobian; the sentinel row and column are cut off after
        self._pair_cell = (self.index[:, :, None] * (n + 1)
                           + self.index[:, None, :]).ravel()
        self._pair_value = (self.value[:, :, None] * self.value[:, None, :]).reshape(n_br, -1)

    def _terms(self, x: np.ndarray) -> np.ndarray:
        return self.value * np.append(x, 0.0)[self.index]

    def _transpose(self, v: np.ndarray, value: np.ndarray | None = None) -> np.ndarray:
        """A^T v (or |A|^T v with ``value=self._abs_value``)."""
        value = self.value if value is None else value
        return np.bincount(self.index.ravel(), (value * v[:, None]).ravel(),
                           minlength=self.n + 1)[:self.n]

    def gram(self, g: np.ndarray) -> np.ndarray:
        """Dense A^T diag(g) A."""
        n1 = self.n + 1
        cells = np.bincount(self._pair_cell, (g[:, None] * self._pair_value).ravel(),
                            minlength=n1 * n1)
        return cells.reshape(n1, n1)[:self.n, :self.n]

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
        return np.linalg.solve(self.gram(self.w), -self._transpose(self.w * self.s * u))

    def equations(self, f: Characteristic, u: float):
        """residual, jacobian, objective and tolerances of law f at drive u.

        Returned in ``damped_newton``'s positional order.
        """
        w = self.w
        su = self.s * u
        abs_tol = self.abs_tol(f, u)
        sublinear = f.min_exponent < 1.0

        def residual(x: np.ndarray) -> np.ndarray:
            return self._transpose(self.flows(f, x, u))

        def jacobian(x: np.ndarray) -> np.ndarray:
            y = self.values(x, u)
            J = self.gram(w * _slopes(f, y))
            if sublinear and np.any(np.abs(y) < ZERO_DROP):
                J[np.diag_indices_from(J)] += SINGULAR_SLOPE_REG
            return J

        def objective(x: np.ndarray) -> float:
            return float((w * _integral(f, self.values(x, u))).sum())

        def tolerances(x: np.ndarray) -> np.ndarray:
            # relative share of the local flow (capped at the flat
            # drive-scale tolerance), plus the roundoff floor of forming
            # each y_k from its terms, a granule of EPS * max |term|
            terms = self._terms(x)
            y = terms.sum(axis=1) + su
            scale = np.maximum(np.abs(terms).max(axis=1), np.abs(su))
            flow = self._transpose(np.abs(w * _currents(f, y)), self._abs_value)
            slo = w * _floor_slopes(f, y, EPS * np.maximum(scale, TINY_SCALE))
            floor = self._transpose(slo * scale, self._abs_value)
            return np.maximum(np.minimum(REL_TOL * flow, abs_tol),
                              NOISE_MULT * EPS * floor)

        return residual, jacobian, objective, tolerances
