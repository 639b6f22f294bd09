"""Quasi-polynomial conductor characteristics i = sum_p D_p * v**alpha_p.

Every conductor in an analyzed one-port shares a single characteristic of
this form, with strictly positive coefficients and exponents.  That makes
the element passive and strictly monotone on v >= 0, which is what
guarantees a unique DC solution of the whole network.

The public contract works on nonnegative voltages (the solver orients
every branch so its drop is nonnegative).  A signed odd extension
``sign(v) * f(|v|)`` is provided for solver internals only; it is not a
separate characteristic type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Characteristic",
    "combine",
    "parse_characteristic",
    "format_characteristic",
]

# Exponents closer than this are treated as the same power and their
# coefficients summed (float-parsed netlists can carry 1.0 vs 0.9999999999995).
EXPONENT_MERGE_TOL = 1e-12

# Target for invert(): |eval(v) - i| <= INVERT_TOL * max(1, i).
INVERT_TOL = 1e-13


def _normalize(terms) -> tuple[tuple[float, float], ...]:
    pairs = [(float(d), float(a)) for d, a in terms]
    if not pairs:
        raise ValueError("characteristic needs at least one term")
    for d, a in pairs:
        if not (d > 0.0) or not math.isfinite(d):
            raise ValueError(f"coefficient must be positive and finite, got {d}")
        if not (a > 0.0) or not math.isfinite(a):
            raise ValueError(f"exponent must be positive and finite, got {a}")
    pairs.sort(key=lambda t: t[1])
    merged: list[tuple[float, float]] = []
    for d, a in pairs:
        if merged and a - merged[-1][1] <= EXPONENT_MERGE_TOL:
            merged[-1] = (merged[-1][0] + d, merged[-1][1])
        else:
            merged.append((d, a))
    return tuple(merged)


@dataclass(frozen=True)
class Characteristic:
    """Monotone conductor law f(v) = sum of coef * v**exponent terms.

    ``terms`` is any iterable of (coefficient, exponent) pairs; it is
    normalized on construction: sorted by ascending exponent, duplicate
    exponents merged by summing coefficients, everything validated to be
    positive.  Instances are immutable and safe to share.
    """

    terms: tuple[tuple[float, float], ...] = field()

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize(self.terms))

    @property
    def exponents(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.terms)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return tuple(d for d, _ in self.terms)

    @property
    def min_exponent(self) -> float:
        return self.terms[0][1]

    def __call__(self, v: float) -> float:
        """Current through the conductor at voltage v >= 0."""
        if v < 0.0:
            raise ValueError(f"voltage must be nonnegative, got {v}")
        return sum(d * v**a for d, a in self.terms)

    def slope(self, v: float) -> float:
        """Differential conductance df/dv at v.

        v = 0 is allowed only when every exponent is >= 1 (otherwise the
        slope diverges at the origin and a ValueError is raised).
        """
        if v < 0.0:
            raise ValueError(f"voltage must be nonnegative, got {v}")
        if v == 0.0 and self.min_exponent < 1.0:
            raise ValueError("slope is singular at v=0 for exponents below 1")
        return sum(d * a * v ** (a - 1.0) for d, a in self.terms)

    def invert(self, i: float) -> float:
        """The unique v >= 0 with f(v) = i, for i >= 0.

        Single-term laws invert in closed form; otherwise an expanding
        bracket plus bisection/Newton drives |f(v) - i| below
        ``INVERT_TOL * max(1, i)``.
        """
        if i < 0.0:
            raise ValueError(f"current must be nonnegative, got {i}")
        if i == 0.0:
            return 0.0
        if len(self.terms) == 1:
            d, a = self.terms[0]
            return (i / d) ** (1.0 / a)
        # every single term alone reaches i at (i/D_p)**(1/alpha_p), so the
        # smallest of those rigorously brackets the root from above;
        # computed in log space because small exponents overflow the power
        log_i = math.log(i)
        log_hi = min((log_i - math.log(d)) / a for d, a in self.terms)
        if log_hi > 700.0:
            raise ValueError(f"current {i} is outside the invertible double range")
        hi = math.exp(log_hi) * (1.0 + 1e-9)
        while self(hi) < i:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self(mid) < i:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * hi:
                break
        v = 0.5 * (lo + hi)
        tol = INVERT_TOL * max(1.0, i)
        for _ in range(8):
            r = self(v) - i
            if abs(r) <= tol:
                break
            step = r / self.slope(max(v, 1e-300))
            v = min(max(v - step, lo), hi)
        return v

    def eval_signed(self, v: float) -> float:
        """Odd extension sign(v) * f(|v|), used while iterating on raw drops."""
        if v >= 0.0:
            return self(v)
        return -self(-v)

    def antiderivative(self, v: float) -> float:
        """Integral of f from 0 to |v| (per-conductor co-content)."""
        av = abs(v)
        return sum(d * av ** (a + 1.0) / (a + 1.0) for d, a in self.terms)

    def scaled(self, c: float) -> "Characteristic":
        """Characteristic with every coefficient multiplied by c > 0."""
        return Characteristic(tuple((d * c, a) for d, a in self.terms))

    def __str__(self) -> str:
        return format_characteristic(self)


def combine(fs) -> Characteristic:
    """Term-wise sum of several characteristics sharing one topology.

    Short-circuiting the respective nodes of same-topology one-ports puts
    the conductors of each branch in parallel, so their laws simply add.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("combine needs at least one characteristic")
    terms: list[tuple[float, float]] = []
    for f in fs:
        terms.extend(f.terms)
    return Characteristic(tuple(terms))


def parse_characteristic(text: str) -> Characteristic:
    """Parse the "D:alpha[,D:alpha...]" text form used by netlists and the CLI."""
    items = [tok.strip() for tok in text.split(",")]
    terms = []
    for tok in items:
        if not tok:
            raise ValueError(f"empty term in characteristic {text!r}")
        parts = tok.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad characteristic term {tok!r}, expected D:alpha")
        try:
            d, a = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad number in characteristic term {tok!r}") from exc
        terms.append((d, a))
    return Characteristic(tuple(terms))


def format_characteristic(f: Characteristic) -> str:
    return ",".join(f"{d:.12g}:{a:.12g}" for d, a in f.terms)
