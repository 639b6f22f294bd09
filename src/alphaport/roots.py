"""Bracketed scalar root finding: bisection core with Newton polish."""

from __future__ import annotations

__all__ = ["expand_bracket", "bisect_newton"]


def expand_bracket(fn, lo: float, hi: float, factor: float = 2.0,
                   max_expansions: int = 200) -> tuple[float, float]:
    """Grow ``hi`` geometrically until fn changes sign over [lo, hi]."""
    flo = fn(lo)
    fhi = fn(hi)
    count = 0
    while flo * fhi > 0.0:
        if count >= max_expansions:
            raise RuntimeError(
                f"no sign change up to {hi} after {max_expansions} expansions")
        hi *= factor
        fhi = fn(hi)
        count += 1
    return lo, hi


def bisect_newton(fn, dfn, lo: float, hi: float, bisect_tol: float = 1e-13,
                  newton_steps: int = 2) -> float:
    """Root of fn in [lo, hi]: bisection to a bracket narrower than
    ``bisect_tol`` times its midpoint, then Newton polish.

    Requires a sign change over the bracket.  The Newton steps are clipped
    to the bracket, so the polish can only improve the bisection answer.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"root not bracketed: fn({lo})={flo}, fn({hi})={fhi}")

    for _ in range(400):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
        if hi - lo <= bisect_tol * abs(mid):
            break

    x = 0.5 * (lo + hi)
    for _ in range(newton_steps):
        d = dfn(x)
        if d == 0.0:
            break
        step = fn(x) / d
        xn = x - step
        if not (lo <= xn <= hi):
            break
        x = xn
    return x
