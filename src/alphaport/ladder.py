"""Closed-form analysis of the infinite homogeneous ladder one-port.

Each cell adds a top series conductor, a bottom series conductor and a
shunt across the rails.  Self-similarity pins the voltage-division ratio
lambda = v_in / v_shunt between consecutive cells: for a power-law
conductor it is the largest root above 1 of

    (lambda**a - 1) * (lambda - 1)**a == (2*lambda)**a

and the input coefficient follows as phi(a) = ((lambda-1) / (2*lambda))**a.
Truncated ladders built by the circuit module converge to these fixed
points and serve as the independent numerical oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .alpha import alpha_solve
from .characteristic import Characteristic
from .circuit import build_canonical
from .roots import bisect_newton, expand_bracket

__all__ = [
    "LadderResult",
    "lambda_root",
    "ladder_phi",
    "ladder_fixed_point",
    "ladder_g_coeffs",
    "truncation_convergence",
    "ladder_nonlinearity_degree",
    "SERIES_LIMIT_RATIO",
]

# Convergence limit of the two-term series description of the quadratic
# ladder: v_in < SERIES_LIMIT_RATIO * D1 / D2.
SERIES_LIMIT_RATIO = 0.574


@dataclass(frozen=True)
class LadderResult:
    alpha: float
    lambda_: float
    phi: float
    central: bool = False

    @property
    def phi_with_central(self) -> float:
        """Input coefficient including a direct port conductor, if present."""
        return self.phi + 1.0 if self.central else self.phi


def lambda_root(alpha: float) -> float:
    """Largest root > 1 of the ladder's per-cell division equation.

    Solved in log form g(l) = log(l**a - 1) + a*log(l - 1) - a*log(2*l),
    bracketed from (1, 8] with geometric expansion, bisected to 1e-13 and
    polished with two Newton steps.
    """
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    a = float(alpha)

    def g(lam: float) -> float:
        return math.log(lam**a - 1.0) + a * math.log(lam - 1.0) - a * math.log(2.0 * lam)

    def dg(lam: float) -> float:
        return (a * lam ** (a - 1.0) / (lam**a - 1.0)
                + a / (lam - 1.0) - a / lam)

    lo, hi = expand_bracket(g, 1.0 + 1e-9, 8.0)
    return bisect_newton(g, dg, lo, hi, bisect_tol=1e-13, newton_steps=2)


def ladder_phi(alpha: float) -> float:
    """Input coefficient phi(alpha) of the infinite ladder."""
    return ladder_fixed_point(alpha).phi


def ladder_fixed_point(alpha: float, central: bool = False) -> LadderResult:
    lam = lambda_root(alpha)
    return LadderResult(alpha=float(alpha), lambda_=lam,
                        phi=((lam - 1.0) / (2.0 * lam)) ** alpha,
                        central=central)


def ladder_g_coeffs(f: Characteristic, central: bool = False) -> tuple[tuple[float, float], ...]:
    """Superposition coefficients of the infinite ladder, one per term.

    Term p maps to D_p * (phi(alpha_p) + 1) when a direct port conductor is
    present (it contributes its own f(v_in)), else to D_p * phi(alpha_p).
    """
    extra = 1.0 if central else 0.0
    return tuple((a, d * (ladder_phi(a) + extra)) for d, a in f.terms)


def truncation_convergence(alpha: float, n_list) -> tuple[float, ...]:
    """phi of truncated ladders for each section count, as a convergence probe.

    Branch currents shrink by a factor lambda**alpha per section, so a
    truncation spanning more than roughly 300/(alpha * log10(lambda))
    sections exceeds what double precision can represent end to end;
    superlinear laws hit a solver error well before that because the
    remote sections drop below the resolvable scale (alpha = 3 is fine
    through about 20 sections, which is already converged to ~1e-10).
    """
    out = []
    for n in n_list:
        c = build_canonical("ladder", sections=int(n))
        out.append(alpha_solve(c, alpha).phi)
    return tuple(out)


def ladder_nonlinearity_degree(quad_coeff: float, central: bool = False,
                               v_in: float = SERIES_LIMIT_RATIO) -> float:
    """Ratio of the quadratic to the linear term of the two-term ladder law.

    ``quad_coeff`` is the quadratic coefficient of the variant under
    consideration (about 0.1196 for the plain ladder, 1.1196 with the
    direct port conductor); evaluated by default at the series limit.
    """
    linear = 1.0 / (1.0 + math.sqrt(3.0)) + (1.0 if central else 0.0)
    return quad_coeff / linear * v_in
