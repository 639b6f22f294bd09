"""The alpha-test: profiles of pure power-law realizations of a one-port.

For a single-term law f(v) = D * v**alpha the input characteristic is
F(v_in) = D * phi(alpha) * v_in**alpha and every node sits at a fixed
fraction d_k(alpha) of the drive, independent of both v_in and D.  These
profiles are the raw material of the structural superposition and of the
large-exponent (hardlimiter) asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characteristic import Characteristic
from .circuit import Circuit
from .solver import _chain, _nodal_network

__all__ = [
    "AlphaProfile",
    "DSweep",
    "alpha_solve",
    "phi_closed_form_fig_a1",
    "d_sweep",
    "hardlimiter_limit",
]

# Exponents above this are reached by doubling continuation from the
# linear start; direct Newton is reliable but slow out there.
_CONTINUATION_START = 8.0

# Monotonicity slack for sweep verdicts; constant profiles (symmetric
# topologies) sit exactly on the boundary up to solver roundoff.
_SWEEP_TOL = 1e-9


@dataclass(frozen=True)
class AlphaProfile:
    """Voltage-division ratios and input coefficient of one power-law run."""

    alpha: float
    d: dict[str, float]
    phi: float


@dataclass(frozen=True)
class DSweep:
    alphas: tuple[float, ...]
    phis: tuple[float, ...]
    d: dict[str, tuple[float, ...]]
    verdicts: dict[str, str]  # "nondecreasing" | "nonincreasing" | "violation"


def alpha_solve(c: Circuit, alpha: float) -> AlphaProfile:
    """Profile of the alpha-realization (solved at unit drive).

    The one-exponent case of ``_exponent_chain``.
    """
    return _exponent_chain(c, (float(alpha),))[0]


def _exponent_chain(c: Circuit, alphas: tuple[float, ...]) -> list[AlphaProfile]:
    """Profiles at the ascending exponents ``alphas``, on one network.

    One ``solver._chain`` at unit drive and unit coefficient: the doubling
    steps 8, 16, ... below a first exponent above 8, then ``alphas``, each
    warm-started from the step before.  phi is the input current.
    """
    bad = next((a for a in alphas if not a > 0.0), None)
    if bad is not None:
        raise ValueError(f"alpha must be positive, got {bad}")
    steps = []
    step = _CONTINUATION_START
    while step < alphas[0]:
        steps.append(step)
        step *= 2.0
    laws = [(Characteristic(((1.0, a),)), 1.0) for a in steps + list(alphas)]
    solutions = _chain(c, _nodal_network(c), laws)[len(steps):]
    return [AlphaProfile(alpha=a, d={n: min(max(p, 0.0), 1.0) for n, p in sol.potentials.items()},
                         phi=sol.input_current)
            for a, sol in zip(alphas, solutions)]


def phi_closed_form_fig_a1(alpha: float) -> float:
    """Closed-form phi(alpha) of the built-in fig_a1 topology.

    The divider node obeys (1-d)^a = d^a * (1 + 2^-a), which collapses the
    ground-side sum to 1 + (1 + 2^-a) / (1 + (1 + 2^-a)^(1/a))^a.
    """
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    t = 1.0 + 2.0 ** (-alpha)
    return 1.0 + t / (1.0 + t ** (1.0 / alpha)) ** alpha


def d_sweep(c: Circuit, alphas) -> DSweep:
    """Ratios d_k over an ascending exponent grid, with per-node verdicts."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be strictly ascending")

    profiles = _exponent_chain(c, alphas)
    series = {n: tuple(prof.d[n] for prof in profiles) for n in c.nodes}

    verdicts: dict[str, str] = {}
    for n, vals in series.items():
        diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
        if all(dv >= -_SWEEP_TOL for dv in diffs):
            verdicts[n] = "nondecreasing"
        elif all(dv <= _SWEEP_TOL for dv in diffs):
            verdicts[n] = "nonincreasing"
        else:
            verdicts[n] = "violation"
    return DSweep(alphas=alphas, phis=tuple(prof.phi for prof in profiles),
                  d=series, verdicts=verdicts)


def hardlimiter_limit(c: Circuit) -> dict[str, float]:
    """Extrapolated large-exponent limit of the ratios d_k.

    Conductors clamp their drops as the exponent grows, so d_k converges
    quickly; profiles at 16, 32 and 64 are combined by Aitken
    extrapolation, with the 64 run as the fallback where the increments
    have already vanished.
    """
    p16, p32, p64 = (p.d for p in _exponent_chain(c, (16.0, 32.0, 64.0)))

    limit: dict[str, float] = {}
    for n in c.nodes:
        x0, x1, x2 = p16[n], p32[n], p64[n]
        denom = (x2 - x1) - (x1 - x0)
        if abs(denom) > 1e-12:
            val = x2 - (x2 - x1) ** 2 / denom
        else:
            val = x2
        limit[n] = min(max(val, 0.0), 1.0)
    return limit
