"""The alpha-test: profiles of pure power-law realizations of a one-port.

For a single-term law f(v) = D * v**alpha the input characteristic is
F(v_in) = D * phi(alpha) * v_in**alpha and every node sits at a fixed
fraction d_k(alpha) of the drive, independent of both v_in and D.  These
profiles are the raw material of the structural superposition and of the
large-exponent (hardlimiter) asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristic import Characteristic
from .circuit import Circuit
from .solver import SolverError, _nodal_network, _solve

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


def _phi_sum(c: Circuit, d: dict[str, float], alpha: float, at_ground: bool) -> float:
    a, b = c.input_port
    total = 0.0
    for br in c.branches:
        ends = (br.n1, br.n2)
        if at_ground and b in ends:
            other = ends[0] if ends[1] == b else ends[1]
            total += br.w * max(d[other], 0.0) ** alpha
        elif not at_ground and a in ends:
            other = ends[0] if ends[1] == a else ends[1]
            total += br.w * max(1.0 - d[other], 0.0) ** alpha
    return total


def alpha_solve(c: Circuit, alpha: float,
                warm: dict[str, float] | None = None) -> AlphaProfile:
    """Profile of the alpha-realization (solved at unit drive).

    ``warm`` seeds the Newton iteration with known ratios, which sweeps and
    continuation toward large alpha use to stay in the convergence basin.
    The circuit is validated and its network built once for the whole
    continuation.
    """
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    nodal = _nodal_network(c)
    start = warm
    if warm is None and alpha > _CONTINUATION_START:
        step = _CONTINUATION_START
        while step < alpha:
            start = _profile(c, step, nodal, start).d
            step *= 2.0
    return _profile(c, alpha, nodal, start)


def _profile(c: Circuit, alpha: float, nodal,
             start: dict[str, float] | None) -> AlphaProfile:
    """``alpha_solve`` on a prepared ``_nodal_network``, from ratios ``start``."""
    x0 = None if start is None else np.array([float(start.get(n, 0.0)) for n in nodal[1]])
    sol = _solve(c, Characteristic(((1.0, alpha),)), 1.0, nodal, x0)
    d = {n: min(max(p, 0.0), 1.0) for n, p in sol.potentials.items()}

    phi_ground = _phi_sum(c, d, alpha, at_ground=True)
    phi_driven = _phi_sum(c, d, alpha, at_ground=False)
    # the sums differ by the telescoped internal imbalances at most
    allowance = sol.residual_sum + 1e-9 * max(1.0, phi_ground)
    if abs(phi_ground - phi_driven) > allowance:
        raise SolverError(
            f"phi differs between terminals ({phi_ground!r} vs {phi_driven!r})")
    return AlphaProfile(alpha=float(alpha), d=d, phi=float(phi_ground))


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

    series: dict[str, list[float]] = {n: [] for n in c.nodes}
    phis: list[float] = []
    warm = None
    for a in alphas:
        prof = alpha_solve(c, a, warm=warm)
        warm = prof.d
        phis.append(prof.phi)
        for n in c.nodes:
            series[n].append(prof.d[n])

    verdicts: dict[str, str] = {}
    for n, vals in series.items():
        diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
        if all(dv >= -_SWEEP_TOL for dv in diffs):
            verdicts[n] = "nondecreasing"
        elif all(dv <= _SWEEP_TOL for dv in diffs):
            verdicts[n] = "nonincreasing"
        else:
            verdicts[n] = "violation"
    return DSweep(alphas=alphas, phis=tuple(phis),
                  d={n: tuple(vals) for n, vals in series.items()},
                  verdicts=verdicts)


def hardlimiter_limit(c: Circuit) -> dict[str, float]:
    """Extrapolated large-exponent limit of the ratios d_k.

    Conductors clamp their drops as the exponent grows, so d_k converges
    quickly; profiles at 16, 32 and 64 are combined by Aitken
    extrapolation, with the 64 run as the fallback where the increments
    have already vanished.
    """
    profiles = []
    warm = None
    for a in (16.0, 32.0, 64.0):
        prof = alpha_solve(c, a, warm=warm)
        warm = prof.d
        profiles.append(prof)
    p16, p32, p64 = (p.d for p in profiles)

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
