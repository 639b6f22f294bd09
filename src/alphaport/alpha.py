"""The alpha-test: profiles of pure power-law realizations of a one-port.

For a single-term law f(v) = D * v**alpha the input characteristic is
F(v_in) = D * phi(alpha) * v_in**alpha and every node sits at a fixed
fraction d_k(alpha) of the drive, independent of both v_in and D.  These
profiles are the raw material of the structural superposition and of the
large-exponent (hardlimiter) asymptotics.  As alpha grows the ratios
converge to an exact limit that depends on the topology only
(``hardlimiter_limit``); a cold profile above exponent 1 is continued in
the exponent from that limit and the linear start by ``Network.solve``,
as every cold nodal solve above exponent 1 is.

Two routes compute a profile.  Exponents below 1 on a circuit that
declares a loop basis (``Circuit.meshes``: netlist ``.mesh`` sections,
fig_b1) are solved through the loop equations under the resistive law
i**(1/alpha), the paper's alpha -> 1/alpha conversion: there the law's
kink at zero drop, which quantizes the nodal Newton line search, becomes
a smooth zero slope, and Newton converges in a few iterations.  Every
other profile is solved by the nodal equations.  The loop route stays
limited to declared bases and to alpha < 1 because it is slower or less
robust elsewhere: on a generated short-cycle basis a long ladder's loop
solve needs coordinate polish, and the dual of a superlinear law (a
sublinear resistive law) fails on circuits the nodal route solves.

Both routes read networks kept on the circuit: the nodal network, the
loop network of the declared basis and the loop route's spanning tree are
built on a circuit's first profile and shared by every later one.
Profiles themselves are solved on every call, each by ``Network.solve``,
which raises ``SolverError`` ("KCL ..." or "KVL iteration did not
converge ...") for a profile that does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristic import Characteristic
from .circuit import Circuit, _kept, _neighbours
from .mesh import _loop_network
from .solver import _chain, _lex_limit, _nodal_network

__all__ = [
    "AlphaProfile",
    "DSweep",
    "alpha_solve",
    "phi_closed_form_fig_a1",
    "d_sweep",
    "hardlimiter_limit",
]

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
    """Profiles at the ascending exponents ``alphas``.

    A circuit that declares a loop basis takes its exponents below 1
    through the dual loop equations (``_dual_profiles``).  The others are
    one ``solver._chain`` at unit drive and unit coefficient on one nodal
    network, each exponent warm-started from the one before and the first
    cold.  phi is the input current.
    """
    bad = next((a for a in alphas if not a > 0.0), None)
    if bad is not None:
        raise ValueError(f"alpha must be positive, got {bad}")
    dual = [a for a in alphas if a < 1.0] if c.meshes else []
    profiles = _dual_profiles(c, dual) if dual else []
    nodal = list(alphas[len(dual):])
    if not nodal:
        return profiles
    laws = [Characteristic(((1.0, a),)) for a in nodal]
    solutions = _chain(c, _nodal_network(c), [(f, 1.0, f, 1.0) for f in laws])  # g = f, k = 1
    return profiles + [
        AlphaProfile(alpha=a, d={n: min(max(p, 0.0), 1.0) for n, p in sol.potentials.items()},
                     phi=sol.input_current)
        for a, sol in zip(nodal, solutions)]


def _dual_profiles(c: Circuit, alphas: list[float]) -> list[AlphaProfile]:
    """Profiles at ascending exponents below 1 from the loop equations of ``c.meshes``.

    The conductor v**alpha is the resistor i**(1/alpha), whose law has a
    smooth zero slope where the conductance law has a kink at zero drop.
    One loop network is solved at unit source current, from the linear
    start at the largest exponent down to the smallest, each warm-started
    from the one before.  The potentials are sums of the branch voltages
    along a breadth-first spanning tree from b; branches on no a-b path
    carry no current, so dead nodes land on their anchor's potential.  With
    v_in = p(a), d = p / v_in and the unit current 1 = phi * v_in**alpha.
    """
    net, _ = _loop_network(c)
    idx = c._index
    tree = _kept(c, "_tree", _spanning_tree)
    profiles = []
    x = None
    for a in reversed(alphas):
        f = Characteristic(((1.0, 1.0 / a),))
        x = net.solve(f, x).x
        volts = f.values(net.values(x)).tolist()  # p(n1) - p(n2)
        p = [0.0] * len(idx.names)
        for node, parent, branch, sign in tree:
            p[node] = p[parent] + sign * volts[branch]
        v_in = p[idx.a]
        d = np.minimum(np.maximum(np.array(p) / v_in, 0.0), 1.0)
        profiles.append(AlphaProfile(alpha=a, d=dict(zip(idx.names, d.tolist())),
                                     phi=v_in ** -a))
    return profiles[::-1]


def _spanning_tree(c: Circuit) -> list[tuple[int, int, int, float]]:
    """A breadth-first spanning tree from b, as (node, parent, branch, sign)
    in visiting order, with p(node) = p(parent) + sign * (p(n1) - p(n2)) of
    the branch.  Nodes are codes into ``c._index``."""
    idx = c._index
    n = len(idx.names)
    start, nbr, via = _neighbours(n, idx.n1, idx.n2)
    n1 = idx.n1.tolist()
    seen = [False] * n
    seen[idx.b] = True
    queue, tree = [idx.b], []
    for p in queue:
        for q, k in zip(nbr[start[p]:start[p + 1]], via[start[p]:start[p + 1]]):
            if not seen[q]:
                seen[q] = True
                queue.append(q)
                tree.append((q, p, k, 1.0 if n1[k] == q else -1.0))
    return tree


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
    """The ratios d_k in the limit alpha -> inf, exactly.

    Conductors clamp their drops as the exponent grows, and the ratios
    converge to the lex-minimal Lipschitz extension of d(a) = 1, d(b) = 0
    over the live graph (``solver._lex_limit``), which depends on the
    topology only.  Dead nodes take their anchor's value, as in a profile.
    """
    p = np.concatenate((_lex_limit(c), [1.0, 0.0]))[_nodal_network(c).place]
    return dict(zip(c._index.names, p.tolist()))
