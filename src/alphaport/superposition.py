"""Structural superposition: the per-term estimate G and its error against F.

Interpreting a quasi-polynomial one-port as node-by-node shorted power-law
realizations of the same topology suggests estimating the input current by

    G(v_in) = sum_p D_p * phi(alpha_p) * v_in**alpha_p

i.e. the realizations taken independently and paralleled at the port.  G
is exact for special topologies and for a single exponent, shares its
leading small-drive term with the exact F for every topology, and is
otherwise a high-precision estimate.  This module quantifies the gap:
relative error, nonlinear-part comparison, a voltage-drop bound on |F - G|
and the intermediate-value behavior of the node ratios.

The profiles do not depend on the drive, so each drive-grid function
solves them once per term and F through one ``solve_grid`` pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alpha import AlphaProfile, alpha_solve
from .characteristic import Characteristic
from .circuit import Circuit
from .solver import DcSolution, _node_potentials, solve_dc, solve_grid

__all__ = [
    "TermContribution",
    "SuperpositionReport",
    "LeadingTermCheck",
    "IntermediateValueResult",
    "superpose",
    "report",
    "report_grid",
    "leading_term_check",
    "error_bound",
    "extract_series_coeffs",
    "intermediate_value_check",
    "term_split_input_currents",
    "d_growth_coefficient",
]


@dataclass(frozen=True)
class TermContribution:
    alpha: float
    coefficient: float  # the D of this term
    phi: float
    value: float  # D * phi * v_in**alpha


@dataclass(frozen=True)
class SuperpositionReport:
    """Exact F vs estimate G at one drive point.

    ``eta`` is |F - G| / F (identically the relative input-power gap);
    ``eta_nonlinear`` compares only the parts above the shared leading
    term; ``nonlinearity_degree`` is that nonlinear part relative to the
    leading term.  ``bound`` is the voltage-drop bound on |F - G|,
    available for two-term laws; ``bound_normalized`` flags that the law
    was rescaled to unit coefficients to evaluate it.
    """

    v_in: float
    F: float
    G: float
    eta: float
    eta_nonlinear: float
    nonlinearity_degree: float
    bound: float | None
    bound_normalized: bool
    per_term: tuple[TermContribution, ...]

    def as_dict(self) -> dict:
        return {
            "v_in": self.v_in,
            "F": self.F,
            "G": self.G,
            "eta": self.eta,
            "eta_nonlinear": self.eta_nonlinear,
            "nonlinearity_degree": self.nonlinearity_degree,
            "bound": self.bound,
            "bound_normalized": self.bound_normalized,
            "per_term": [
                {"alpha": t.alpha, "D": t.coefficient, "phi": t.phi, "value": t.value}
                for t in self.per_term
            ],
        }


def superpose(c: Circuit, f: Characteristic) -> tuple[tuple[float, float], ...]:
    """Coefficients of G as (alpha_p, D_p * phi(alpha_p)) pairs, ascending."""
    profiles = _profiles(c, f)
    return tuple((a, d * profiles[a].phi) for d, a in f.terms)


def _profiles(c: Circuit, f: Characteristic) -> dict[float, AlphaProfile]:
    return {a: alpha_solve(c, a) for a in f.exponents}


def report(c: Circuit, f: Characteristic, v_in: float) -> SuperpositionReport:
    """Full superposition report at one drive voltage."""
    return report_grid(c, f, (v_in,))[0][1]


def report_grid(c: Circuit, f: Characteristic,
                v_grid) -> tuple[tuple[DcSolution, SuperpositionReport], ...]:
    """Exact solution and superposition report at each drive, in grid order.

    The drives share one ``solve_grid`` pass and one alpha profile per
    term, since the profiles do not depend on the drive.
    """
    solutions = solve_grid(c, f, v_grid)
    profiles = _profiles(c, f)
    return tuple((sol, _point_report(c, f, sol, profiles)) for sol in solutions)


def _point_report(c: Circuit, f: Characteristic, sol: DcSolution,
                  profiles: dict[float, AlphaProfile]) -> SuperpositionReport:
    v_in = sol.v_in
    F = sol.input_current

    per_term = []
    G = 0.0
    for d, a in f.terms:
        phi = profiles[a].phi
        value = d * phi * v_in**a
        per_term.append(TermContribution(alpha=a, coefficient=d, phi=phi, value=value))
        G += value

    eta = abs(F - G) / F
    lead = per_term[0].value
    nonlinear_part = F - lead
    eta_nonlinear = abs(F - G) / nonlinear_part if nonlinear_part > 0.0 else 0.0
    degree = nonlinear_part / lead

    # The drop bound is defined for the two-exponent law; a single term is
    # superposition-exact anyway and more terms have no pairwise (m, n).
    bound = None
    normalized = False
    if len(f.terms) == 2:
        (dm, m), (dn, n) = f.terms
        scale_v = (dm / dn) ** (1.0 / (n - m))
        scale_i = dm * scale_v**m
        normalized = not (scale_v == 1.0 and scale_i == 1.0)
        bound = scale_i * _drop_bound(c, profiles[m], profiles[n], v_in / scale_v)

    return SuperpositionReport(
        v_in=float(v_in), F=float(F), G=float(G), eta=float(eta),
        eta_nonlinear=float(eta_nonlinear), nonlinearity_degree=float(degree),
        bound=bound, bound_normalized=normalized, per_term=tuple(per_term))


def error_bound(c: Circuit, m: float, n: float, v_in: float) -> float:
    """Voltage-drop bound on |F - G| for the two-term law v**m + v**n.

    Only the two separate power-law solutions enter: with branch drops
    v_s(a) = v_in * |d(a) gap|, branches where the n-realization drop
    dominates contribute v_s(n)**(n+1) - v_s(m)**(n+1); the rest contribute
    v_s(m)**(m+1) - v_s(n)**(m+1); the total is divided by v_in.  Valid for
    unit coefficients; callers rescale first for general laws.
    """
    if m == n:
        return 0.0
    return _drop_bound(c, alpha_solve(c, m), alpha_solve(c, n), v_in)


def _drop_bound(c: Circuit, pm: AlphaProfile, pn: AlphaProfile, v_in: float) -> float:
    """``error_bound`` from the m- and n-profiles."""
    m, n = pm.alpha, pn.alpha
    total = 0.0
    for br in c.branches:
        vm = v_in * abs(pm.d[br.n1] - pm.d[br.n2])
        vn = v_in * abs(pn.d[br.n1] - pn.d[br.n2])
        if vn >= vm:
            total += br.w * (vn ** (n + 1.0) - vm ** (n + 1.0))
        else:
            total += br.w * (vm ** (m + 1.0) - vn ** (m + 1.0))
    return total / v_in


@dataclass(frozen=True)
class LeadingTermCheck:
    """Small-drive agreement of F and G: F(x)/G(x) -> 1.

    The deviation |ratio - 1| shrinks like x**(alpha2 - alpha1); the fitted
    log-log slope is None when the circuit is superposition-exact (all
    deviations at roundoff).
    """

    v_grid: tuple[float, ...]
    ratios: tuple[float, ...]
    deviations: tuple[float, ...]
    expected_slope: float | None
    fitted_slope: float | None
    ideal: bool
    converges: bool


def leading_term_check(c: Circuit, f: Characteristic, v_grid) -> LeadingTermCheck:
    """Track F(x)/G(x) on a descending grid and fit the deviation's decay.

    The deviation carries higher-order corrections that themselves decay
    like powers of x, so a clean fitted slope needs the grid to reach
    drives where x**(alpha2 - alpha1) clearly dominates; closely spaced
    exponents (gap well below 1) on nearly superposition-exact circuits
    may need grids deeper than the usual three decades.
    """
    grid = tuple(float(x) for x in v_grid)
    if any(x2 >= x1 for x1, x2 in zip(grid, grid[1:])):
        raise ValueError("grid must descend toward zero")

    solutions = solve_grid(c, f, grid)
    coeffs = superpose(c, f)
    ratios = [sol.input_current / sum(cf * x**a for a, cf in coeffs)
              for x, sol in zip(grid, solutions)]
    deviations = tuple(abs(r - 1.0) for r in ratios)

    expected = f.exponents[1] - f.exponents[0] if len(f.terms) >= 2 else None
    clean = [(x, dev) for x, dev in zip(grid, deviations) if dev > 1e-13]
    ideal = len(clean) < 2
    fitted = None
    if not ideal:
        lx = np.log([x for x, _ in clean])
        ly = np.log([dev for _, dev in clean])
        fitted = float(np.polyfit(lx, ly, 1)[0])
    converges = ideal or deviations[-1] < deviations[0]
    return LeadingTermCheck(
        v_grid=grid, ratios=tuple(ratios), deviations=deviations,
        expected_slope=expected, fitted_slope=fitted,
        ideal=ideal, converges=converges)


def extract_series_coeffs(c: Circuit, f: Characteristic, exponents=None,
                          v_max: float | None = None,
                          points: int = 16) -> tuple[float, ...]:
    """Small-drive expansion coefficients of the exact F, one per exponent.

    Least-squares fit of F(v) ~ sum b_p v**alpha_p on ``points`` log-spaced
    drives over [v_max/100, v_max]; rows are scaled by v**-alpha1 so the
    small end of the grid retains weight.  The default window is
    0.1 * (D1/D2)**(1/(alpha2-alpha1)), which keeps the fit inside the
    region where the neglected higher-order terms are negligible; pass
    ``v_max`` to use a problem-specific convergence limit instead.
    """
    exps = tuple(float(a) for a in (exponents if exponents is not None else f.exponents))
    if not exps:
        raise ValueError("need at least one exponent")
    if points < len(exps):
        raise ValueError(f"{points} points cannot fit {len(exps)} coefficients")
    if v_max is None:
        if len(f.terms) >= 2:
            (d1, a1), (d2, a2) = f.terms[0], f.terms[1]
            v_max = 0.1 * (d1 / d2) ** (1.0 / (a2 - a1))
        else:
            v_max = 0.1

    grid = np.geomspace(v_max / 100.0, v_max, points)
    a_min = min(exps)
    values = np.array([sol.input_current for sol in solve_grid(c, f, grid)])

    weights = grid ** (-a_min)
    design = np.column_stack([grid**a for a in exps]) * weights[:, None]
    rhs = values * weights
    col_norms = np.linalg.norm(design, axis=0)
    cond = np.linalg.cond(design / col_norms)
    if not np.isfinite(cond) or cond > 1e7:
        raise ValueError(
            f"series fit is ill-conditioned (condition number {cond:.3e}); "
            "exponents are too close or the grid is degenerate")
    coeffs, *_ = np.linalg.lstsq(design / col_norms, rhs, rcond=None)
    return tuple(float(b / n) for b, n in zip(coeffs, col_norms))


@dataclass(frozen=True)
class IntermediateValueResult:
    """Whether each internal node ratio stays between its power-law values."""

    v_grid: tuple[float, ...]
    nodes: tuple[str, ...]
    d_values: dict[str, tuple[float, ...]]
    low: dict[str, float]
    high: dict[str, float]
    ok: bool
    violations: tuple[tuple[str, float, float], ...]  # (node, v_in, value)


def intermediate_value_check(c: Circuit, f: Characteristic,
                             v_grid) -> IntermediateValueResult:
    """Check d_k(v_in) in [min, max] of the two power-law ratios, per node."""
    if len(f.terms) != 2:
        raise ValueError("intermediate-value check needs a two-term law")
    grid = tuple(float(x) for x in v_grid)
    solutions = solve_grid(c, f, grid)

    (_, m), (_, n) = f.terms
    pm, pn = alpha_solve(c, m), alpha_solve(c, n)
    nodes = tuple(c.internal_nodes())
    low = {k: min(pm.d[k], pn.d[k]) for k in nodes}
    high = {k: max(pm.d[k], pn.d[k]) for k in nodes}

    d_values = {k: tuple(sol.potentials[k] / v for v, sol in zip(grid, solutions))
                for k in nodes}
    violations = tuple((k, v, val) for k in nodes for v, val in zip(grid, d_values[k])
                       if val < low[k] - 1e-9 or val > high[k] + 1e-9)

    return IntermediateValueResult(
        v_grid=grid, nodes=nodes,
        d_values=d_values, low=low, high=high,
        ok=not violations, violations=violations)


def term_split_input_currents(c: Circuit, f: Characteristic, v_in: float,
                              side: str = "b") -> tuple[float, ...]:
    """Input current split by law term, evaluated on the exact solution.

    Each term's share is its own power summed over the port-incident branch
    drops: the shorted realizations of the connection keep their identity
    inside the exact solution, and the shares add back to F.  ``side``
    picks the terminal whose incident branches are summed.
    """
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    sol = solve_dc(c, f, v_in)
    idx = c._index
    p = _node_potentials(c, sol.potentials)
    k = idx.a if side == "a" else idx.b
    at_n1, at_n2 = idx.n1 == k, idx.n2 == k
    incident = at_n1 != at_n2  # self-loops excluded
    drop = np.abs(p[np.where(at_n1, idx.n2, idx.n1)[incident]] - p[k])
    w = idx.w[incident]
    return tuple(float((w * d * drop**a).sum()) for d, a in f.terms)


def d_growth_coefficient(c: Circuit, f: Characteristic, node: str,
                         v_in: float) -> float:
    """Small-drive growth rate of a node ratio away from its leading value.

    For a two-term law the ratio departs from the low-exponent value like
    eps * v_in**(alpha2 - alpha1); this returns the finite-drive estimate
    (d_k(v_in) - d_k(alpha1)) / v_in**(alpha2 - alpha1).
    """
    if len(f.terms) != 2:
        raise ValueError("growth coefficient needs a two-term law")
    if node not in c.nodes:
        raise ValueError(f"unknown node {node!r}")
    (_, m), (_, n) = f.terms
    base = alpha_solve(c, m).d[node]
    sol = solve_dc(c, f, v_in)
    return (sol.potentials[node] / v_in - base) / v_in ** (n - m)
