"""Independent oracle: KCL solved to 40 digits by mpmath's Newton.

The equations are assembled here branch by branch, apart from the
library's network core, and ``mpmath.findroot`` solves them from the
double-precision solution.  Dead nodes are pinned to their anchor (from
``_live_split``, itself checked against networkx in test_solver.py)
because the system is singular there.
"""

import random

import pytest

from alphaport import Characteristic, alpha_solve, build_canonical, solve_dc
from alphaport.solver import _live_split
from conftest import random_connected_circuit

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
REL = 1e-11

CIRCUITS = {name: build_canonical(name) for name in ("fig_a1", "fig3", "fig4")}
CIRCUITS["ladder-6"] = build_canonical("ladder", sections=6)
CIRCUITS.update((f"random-{seed}", random_connected_circuit(random.Random(seed)))
                for seed in range(8))

LAWS = {
    "v+v^3": ((1.0, 1.0), (1.0, 3.0)),
    "v^3": ((1.0, 3.0),),
    "2v+v^1.5": ((2.0, 1.0), (1.0, 1.5)),
}


def mp_solve(c, terms, v_in, start):
    """Potentials and input current of law ``terms`` at drive ``v_in``, to 40 digits."""
    mp = mpmath.mp
    alive, dead_codes, anchor_codes = _live_split(c)
    live = [c.branches[i] for i in alive]
    a, b = c.input_port
    names = c._index.names
    dead_anchors = [(names[n], names[k]) for n, k in zip(dead_codes, anchor_codes)]
    dead = {n for n, _ in dead_anchors}
    unknowns = [n for n in c.internal_nodes() if n not in dead]
    index = {n: k for k, n in enumerate(unknowns)}

    def current(y):  # odd extension of the law
        return mpmath.sign(y) * sum(d * abs(y) ** e for d, e in terms)

    def slope(y):
        return sum(d * e * abs(y) ** (e - 1) for d, e in terms)

    def potentials(x):
        p = {a: mp.mpf(v_in), b: mp.mpf(0)}
        p.update(zip(unknowns, x))
        return p

    def residual(*x):
        p = potentials(x)
        r = [mp.mpf(0)] * len(unknowns)
        for br in live:
            flow = br.w * current(p[br.n1] - p[br.n2])
            if br.n1 in index:
                r[index[br.n1]] -= flow
            if br.n2 in index:
                r[index[br.n2]] += flow
        return r

    def jacobian(*x):
        p = potentials(x)
        jac = mp.zeros(len(unknowns))
        for br in live:
            g = br.w * slope(p[br.n1] - p[br.n2])
            i, j = index.get(br.n1), index.get(br.n2)
            for row, col, sign in ((i, i, -1), (j, j, -1), (i, j, 1), (j, i, 1)):
                if row is not None and col is not None:
                    jac[row, col] += sign * g
        return jac

    with mp.workdps(DIGITS):
        p = potentials([])
        if unknowns:
            x0 = [mp.mpf(start[n]) for n in unknowns]
            root = mpmath.findroot(residual, x0, J=jacobian)
            p = potentials([root] if isinstance(root, mpmath.mpf) else list(root))
        for node, anchor in dead_anchors:
            p[node] = p[anchor]
        # inflow at the grounded terminal b
        i_in = sum(br.w * current(p[br.n1 if br.n2 == b else br.n2] - p[b])
                   for br in c.branches if (br.n1 == b) != (br.n2 == b))
        return {n: float(v) for n, v in p.items()}, float(i_in)


@pytest.mark.parametrize("law", list(LAWS))
@pytest.mark.parametrize("name", list(CIRCUITS))
def test_solve_dc_matches_40_digit_newton(name, law):
    c = CIRCUITS[name]
    for v_in in (0.1, 1.0, 10.0):
        sol = solve_dc(c, Characteristic(LAWS[law]), v_in)
        potentials, i_in = mp_solve(c, LAWS[law], v_in, sol.potentials)
        assert sol.input_current == pytest.approx(i_in, rel=REL)
        for n, p in potentials.items():
            assert sol.potentials[n] == pytest.approx(p, rel=REL, abs=REL * v_in), n


@pytest.mark.parametrize("name", list(CIRCUITS))
def test_alpha_profile_phi_matches_40_digit_newton(name):
    c = CIRCUITS[name]
    for alpha in (1.0, 2.0, 3.0):
        prof = alpha_solve(c, alpha)
        _, phi = mp_solve(c, ((1.0, alpha),), 1.0, prof.d)
        assert prof.phi == pytest.approx(phi, rel=REL)
