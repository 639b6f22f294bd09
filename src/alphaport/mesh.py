"""Mesh-current (resistive) formulation: v = f(i) elements, current drive.

Swapping the element law's axes and the source type yields the dual
description of the same graphs: unknown mesh currents, KVL loop equations,
and an input coefficient phi_meshes with

    v_in = D * phi_meshes(alpha) * i_in**alpha

for the power-law case.  The two formulations convert into each other by
alpha -> 1/alpha, D -> D**-alpha, phi -> phi(1/alpha)**-alpha, which
generalizes r_in = 1/g_in beyond the linear case.  Large exponents now
produce current (not voltage) hardlimiters.  The loop equations are the
nodal solver's network equation A^T w f(A x + s i_in) = 0 (network.py)
with A = diag(1/w) L for the loop matrix L and s = source / w, solved at
unit source current and scaled back as every drive is.

Loop bases are explicit inputs: the built-in fig_b1 carries the two-mesh
basis plus the source loop; netlists can supply ``.mesh`` sections.  A
basis is checked before solving: every loop closes, the source loop is a
path from a to b, and the other loops are n_branches - n_nodes + 1
independent ones.  A circuit's declared basis is built and checked once
and its network kept on the circuit (``_loop_network``), so repeated
solves and profiles on it share one network; a basis passed to
``mesh_solve`` is built and checked on every call.

``mesh_solve`` and the alpha-test share the loop network: a circuit that
declares a basis has its conductance profiles below exponent 1 solved on
it under the resistive law i**(1/alpha), which is smooth where the
conductance law has a kink (see alpha.py).  ``mesh_solve`` itself solves
the law it is given.  Both call ``Network.solve``, which continues a cold
solve in the exponent and raises ``SolverError`` ("KVL iteration did not
converge ...") when the solve does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from ._newton import EPS
from .characteristic import Characteristic
from .circuit import Circuit, Mesh, _kept, _require_valid
from .network import Network, _unit_drive

__all__ = [
    "MeshSolution",
    "mesh_solve",
    "phi_meshes_from_nodes",
    "phi_b6_closed_form",
]

# A Cholesky pivot at or below this share of its diagonal marks a loop
# dependent on the ones eliminated before it (in Network.blocks order):
# roundoff leaves such a pivot near EPS, while independent loops of any
# practical basis keep it near 1/n or above.
DEPENDENT_PIVOT = float(np.sqrt(EPS))


@dataclass(frozen=True)
class MeshSolution:
    i_in: float
    mesh_currents: dict[str, float]
    input_voltage: float
    phi_meshes: float | None  # None for laws with more than one term
    residual_norm: float
    iterations: int


def _loop_network(c: Circuit, basis: Sequence[Mesh] | None = None) -> tuple[Network, list[str]]:
    """KVL network A = diag(1/w) L, s = source / w of a loop basis.

    Returns the network and the names of its unknown loops, in order.  The
    circuit's declared basis (``basis`` None, meaning ``c.meshes``) is
    built and checked once and kept on the circuit; any other basis is
    built and checked on every call.
    """
    if basis is None:
        return _kept(c, "_loops", lambda c: _loop_network(c, c.meshes))
    _require_valid(c)
    names = [m.name for m in basis]
    if "source" not in names:
        raise ValueError("mesh basis must include the loop named 'source'")
    if len(set(names)) != len(names):
        raise ValueError("duplicate mesh names in basis")

    idx = c._index
    n_br = len(c.branches)
    unknowns = [m for m in basis if m.name != "source"]
    n = len(unknowns)
    # the source loop takes column n, just past the unknowns
    loops = unknowns + [m for m in basis if m.name == "source"]
    signed = np.fromiter(chain.from_iterable(m.branches for m in loops), np.intp)
    cols = np.repeat(np.arange(n + 1), [len(m.branches) for m in loops])
    rows = np.abs(signed) - 1
    outside = np.flatnonzero((rows < 0) | (rows >= n_br))
    if outside.size:
        k = outside[0]
        raise ValueError(f"mesh {loops[cols[k]].name!r} references branch {rows[k] + 1} "
                         f"but the circuit has {n_br}")
    signs = np.sign(signed).astype(float)

    # node incidence B of every loop from its branch entries: each unknown
    # loop must close (B l = 0) and the source loop run from a to b
    # (B s = e_a - e_b); summed per (node, loop) cell that occurs
    a, b = c.input_port
    cells = np.concatenate((idx.n1[rows], idx.n2[rows], [idx.a, idx.b])) * (n + 1) \
        + np.concatenate((cols, cols, [n, n]))
    occurring, which = np.unique(cells, return_inverse=True)
    sums = np.bincount(which, np.concatenate((signs, -signs, [-1.0, 1.0])))
    broken = np.unique(occurring[sums != 0.0] % (n + 1))
    if broken.size and broken[-1] == n:
        raise ValueError(f"invalid mesh basis: the source loop is not a path from {a!r} to {b!r}")
    if broken.size:
        raise ValueError(f"invalid mesh basis: loop {loops[broken[0]].name!r} does not close")
    needed = n_br - len(idx.names) + 1
    if n != needed:
        raise ValueError(f"invalid mesh basis: {n} loops besides the source, "
                         f"but the circuit has {needed} independent loops")

    w = idx.w
    src = cols == n
    s = np.bincount(rows[src], signs[src], minlength=n_br) / w
    # one entry per (branch, loop): a loop that lists a branch more than
    # once holds the sum of its signs there
    loop = ~src
    entries, entry = np.unique(rows[loop] * (n + 1) + cols[loop], return_inverse=True)
    lrows, lcols = np.divmod(entries, n + 1)
    net = Network(n, lrows, lcols, np.bincount(entry, signs[loop]) / w[lrows], s, w, "KVL")
    # the loops are independent iff the linear-start Gram matrix is
    # positive definite; a dependent set leaves a pivot at roundoff level
    gram = net.gram(net.w)
    try:
        independent = bool(np.all(gram.cholesky_pivots() > DEPENDENT_PIVOT * gram.diagonal()))
    except np.linalg.LinAlgError:
        independent = False
    if not independent:
        raise ValueError("invalid mesh basis: the loops are not independent")
    return net, [m.name for m in unknowns]


def mesh_solve(c: Circuit, f_resistive: Characteristic, i_in: float,
               basis: Sequence[Mesh] | None = None) -> MeshSolution:
    """Solve the KVL loop equations under a current drive.

    Branch current is the signed sum of its loops' currents (plus i_in on
    the source loop); a branch of multiplicity w splits that current over w
    parallel elements.  The input voltage is collected around the source
    loop.  The co-energy (integral of f over current) is the convex merit.
    """
    g, k = _unit_drive(f_resistive, i_in, "i_in")
    basis = None if basis is None else tuple(basis)
    if not (c.meshes if basis is None else basis):
        raise ValueError("no mesh basis: pass one or use a circuit with .mesh sections")
    net, names = _loop_network(c, basis)
    outcome = net.solve(g)

    # s . w f(y) = source . f(y): the element voltages around the source loop
    v_in = k * float(net.s @ net.flows(g, outcome.x))
    phi = None
    if len(f_resistive.terms) == 1:
        d, a = f_resistive.terms[0]
        phi = v_in / (d * i_in**a)
    return MeshSolution(
        i_in=float(i_in),
        mesh_currents=dict(zip(names, (i_in * outcome.x).tolist())),
        input_voltage=v_in,
        phi_meshes=phi,
        residual_norm=k * float(outcome.residual_inf),
        iterations=int(outcome.iterations),
    )


def phi_meshes_from_nodes(phi_nodes_at: Callable[[float], float], alpha: float) -> float:
    """Convert a nodal input coefficient to the mesh-current one.

    phi_meshes(alpha) = 1 / phi_nodes(1/alpha)**alpha; at alpha = 1 this is
    the familiar r_in = 1/g_in.
    """
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    return 1.0 / phi_nodes_at(1.0 / alpha) ** alpha


def phi_b6_closed_form(alpha: float) -> float:
    """Closed-form phi_meshes(alpha) of the built-in fig_b1 basis.

    Eliminating the far mesh gives i2 = i1 / (1 + 2**(1/a)); the input mesh
    then yields i1/i_in, and phi follows from the drop across the direct
    port element: phi = (1 - i1/i_in)**a.
    """
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    a = float(alpha)
    t = 1.0 + 2.0 ** (1.0 / a)  # i1 / i2
    inner = 1.0 + 2.0 / t**a
    i1_frac = 1.0 / (1.0 + inner ** (1.0 / a))
    return (1.0 - i1_frac) ** a
