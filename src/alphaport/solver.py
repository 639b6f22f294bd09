"""Exact DC solution of a one-port with identical monotone conductors.

Unknowns are the internal node potentials x; the input terminals are
pinned to (v_in, 0).  KCL is the network equation A^T w f(A x + s v_in) = 0
of network.py, with A the signed incidence of the live branches over the
internal nodes and s their incidence on the driven terminal, solved at
unit drive and scaled back (see network.py).  Damped Newton solves it,
safeguarded by a line search on the co-content (the per-branch integral
of the conductor law), which is strictly convex in x, so the solution
exists and is unique; a solve that does not converge raises
``SolverError`` (``Network.solve``).

Branches that lie on no path between the input terminals carry no current;
they are trimmed before the iteration (see _live_split) and their nodes
take the potential of the anchor they hang from, which keeps the Jacobian
nonsingular for superlinear laws and avoids phantom roundoff currents for
sublinear ones.

Everything around the iteration works on the circuit's integer form
(``Circuit._index``: node codes of each branch's ends, and multiplicities),
built once per circuit.  Validation, the live split and the network build
read it, and a solution is packaged from one potentials vector: branch
drops, orientation, currents and both port sums are array operations, and
the law is never called per branch.

None of that topology work depends on the drive or the law, so it is done
once per circuit too: the validation report, the live split and the
network (``_nodal_network``) are kept on the circuit, and the network
keeps its linear start, read-only, which every drive shares.  So is the
limit of the unknowns as the exponent grows without bound (``_lex_limit``),
built on the first cold solve whose smallest exponent is above 1: those
solves are continued in the exponent from it.  Every call on the same
circuit shares them; solutions are never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._newton import EPS, REL_TOL
from .characteristic import Characteristic
from .circuit import Branch, Circuit, _kept, _neighbours, _require_valid
from .network import Network, SolverError, _unit_drive

__all__ = [
    "SolverError",
    "DcSolution",
    "solve_dc",
    "solve_grid",
    "port_current_sum",
    "co_content",
]

@dataclass(frozen=True)
class DcSolution:
    """DC operating point of a one-port.

    Branches are re-oriented so every stored drop is nonnegative (current
    flows from ``n1`` to ``n2``); ``branches`` preserves the input order
    otherwise.  ``input_current`` is the signed inflow collected at the
    grounded terminal.
    """

    v_in: float
    potentials: dict[str, float]
    branches: tuple[Branch, ...]
    branch_voltages: tuple[float, ...]
    branch_currents: tuple[float, ...]
    input_current: float
    residual_norm: float  # largest per-node KCL imbalance
    residual_sum: float  # total KCL imbalance; bounds the port-sum gap
    iterations: int

    @property
    def d(self) -> dict[str, float]:
        """Voltage-division ratios v_k / v_in."""
        return {n: p / self.v_in for n, p in self.potentials.items()}


class _Nodal(NamedTuple):
    """A circuit's KCL network, and where its unknowns sit among the nodes.

    Nodes are codes into ``Circuit._index``: ``unknown`` per column, and
    ``place[k]`` the column of node k among [unknowns..., a, b], a dead
    node taking its anchor's, the live or port node whose potential it
    takes.  ``live`` lists the live branch indices.
    """

    net: Network
    unknown: np.ndarray
    place: np.ndarray
    live: np.ndarray


def _live_split(c: Circuit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split branches into current carriers and dead attachments.

    A branch carries current only if it lies on some simple path between
    the input terminals, i.e. it shares a biconnected component with a
    virtual edge joining them.  Everything else (pendant limbs, parallel
    stubs, dead loops hanging off one articulation node) is removed from
    the iteration: those drops are exactly zero, and for superlinear laws
    they zero the Jacobian while for sublinear laws the roundoff gap would
    generate large phantom currents.

    Returns the live branch indices, ascending, then the dead nodes (every
    node on no live branch, ports excepted) and the anchor of each: the
    live or port node its piece hangs from, whose potential it takes.
    Nodes are codes into ``c._index``.

    One depth-first walk from a, which takes the virtual edge first so that
    b is a's first child, numbers the nodes in preorder; low points and
    articulation tests then run on arrays.  A branch lies in the virtual
    edge's component iff its deeper end lies in no subtree that is cut off
    at an articulation node, b's own subtree excepted.
    """
    idx = c._index
    n = len(idx.names)
    n1 = np.concatenate(([idx.a], idx.n1))  # branch 0 is the virtual edge
    n2 = np.concatenate(([idx.b], idx.n2))
    start, nbr, via = _neighbours(n, n1, n2)

    disc = [-1] * n  # preorder number
    finish = [0] * n  # one past the preorder numbers of the subtree
    up = [0] * n  # branch to the parent
    nxt, stop = start[:-1], start[1:]
    disc[idx.a] = 0
    order, stack = [idx.a], [idx.a]
    while stack:
        p = stack[-1]
        i = nxt[p]
        if i == stop[p]:
            finish[p] = len(order)
            stack.pop()
            continue
        nxt[p] = i + 1
        q = nbr[i]
        if disc[q] < 0:
            disc[q] = len(order)
            up[q] = via[i]
            order.append(q)
            stack.append(q)

    rank, up_branch = np.array(disc), np.array(up)
    parent = (n1[up_branch] + n2[up_branch] - np.arange(n)).tolist()
    tree = np.zeros(n1.size, dtype=bool)
    tree[up_branch] = True
    # low point: the smallest preorder number that one non-tree branch
    # reaches from a node's subtree, gathered leaves first
    low = rank.copy()
    np.minimum.at(low, n1[~tree], rank[n2[~tree]])
    np.minimum.at(low, n2[~tree], rank[n1[~tree]])
    low = low.tolist()
    for q in reversed(order[1:]):
        p = parent[q]
        if low[q] < low[p]:
            low[p] = low[q]

    # a subtree whose low point does not climb above its parent is cut off
    # there; mark the preorder ranges of all of them but b's
    cut = np.array(low) >= rank[parent]
    cut[[idx.a, idx.b]] = False
    cover = (np.bincount(rank[cut], minlength=n + 1)
             - np.bincount(np.array(finish)[cut], minlength=n + 1))
    covered = np.cumsum(cover)[:n] > 0
    deeper = np.maximum(rank[idx.n1], rank[idx.n2])
    alive = np.flatnonzero(~covered[deeper])

    on_live = np.zeros(n, dtype=bool)
    on_live[idx.n1[alive]] = on_live[idx.n2[alive]] = True
    on_live[[idx.a, idx.b]] = True
    dead = np.flatnonzero(~on_live)
    # the nearest live or port ancestor, parents first
    anchor: dict[int, int] = {}
    for q in sorted(dead.tolist(), key=disc.__getitem__):
        p = parent[q]
        anchor[q] = p if on_live[p] else anchor[p]
    return alive, dead, np.array([anchor[q] for q in dead.tolist()], dtype=np.intp)


def _nodal_network(c: Circuit) -> _Nodal:
    """KCL network of the live branches over the live internal nodes.

    Built once per circuit and kept on it; an invalid circuit raises
    ``ValueError`` instead, on every call.  The unknowns are the live
    internal nodes in name order.
    """
    return _kept(c, "_nodal", _build_nodal)


def _build_nodal(c: Circuit) -> _Nodal:
    _require_valid(c)
    idx = c._index
    alive, dead, anchor = _live_split(c)
    internal = np.ones(len(idx.names), dtype=bool)
    internal[[idx.a, idx.b]] = False
    internal[dead] = False
    unknown = np.flatnonzero(internal)
    n = unknown.size
    place = np.empty(len(idx.names), dtype=np.intp)
    place[unknown] = np.arange(n)
    place[idx.a], place[idx.b] = n, n + 1
    place[dead] = place[anchor]
    n1, n2 = idx.n1[alive], idx.n2[alive]
    # port endpoints fall in the network's ignored sentinel column n
    cols = np.minimum(place[np.column_stack((n1, n2))], n).ravel()
    s = (n1 == idx.a) - (n2 == idx.a).astype(float)
    net = Network(n, np.repeat(np.arange(alive.size), 2), cols,
                  np.tile([1.0, -1.0], alive.size), s, idx.w[alive], "KCL")
    return _Nodal(net, unknown, place, alive)


def _lex_limit(c: Circuit) -> np.ndarray:
    """The unit-drive unknowns of ``_nodal_network`` in the limit alpha -> inf.

    Under v**alpha the ratios d_k(alpha) converge to the lex-minimal
    Lipschitz extension of p(a) = 1, p(b) = 0 over the live graph (Kyng,
    Rao, Sachdeva, Spielman, COLT 2015), in which every branch has unit
    length: multiplicities drop out, as w**(1/alpha) -> 1.  It depends on
    the topology only, so it is built once per circuit, kept on it and
    read-only.  Each component of the free nodes is settled against the
    fixed nodes bounding it (``_fix_steepest``) until no node is free.
    """
    return _kept(c, "_lex", _build_lex_limit)


def _build_lex_limit(c: Circuit) -> np.ndarray:
    nodal = _nodal_network(c)
    idx = c._index
    n = nodal.unknown.size
    # nodes are the unknowns in column order, then a and b; plain lists,
    # since most circuits are small and each round walks them in Python
    place = nodal.place.tolist()
    adjacent: list[list[int]] = [[] for _ in range(n + 2)]
    n1, n2 = idx.n1.tolist(), idx.n2.tolist()
    for branch in nodal.live.tolist():
        p, q = place[n1[branch]], place[n2[branch]]
        adjacent[p].append(q)
        adjacent[q].append(p)
    value = [0.0] * n + [1.0, 0.0]
    fixed = [False] * n + [True, True]
    groups = [range(n)]
    while groups:
        seen = set()
        for root in groups.pop():
            if fixed[root] or root in seen:
                continue
            seen.add(root)
            component, ends = [root], set()
            for p in component:
                for q in adjacent[p]:
                    if fixed[q]:
                        ends.add(q)
                    elif q not in seen:
                        seen.add(q)
                        component.append(q)
            if not _fix_steepest(adjacent, value, fixed, component, list(ends)):
                groups.append(component)
    x = np.array(value[:n])
    x.flags.writeable = False
    return x


def _fix_steepest(adjacent: list, value: list, fixed: list, component: list[int],
                  ends: list[int]) -> bool:
    """Fix the nodes of ``component`` that lie on its steepest paths; True
    when that is all of them.

    ``component`` is a connected set of free nodes and ``ends`` the fixed
    nodes next to it.  A breadth-first walk from each end through the
    component gives its distance d_s(v) to every node, and to the other
    ends.  The steepest gradient g is the largest (x_s - x_t) / d_s(t)
    over pairs of ends; then x_s - g d_s(v) <= x_t + g d_t(v) for all s, t
    and v, and v lies on a path of gradient g exactly where the largest
    left side meets the smallest right side, its value in the limit.  When
    every end has one value, so has the whole component, and a lone node
    takes the midrange of its ends.
    """
    xs = [value[s] for s in ends]
    top, bottom = max(xs), min(xs)
    if top == bottom or len(component) == 1:
        middle = 0.5 * (top + bottom)
        for v in component:
            value[v], fixed[v] = middle, True
        return True
    inside = set(component)
    walks, g = [], 0.0
    for s, x in zip(ends, xs):
        d, queue = {s: 0}, [s]
        for p in queue:
            dp = d[p] + 1
            for q in adjacent[p]:
                if q in inside:
                    if q not in d:
                        d[q] = dp
                        queue.append(q)
                elif p != s and x - value[q] > g * dp:
                    g = (x - value[q]) / dp
        walks.append(d)
    dists = [[d[v] * g for v in component] for d in walks]
    his = map(max, *([x - gd for gd in dist] for x, dist in zip(xs, dists)))
    los = map(min, *([x + gd for gd in dist] for x, dist in zip(xs, dists)))
    # a path of gradient g meets this test to within the roundoff of
    # values in [0, 1]; the remaining nodes are settled in a later round
    tol = 16.0 * EPS
    settled = True
    for v, hi, lo in zip(component, his, los):
        if lo - hi <= tol:
            value[v], fixed[v] = lo, True
        else:
            settled = False
    return settled


def solve_dc(c: Circuit, f: Characteristic, v_in: float) -> DcSolution:
    """Solve KCL at every internal node for the given drive voltage.

    The one-drive case of ``solve_grid``: the iteration starts from the
    unit-conductance linear solution at unit drive.
    """
    return solve_grid(c, f, (v_in,))[0]


def solve_grid(c: Circuit, f: Characteristic, grid) -> tuple[DcSolution, ...]:
    """``solve_dc`` at every drive of ``grid``, returned in grid order.

    Every drive is checked before any solve.  The drives share the
    circuit's one ``_nodal_network`` and are solved in ascending order by
    ``_chain``.
    """
    drives = [float(v) for v in grid]
    if not drives:
        raise ValueError("drive grid is empty")
    units = [_unit_drive(f, v, "v_in") for v in drives]
    order = sorted(range(len(drives)), key=drives.__getitem__)
    solutions = _chain(c, _nodal_network(c), [(f, drives[i], *units[i]) for i in order])
    by_index = dict(zip(order, solutions))
    return tuple(by_index[i] for i in range(len(drives)))


def _chain(c: Circuit, nodal: _Nodal, steps) -> list[DcSolution]:
    """Solve ``steps``, each (f, v_in, g, k) as in ``_solve``, in order on one
    prepared ``_nodal_network``.  The first starts cold, each later one from
    the previous unit-drive unknowns.
    """
    solutions: list[DcSolution] = []
    x = None
    for step in steps:
        sol, x = _solve(c, *step, nodal, x)
        solutions.append(sol)
    return solutions


def _solve(c: Circuit, f: Characteristic, v_in: float, g: Characteristic, k: float,
           nodal: _Nodal, x0: np.ndarray | None) -> tuple[DcSolution, np.ndarray]:
    """Drive v_in of law f, solved as the unit drive of ``(g, k) = _unit_drive(f,
    v_in, ...)``; ``x0=None`` starts cold.  A cold solve whose smallest
    exponent is above 1 is anchored at ``_lex_limit``; below, a start near
    the limit slows Newton (at v**0.5 on a 20x20 grid 37 iterations became
    165).  Returns the solution and its unit-drive unknowns.
    """
    net = nodal.net
    anchored = x0 is None and g.min_exponent > 1.0
    outcome = net.solve(g, x0, _lex_limit(c) if anchored else None)
    residual_sum = k * float(np.abs(outcome.residual).sum())

    idx = c._index
    p = v_in * np.concatenate((outcome.x, [1.0, 0.0]))[nodal.place]
    drop = p[idx.n1] - p[idx.n2]
    flow = idx.w * f.values(drop)  # from n1 to n2

    i_b = _inflow(idx, flow, idx.b)
    i_a = -_inflow(idx, flow, idx.a)  # outflow at the driven terminal
    # the two port sums differ by exactly the telescoped internal
    # imbalances, so the achieved residuals bound the legitimate gap
    if abs(i_a - i_b) > residual_sum + 1e3 * REL_TOL * max(1.0, abs(i_b)):
        raise SolverError(
            f"input current differs between terminals ({i_a!r} vs {i_b!r}); "
            "KCL solution is inconsistent")

    # re-orient the branches that carry current from n2 to n1
    branches = list(c.branches)
    for i in np.flatnonzero(drop < 0.0).tolist():
        br = branches[i]
        branches[i] = Branch(br.n2, br.n1, br.w)
    solution = DcSolution(
        v_in=float(v_in),
        potentials=dict(zip(idx.names, p.tolist())),
        branches=tuple(branches),
        branch_voltages=tuple(np.abs(drop).tolist()),
        branch_currents=tuple(np.abs(flow).tolist()),
        input_current=i_b,
        residual_norm=k * float(outcome.residual_inf),
        residual_sum=residual_sum,
        iterations=int(outcome.iterations),
    )
    return solution, outcome.x


def _inflow(idx, flow: np.ndarray, k: int) -> float:
    """Signed current into node code ``k`` from per-branch ``flow`` (n1 to n2)."""
    return float(flow[idx.n2 == k].sum() - flow[idx.n1 == k].sum())


def _node_potentials(c: Circuit, potentials) -> np.ndarray:
    """``potentials`` as a vector over ``c._index.names``; every node needs one."""
    names = c._index.names
    missing = [n for n in names if n not in potentials]
    if missing:
        raise ValueError(f"no potential given for nodes {', '.join(map(repr, missing))}")
    return np.array([potentials[n] for n in names], dtype=float)


def port_current_sum(c: Circuit, f: Characteristic, potentials, node: str) -> float:
    """Signed current flowing into ``node`` from its incident branches.

    At the grounded terminal this is the input current; at the driven
    terminal it is its negative (KCL through the whole port).
    ``potentials`` must give every node of the circuit.
    """
    if node not in c.nodes:
        raise ValueError(f"node {node!r} is not in the circuit")
    idx = c._index
    p = _node_potentials(c, potentials)
    flow = idx.w * f.values(p[idx.n1] - p[idx.n2])
    return _inflow(idx, flow, idx.names.index(node))


def co_content(c: Circuit, f: Characteristic, potentials) -> float:
    """Sum over branches of w * integral of f over the branch drop.

    Convex in the internal potentials; the DC solution is its unique
    minimizer with the port pinned, which the Newton line search exploits.
    ``potentials`` must give every node of the circuit.
    """
    idx = c._index
    p = _node_potentials(c, potentials)
    return float(idx.w @ f.integral(p[idx.n1] - p[idx.n2]))
