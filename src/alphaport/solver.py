"""Exact DC solution of a one-port with identical monotone conductors.

Unknowns are the internal node potentials x; the input terminals are
pinned to (v_in, 0).  KCL is the network equation A^T w f(A x + s v_in) = 0
of network.py, with A the signed incidence of the live branches over the
internal nodes and s their incidence on the driven terminal.  Damped Newton
solves it, safeguarded by a line search on the co-content (the per-branch
integral of the conductor law), which is strictly convex in x, so the
solution exists, is unique and is always found.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._newton import EPS, REL_TOL, damped_newton, max_iterations
from .characteristic import Characteristic
from .circuit import Branch, Circuit, _neighbours, validate
from .network import Network, _check_drive, _currents, _integral

__all__ = [
    "SolverError",
    "DcSolution",
    "solve_dc",
    "solve_grid",
    "port_current_sum",
    "co_content",
]

class SolverError(RuntimeError):
    """Newton failed to meet tolerance; for valid inputs this is a bug signal."""


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
    each ``dead`` node with the live or port node, its ``anchor``, whose
    potential it takes.  ``live`` lists the live branch indices.
    """

    net: Network
    internal: list[str]  # names of the unknowns, in column order
    unknown: np.ndarray
    dead: np.ndarray
    anchor: np.ndarray
    live: np.ndarray


def _snap_equal_potentials(c: Circuit, nodal: _Nodal, x: np.ndarray,
                           v_in: float) -> "np.ndarray | None":
    """Collapse numerically-zero branch drops to exact equality.

    Symmetric topologies put pairs of nodes at identical potentials; the
    iteration leaves them a few ulps apart, and for sublinear laws the
    residual current |drop|**alpha of that gap is enormous relative to it.
    Equality is representable, so force it and let the caller re-verify.
    """
    idx, n = c._index, x.size
    # positions in [unknowns..., a, b]
    place = np.full(len(idx.names), -1)
    place[nodal.unknown] = np.arange(n)
    place[[idx.a, idx.b]] = n, n + 1
    values = np.concatenate((x, [v_in, 0.0]))
    e1, e2 = place[idx.n1[nodal.live]], place[idx.n2[nodal.live]]
    p1, p2 = values[e1], values[e2]
    gap = np.abs(p1 - p2)
    close = (gap > 0.0) & (gap <= 1e3 * EPS * np.maximum(np.abs(p1), np.abs(p2)))
    if not np.any(close):
        return None

    parent: dict[int, int] = {}

    def find(k: int) -> int:
        parent.setdefault(k, k)
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for i, j in zip(e1[close].tolist(), e2[close].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    groups: dict[int, list[int]] = {}
    for k in sorted(parent):
        groups.setdefault(find(k), []).append(k)
    level = values.tolist()
    snapped = x.copy()
    for members in groups.values():
        anchored = [k for k in members if k >= n]
        if len(anchored) > 1:
            continue  # cannot short the port; leave the group alone
        value = level[anchored[0]] if anchored else (
            sum(level[k] for k in members) / len(members))
        snapped[[k for k in members if k < n]] = value
    return snapped


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

    Validates the circuit first.  The unknowns are the live internal nodes
    in name order.
    """
    rep = validate(c)
    if not rep.ok:
        raise ValueError("invalid circuit: " + "; ".join(rep.errors()))
    idx = c._index
    alive, dead, anchor = _live_split(c)
    internal = np.ones(len(idx.names), dtype=bool)
    internal[[idx.a, idx.b]] = False
    internal[dead] = False
    unknown = np.flatnonzero(internal)
    n = unknown.size
    # port endpoints fall in the network's ignored sentinel column n
    column = np.full(len(idx.names), n)
    column[unknown] = np.arange(n)
    n1, n2 = idx.n1[alive], idx.n2[alive]
    cols = np.column_stack((column[n1], column[n2])).ravel()
    s = (n1 == idx.a) - (n2 == idx.a).astype(float)
    net = Network(n, np.repeat(np.arange(alive.size), 2), cols,
                  np.tile([1.0, -1.0], alive.size), s, idx.w[alive])
    return _Nodal(net, [idx.names[k] for k in unknown.tolist()], unknown, dead, anchor, alive)


def solve_dc(c: Circuit, f: Characteristic, v_in: float) -> DcSolution:
    """Solve KCL at every internal node for the given drive voltage.

    The one-drive case of ``solve_grid``: the iteration starts from the
    unit-conductance linear solution.
    """
    return solve_grid(c, f, (v_in,))[0]


def solve_grid(c: Circuit, f: Characteristic, grid) -> tuple[DcSolution, ...]:
    """``solve_dc`` at every drive of ``grid``, returned in grid order.

    Every drive is checked before any solve.  The circuit is validated and
    its network built once, and the drives are solved in ascending order
    by ``_chain``.
    """
    drives = [float(v) for v in grid]
    if not drives:
        raise ValueError("drive grid is empty")
    for v in drives:
        _check_drive(f, v, "v_in")
    order = sorted(range(len(drives)), key=drives.__getitem__)
    solutions = _chain(c, _nodal_network(c), [(f, drives[i]) for i in order])
    by_index = dict(zip(order, solutions))
    return tuple(by_index[i] for i in range(len(drives)))


def _chain(c: Circuit, nodal: _Nodal, steps) -> list[DcSolution]:
    """Solve (law, drive) ``steps`` in order on one prepared ``_nodal_network``.

    The first step starts linear; each later one is warm-started from the
    previous unknowns scaled by the drive ratio.
    """
    solutions: list[DcSolution] = []
    x = None
    for f, v in steps:
        x0 = None if x is None else x * (v / solutions[-1].v_in)
        sol, x = _solve(c, f, v, nodal, x0)
        solutions.append(sol)
    return solutions


def _solve(c: Circuit, f: Characteristic, v_in: float, nodal: _Nodal,
           x0: np.ndarray | None) -> tuple[DcSolution, np.ndarray]:
    """One drive of a prepared ``_nodal_network``; ``x0=None`` starts linear.

    Returns the solution and its unknowns.
    """
    net = nodal.net
    residual, jacobian, objective, tolerances = net.equations(f, v_in)
    abs_tol = net.abs_tol(f, v_in)
    max_iters = max_iterations()
    if x0 is None:
        x0 = net.linear_start(v_in)
    outcome = damped_newton(x0, residual, jacobian, objective, tolerances,
                            abs_tol=abs_tol, max_iters=max_iters)
    if not outcome.converged:
        snapped = _snap_equal_potentials(c, nodal, outcome.x, v_in)
        if snapped is not None:
            outcome = damped_newton(snapped, residual, jacobian, objective,
                                    tolerances, abs_tol=abs_tol, max_iters=max_iters)
    if not outcome.converged:
        raise SolverError(
            f"KCL iteration did not converge within {max_iters} "
            f"iterations (residual {outcome.residual_inf:.3e}); "
            "valid circuits always converge, so check the inputs")
    residual_sum = float(np.abs(residual(outcome.x)).sum())

    idx = c._index
    p = np.empty(len(idx.names))
    p[idx.a], p[idx.b] = v_in, 0.0
    p[nodal.unknown] = outcome.x
    p[nodal.dead] = p[nodal.anchor]
    drop = p[idx.n1] - p[idx.n2]
    flow = idx.w * _currents(f, drop)  # from n1 to n2

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
        residual_norm=float(outcome.residual_inf),
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
    flow = idx.w * _currents(f, p[idx.n1] - p[idx.n2])
    return _inflow(idx, flow, idx.names.index(node))


def co_content(c: Circuit, f: Characteristic, potentials) -> float:
    """Sum over branches of w * integral of f over the branch drop.

    Convex in the internal potentials; the DC solution is its unique
    minimizer with the port pinned, which the Newton line search exploits.
    ``potentials`` must give every node of the circuit.
    """
    idx = c._index
    p = _node_potentials(c, potentials)
    return float(idx.w @ _integral(f, p[idx.n1] - p[idx.n2]))
