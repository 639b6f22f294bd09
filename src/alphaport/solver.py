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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._newton import EPS, REL_TOL, damped_newton, max_iterations
from .characteristic import Characteristic
from .circuit import Branch, Circuit, validate
from .network import Network

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


def _snap_equal_potentials(internal: list[str], x, port_values: dict[str, float],
                           branches) -> "np.ndarray | None":
    """Collapse numerically-zero branch drops to exact equality.

    Symmetric topologies put pairs of nodes at identical potentials; the
    iteration leaves them a few ulps apart, and for sublinear laws the
    residual current |drop|**alpha of that gap is enormous relative to it.
    Equality is representable, so force it and let the caller re-verify.
    """
    values = dict(port_values)
    for name, value in zip(internal, x):
        values[name] = float(value)

    parent: dict[str, str] = {n: n for n in values}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    changed = False
    for br in branches:
        p1, p2 = values[br.n1], values[br.n2]
        gap = abs(p1 - p2)
        if 0.0 < gap <= 1e3 * EPS * max(abs(p1), abs(p2)):
            r1, r2 = find(br.n1), find(br.n2)
            if r1 != r2:
                parent[r1] = r2
                changed = True
    if not changed:
        return None

    groups: dict[str, list[str]] = {}
    for n in values:
        groups.setdefault(find(n), []).append(n)
    snapped = dict(values)
    ports = set(port_values)
    for members in groups.values():
        if len(members) == 1:
            continue
        anchored = [n for n in members if n in ports]
        if len(anchored) > 1:
            continue  # cannot short the port; leave the group alone
        level = values[anchored[0]] if anchored else (
            sum(values[n] for n in members) / len(members))
        for n in members:
            snapped[n] = level
    return np.array([snapped[n] for n in internal])


def _live_split(c: Circuit) -> tuple[list[int], list[tuple[str, str]]]:
    """Split branches into current carriers and dead attachments.

    A branch carries current only if it lies on some simple path between
    the input terminals, i.e. it shares a biconnected component with a
    virtual edge joining them.  Everything else (pendant limbs, parallel
    stubs, dead loops hanging off one articulation node) is removed from
    the iteration: those drops are exactly zero, and for superlinear laws
    they zero the Jacobian while for sublinear laws the roundoff gap would
    generate large phantom currents.

    Returns the live branch indices plus (node, anchor) assignments, in an
    order safe to replay, giving every dead node the potential of the live
    or port node its piece hangs from.
    """
    n_br = len(c.branches)
    adjacency: dict[str, list[tuple[int, str]]] = {n: [] for n in c.nodes}
    for i, br in enumerate(c.branches):
        adjacency[br.n1].append((i, br.n2))
        adjacency[br.n2].append((i, br.n1))
    a, b = c.input_port
    virtual = n_br
    adjacency[a].append((virtual, b))
    adjacency[b].append((virtual, a))

    # iterative biconnected components over edge ids (parallel edges are
    # distinct ids, so a parallel pair forms its own 2-edge component)
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    edge_stack: list[int] = []
    live: set[int] = set()
    counter = 0
    for root in c.nodes:
        if root in disc:
            continue
        disc[root] = low[root] = counter
        counter += 1
        work = [(root, -1, iter(adjacency[root]))]
        while work:
            node, parent_edge, it = work[-1]
            advanced = False
            for edge_id, other in it:
                if edge_id == parent_edge:
                    continue
                if other not in disc:
                    disc[other] = low[other] = counter
                    counter += 1
                    edge_stack.append(edge_id)
                    work.append((other, edge_id, iter(adjacency[other])))
                    advanced = True
                    break
                if disc[other] < disc[node]:
                    edge_stack.append(edge_id)
                    low[node] = min(low[node], disc[other])
            if advanced:
                continue
            work.pop()
            if not work:
                continue
            parent_node = work[-1][0]
            low[parent_node] = min(low[parent_node], low[node])
            if low[node] >= disc[parent_node]:
                component = []
                while True:
                    edge_id = edge_stack.pop()
                    component.append(edge_id)
                    if edge_id == parent_edge:
                        break
                if virtual in component:
                    live.update(e for e in component if e != virtual)

    alive = sorted(live)
    dead = [i for i in range(n_br) if i not in live]

    # flood dead pieces outward from their unique live/port anchor
    anchored = {a, b}
    for i in alive:
        anchored.add(c.branches[i].n1)
        anchored.add(c.branches[i].n2)
    assignments: list[tuple[str, str]] = []
    assigned = set(anchored)
    frontier = list(anchored)
    dead_adj: dict[str, list[str]] = {}
    for i in dead:
        br = c.branches[i]
        dead_adj.setdefault(br.n1, []).append(br.n2)
        dead_adj.setdefault(br.n2, []).append(br.n1)
    while frontier:
        node = frontier.pop()
        for other in dead_adj.get(node, ()):
            if other not in assigned:
                assigned.add(other)
                assignments.append((other, node))
                frontier.append(other)
    return alive, assignments


def _nodal_network(c: Circuit) -> tuple[Network, list[str], list[tuple[str, str]],
                                         list[Branch]]:
    """KCL network of the live branches over the live internal nodes.

    Validates the circuit first.  Returned with those nodes in column
    order, the dead-node assignments of ``_live_split`` and the live branches.
    """
    rep = validate(c)
    if not rep.ok:
        raise ValueError("invalid circuit: " + "; ".join(rep.errors()))
    alive, dead_assignments = _live_split(c)
    dead_nodes = {n for n, _ in dead_assignments}
    internal = [n for n in c.internal_nodes() if n not in dead_nodes]
    live = [c.branches[i] for i in alive]
    n = len(internal)
    index = {name: i for i, name in enumerate(internal)}
    # port endpoints fall in the network's ignored sentinel column n
    cols = [index.get(name, n) for br in live for name in br[:2]]
    a = c.input_port[0]
    s = [(br.n1 == a) - (br.n2 == a) for br in live]
    net = Network(n, np.repeat(np.arange(len(live)), 2), cols, np.tile([1.0, -1.0], len(live)),
                  s, [br.w for br in live])
    return net, internal, dead_assignments, live


def solve_dc(c: Circuit, f: Characteristic, v_in: float,
             initial_potentials: dict[str, float] | None = None) -> DcSolution:
    """Solve KCL at every internal node for the given drive voltage.

    The iteration starts from the unit-conductance linear solution unless
    ``initial_potentials`` provides a warm start (useful for continuation
    toward large exponents).
    """
    if not (v_in > 0.0):
        raise ValueError(f"v_in must be positive, got {v_in}")
    nodal = _nodal_network(c)
    x0 = None if initial_potentials is None else (
        np.array([float(initial_potentials.get(n, 0.0)) for n in nodal[1]]))
    return _solve(c, f, v_in, nodal, x0)


def solve_grid(c: Circuit, f: Characteristic, grid) -> tuple[DcSolution, ...]:
    """``solve_dc`` at every drive of ``grid``, returned in grid order.

    The circuit is validated and its network built once.  Drives are
    solved in ascending order, each warm-started from the previous
    solution scaled by the drive ratio.
    """
    drives = [float(v) for v in grid]
    if not drives:
        raise ValueError("drive grid is empty")
    bad = next((v for v in drives if not v > 0.0), None)
    if bad is not None:
        raise ValueError(f"v_in must be positive, got {bad}")
    nodal = _nodal_network(c)
    solutions: dict[int, DcSolution] = {}
    prev = None
    for i in sorted(range(len(drives)), key=drives.__getitem__):
        v = drives[i]
        x0 = None if prev is None else (
            np.array([prev.potentials[n] for n in nodal[1]]) * (v / prev.v_in))
        prev = solutions[i] = _solve(c, f, v, nodal, x0)
    return tuple(solutions[i] for i in range(len(drives)))


def _solve(c: Circuit, f: Characteristic, v_in: float, nodal,
           x0: np.ndarray | None) -> DcSolution:
    """One drive of a prepared ``_nodal_network``; ``x0=None`` starts linear."""
    a, b = c.input_port
    net, internal, dead_assignments, live = nodal
    residual, jacobian, objective, tolerances = net.equations(f, v_in)
    abs_tol = net.abs_tol(f, v_in)
    max_iters = max_iterations()
    if x0 is None:
        x0 = net.linear_start(v_in)
    outcome = damped_newton(x0, residual, jacobian, objective, tolerances,
                            abs_tol=abs_tol, max_iters=max_iters)
    if not outcome.converged:
        snapped = _snap_equal_potentials(internal, outcome.x,
                                         {a: float(v_in), b: 0.0}, live)
        if snapped is not None:
            outcome = damped_newton(snapped, residual, jacobian, objective,
                                    tolerances, abs_tol=abs_tol, max_iters=max_iters)
    if not outcome.converged:
        raise SolverError(
            f"KCL iteration did not converge within {max_iters} "
            f"iterations (residual {outcome.residual_inf:.3e}); "
            "valid circuits always converge, so check the inputs")
    residual_sum = float(np.abs(residual(outcome.x)).sum())

    potentials = {a: float(v_in), b: 0.0}
    potentials.update(zip(internal, outcome.x.tolist()))
    for node, anchor in dead_assignments:
        potentials[node] = potentials[anchor]

    oriented: list[Branch] = []
    voltages: list[float] = []
    currents: list[float] = []
    for brn in c.branches:
        drop = potentials[brn.n1] - potentials[brn.n2]
        if drop < 0.0:
            oriented.append(Branch(brn.n2, brn.n1, brn.w))
            drop = -drop
        else:
            oriented.append(brn)
        voltages.append(drop)
        currents.append(brn.w * f(drop))

    i_b = port_current_sum(c, f, potentials, b)
    i_a = -port_current_sum(c, f, potentials, a)  # outflow at the driven terminal
    # the two port sums differ by exactly the telescoped internal
    # imbalances, so the achieved residuals bound the legitimate gap
    if abs(i_a - i_b) > residual_sum + 1e3 * REL_TOL * max(1.0, abs(i_b)):
        raise SolverError(
            f"input current differs between terminals ({i_a!r} vs {i_b!r}); "
            "KCL solution is inconsistent")

    return DcSolution(
        v_in=float(v_in),
        potentials=potentials,
        branches=tuple(oriented),
        branch_voltages=tuple(voltages),
        branch_currents=tuple(currents),
        input_current=float(i_b),
        residual_norm=float(outcome.residual_inf),
        residual_sum=residual_sum,
        iterations=int(outcome.iterations),
    )


def port_current_sum(c: Circuit, f: Characteristic, potentials, node: str) -> float:
    """Signed current flowing into ``node`` from its incident branches.

    At the grounded terminal this is the input current; at the driven
    terminal it is its negative (KCL through the whole port).
    """
    total = 0.0
    p = potentials
    for br in c.branches:
        if br.n1 == node and br.n2 == node:
            continue
        if br.n2 == node:
            total += br.w * f.eval_signed(p[br.n1] - p[br.n2])
        elif br.n1 == node:
            total += br.w * f.eval_signed(p[br.n2] - p[br.n1])
    return total


def co_content(c: Circuit, f: Characteristic, potentials) -> float:
    """Sum over branches of w * integral of f over the branch drop.

    Convex in the internal potentials; the DC solution is its unique
    minimizer with the port pinned, which the Newton line search exploits.
    """
    total = 0.0
    for br in c.branches:
        total += br.w * f.antiderivative(potentials[br.n1] - potentials[br.n2])
    return total
