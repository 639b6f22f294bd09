"""Shared test helpers: seeded generators for circuits and conductor laws."""

from __future__ import annotations

import random
from collections import defaultdict

from alphaport import Branch, Characteristic, Circuit, Mesh


def random_connected_circuit(rng: random.Random, max_internal: int = 6,
                             max_extra: int = 5) -> Circuit:
    """Random connected multigraph on port (a, b) built from a spanning tree."""
    n_internal = rng.randint(0, max_internal)
    nodes = ["a", "b"] + [f"n{i}" for i in range(1, n_internal + 1)]
    rest = nodes[1:]
    rng.shuffle(rest)

    branches: list[Branch] = []
    placed = ["a"]
    for node in rest:
        attach = rng.choice(placed)
        branches.append(Branch(attach, node, rng.choice((1, 1, 1, 2, 3))))
        placed.append(node)
    for _ in range(rng.randint(0, max_extra)):
        u, v = rng.sample(nodes, 2)
        branches.append(Branch(u, v, rng.choice((1, 1, 2))))
    return Circuit(tuple(branches), ("a", "b"))


def small_multigraphs() -> list[Circuit]:
    """200 seeded small multigraphs: the fuzz corpus of the nodal solver."""
    rng = random.Random(5)
    return [random_connected_circuit(rng, max_internal=8, max_extra=8) for _ in range(200)]


SMALL_MULTIGRAPHS = small_multigraphs()


def kcl_holds(c: Circuit, terms, potentials) -> bool:
    """Plain-Python KCL of ``potentials`` under the law sum of d * v**a over
    ``terms`` (d, a).

    Each internal node's imbalance must stay within 1e-9 of its local flow
    plus 8192 ulps of its roundoff floor: the current change of each branch
    when its drop moves by one ulp of its end potentials.  A sublinear law
    makes that floor large where a drop is near zero.
    """
    eps = 2.0**-52
    inflow, flow, floor = defaultdict(float), defaultdict(float), defaultdict(float)
    for br in c.branches:
        p1, p2 = potentials[br.n1], potentials[br.n2]
        drop = abs(p1 - p2)
        current = br.w * sum(d * drop**a for d, a in terms)
        inflow[br.n1] -= current if p1 >= p2 else -current
        inflow[br.n2] += current if p1 >= p2 else -current
        granule = eps * max(abs(p1), abs(p2))
        slack = br.w * sum(d * a * max(drop, granule) ** (a - 1.0) * granule
                           for d, a in terms) if granule else 0.0
        for n in (br.n1, br.n2):
            flow[n] += current
            floor[n] += slack
    return all(abs(inflow[n]) <= 1e-9 * flow[n] + 8192.0 * floor[n] for n in c.internal_nodes())


def random_characteristic(rng: random.Random, max_terms: int = 3) -> Characteristic:
    n_terms = rng.randint(1, max_terms)
    exponents = rng.sample((0.5, 1.0, 1.5, 2.0, 3.0, 4.0), n_terms)
    return Characteristic(tuple((rng.uniform(0.3, 3.0), a) for a in exponents))


def square_grid(n: int, prefix: str = "g", port: tuple[str, str] = ("a", "b")) -> Circuit:
    """n x n grid of unit conductors with the port at opposite corners.

    Carries its planar face basis: the source loop runs along the top row
    and down the right column, each face clockwise.
    """
    def node(i: int, j: int) -> str:
        corner = {(0, 0): port[0], (n - 1, n - 1): port[1]}
        return corner.get((i, j), f"{prefix}{i}_{j}")

    edges = [(node(i, j), node(i, j + 1)) for i in range(n) for j in range(n - 1)]
    edges += [(node(i, j), node(i + 1, j)) for i in range(n - 1) for j in range(n)]
    index = {edge: k + 1 for k, edge in enumerate(edges)}

    def loop(path: list[str]) -> tuple[int, ...]:
        return tuple(index[(u, v)] if (u, v) in index else -index[(v, u)]
                     for u, v in zip(path, path[1:]))

    meshes = [Mesh("source", loop([node(0, j) for j in range(n)]
                                  + [node(i, n - 1) for i in range(1, n)]))]
    for i in range(n - 1):
        for j in range(n - 1):
            corners = [node(i, j), node(i, j + 1), node(i + 1, j + 1), node(i + 1, j)]
            meshes.append(Mesh(f"f{i}_{j}", loop(corners + corners[:1])))
    return Circuit(tuple(Branch(u, v) for u, v in edges), port, meshes=tuple(meshes))


def random_ring_circuit(rng: random.Random, n_internal: int, max_chords: int) -> Circuit:
    """Random multigraph: a ring through a, b and every internal node, plus chords.

    The ring keeps every branch live, and few chords leave the graph long,
    so large draws split into several level blocks.
    """
    ring = [f"n{i}" for i in range(1, n_internal + 1)]
    rng.shuffle(ring)
    ring.insert(0, "a")
    ring.insert(rng.randrange(2, n_internal + 1), "b")
    pairs = list(zip(ring, ring[1:] + ring[:1]))
    pairs += [tuple(rng.sample(ring, 2)) for _ in range(rng.randint(0, max_chords))]
    return Circuit(tuple(Branch(u, v, rng.choice((1, 1, 2))) for u, v in pairs), ("a", "b"))


def ring_corpus(draws: int) -> list[Circuit]:
    """The first ``draws`` seeded ring multigraphs of 64-160 internal nodes."""
    rng = random.Random(11)
    return [random_ring_circuit(rng, rng.randint(64, 160), rng.randint(10, 60))
            for _ in range(draws)]


def short_cycle_basis(c: Circuit) -> tuple[Mesh, ...]:
    """A loop basis of short cycles for ``c``: the source loop and one loop per chord.

    A breadth-first tree from a gives the source loop, its path from a to
    b, and the chords, the branches outside it.  The chords are visited in
    order of depth (of their deeper end, then of the other) and each is
    closed by a shortest path through the tree and the chords visited
    before it.  Each loop owns its chord, so the loops are independent.
    """
    a, b = c.input_port
    incident: dict[str, list[tuple[str, int]]] = {n: [] for n in sorted(c.nodes)}
    for k, br in enumerate(c.branches):
        incident[br.n1].append((br.n2, k))
        incident[br.n2].append((br.n1, k))

    def step(k: int, start: str) -> int:
        """Signed 1-based index of branch k traversed away from ``start``."""
        return k + 1 if c.branches[k].n1 == start else -(k + 1)

    def shortest(source: str, target: str, usable: set[int]) -> list[tuple[str, int]]:
        """(node, branch) steps of a shortest path over ``usable`` branches."""
        via = {source: None}
        queue = [source]
        for p in queue:
            for q, k in incident[p]:
                if k in usable and q not in via:
                    via[q] = (p, k)
                    queue.append(q)
        path = []
        node = target
        while via[node] is not None:
            p, k = via[node]
            path.append((p, k))
            node = p
        return path[::-1]

    depth = {a: 0}
    tree: set[int] = set()
    queue = [a]
    for p in queue:
        for q, k in incident[p]:
            if q not in depth:
                depth[q] = depth[p] + 1
                tree.add(k)
                queue.append(q)
    meshes = [Mesh("source", tuple(step(k, p) for p, k in shortest(a, b, tree)))]
    chords = sorted(set(range(len(c.branches))) - tree,
                    key=lambda k: sorted((depth[c.branches[k].n1], depth[c.branches[k].n2]),
                                         reverse=True))
    usable = set(tree)
    for k in chords:
        u, v = c.branches[k].n1, c.branches[k].n2
        back = shortest(v, u, usable)
        meshes.append(Mesh(f"c{k + 1}", (k + 1,) + tuple(step(j, p) for p, j in back)))
        usable.add(k)
    return tuple(meshes)
