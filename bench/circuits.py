"""Seeded circuit generators for the benchmark workloads and its self-test.

Everything here builds plain ``alphaport.Circuit`` values; nothing is
imported from the repository's tests, so the benchmark stands on its own.
"""

from __future__ import annotations

import random

from alphaport import Branch, Circuit, Mesh


def grid_node(i: int, j: int) -> str:
    return f"r{i:03d}c{j:03d}"


def square_grid(n: int, rng: random.Random | None = None) -> Circuit:
    """n x n grid of identical unit conductors, port at opposite corners.

    The port is (top-left, bottom-right).  Branches run left-to-right and
    top-to-bottom; ``rng`` shuffles their order (the circuit is the same,
    only its presentation changes).  The circuit carries the planar face
    basis (see ``face_basis``) so ``mesh_solve`` can use it directly.
    """
    if n < 2:
        raise ValueError(f"grid needs at least 2 nodes per side, got {n}")
    edges = [(grid_node(i, j), grid_node(i, j + 1)) for i in range(n) for j in range(n - 1)]
    edges += [(grid_node(i, j), grid_node(i + 1, j)) for i in range(n - 1) for j in range(n)]
    if rng is not None:
        rng.shuffle(edges)
    branches = tuple(Branch(u, v) for u, v in edges)
    port = (grid_node(0, 0), grid_node(n - 1, n - 1))
    return Circuit(branches, port, meshes=face_basis(n, branches))


def face_basis(n: int, branches) -> tuple[Mesh, ...]:
    """Loop basis of the square grid: the source path plus every face.

    The source loop is the boundary path from the driven corner along the
    top row and down the right column to the grounded corner; each face
    is traversed clockwise.  Signs follow each branch's stated direction.
    """
    index = {(br.n1, br.n2): k + 1 for k, br in enumerate(branches)}

    def step(u: str, v: str) -> int:
        k = index.get((u, v))
        return k if k is not None else -index[(v, u)]

    path = [grid_node(0, j) for j in range(n)] + [grid_node(i, n - 1) for i in range(1, n)]
    meshes = [Mesh("source", tuple(step(u, v) for u, v in zip(path, path[1:])))]
    for i in range(n - 1):
        for j in range(n - 1):
            corners = [grid_node(i, j), grid_node(i, j + 1),
                       grid_node(i + 1, j + 1), grid_node(i + 1, j)]
            loop = tuple(step(u, v) for u, v in zip(corners, corners[1:] + corners[:1]))
            meshes.append(Mesh(f"f{i:03d}_{j:03d}", loop))
    return tuple(meshes)


def random_connected_circuit(rng: random.Random, max_internal: int = 8,
                             max_extra: int = 8) -> Circuit:
    """Random connected multigraph on port (a, b) grown from a spanning tree.

    Same draw sequence as the test suite's generator of the same name, so
    a (seed, draw) pair names the same circuit in both places.
    """
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
