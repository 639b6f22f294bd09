"""The shared network core: A^T w f(A x + s u) = 0 for nodal and loop bases."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_connected_circuit, random_ring_circuit, square_grid

import alphaport
from alphaport import Characteristic, Circuit, build_canonical, solve_dc
from alphaport._newton import _solve_step
from alphaport.mesh import _loop_network
from alphaport.solver import _nodal_network

# smooth and strictly monotone, so central differences are accurate
LAW = Characteristic(((1.0, 1.0), (0.5, 1.5), (0.7, 3.0)))
LINEAR = Characteristic(((1.0, 1.0),))
DRIVE = 1.3


def fig_a1_nodal():
    return _nodal_network(build_canonical("fig_a1"))[0]


def random_nodal():
    # seed 0: 8 branches with multiplicities 1-3, 5 of them live, 3 unknowns
    return _nodal_network(random_connected_circuit(random.Random(0)))[0]


def fig_b1_loops():
    c = build_canonical("fig_b1")
    return _loop_network(c, c.meshes)[0]


def grid20_nodal():
    # 398 unknowns in several level blocks
    return _nodal_network(square_grid(20))[0]


def grid20_loops():
    # 361 face loops; the source loop runs along the boundary
    c = square_grid(20)
    return _loop_network(c, c.meshes)[0]


def ring_nodal():
    # seeded ring-with-chords multigraph, 100 unknowns
    return _nodal_network(random_ring_circuit(random.Random(3), 100, 12))[0]


def parallel_grids_nodal():
    # two 8x8 grids across the same port: two components of 62 unknowns
    halves = (square_grid(8, prefix=p) for p in ("g", "h"))
    return _nodal_network(Circuit(sum((c.branches for c in halves), ()), ("a", "b")))[0]


NETWORKS = pytest.mark.parametrize("build", [fig_a1_nodal, random_nodal, fig_b1_loops,
                                             grid20_nodal],
                                   ids=["fig_a1", "random", "fig_b1", "grid20"])
MULTI_BLOCK = pytest.mark.parametrize(
    "build", [grid20_nodal, grid20_loops, ring_nodal, parallel_grids_nodal],
    ids=["grid20", "grid20_loops", "ring", "parallel_grids"])


def probe_point(net):
    # the linear start, moved off any symmetric point
    rng = np.random.default_rng(7)
    return net.linear_start(DRIVE) + 0.05 * rng.standard_normal(net.n)


def central_difference(fn, x, h=1e-6):
    columns = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        columns.append((np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2.0 * h))
    return np.array(columns).T


@NETWORKS
def test_residual_is_gradient_of_merit(build):
    net = build()
    assert net.n > 0
    residual, _, objective, _ = net.equations(LAW, DRIVE)
    x = probe_point(net)
    numeric = central_difference(objective, x)
    np.testing.assert_allclose(residual(x), numeric, rtol=1e-6, atol=1e-8)


@NETWORKS
def test_jacobian_is_symmetric_derivative_of_residual(build):
    net = build()
    residual, jacobian, _, _ = net.equations(LAW, DRIVE)
    x = probe_point(net)
    J = jacobian(x)
    Jfd = central_difference(residual, x)
    np.testing.assert_allclose(J.diagonal(), np.diag(Jfd), rtol=1e-6, atol=1e-8)
    # J is symmetric by construction (its upper blocks are L_k^T), so it
    # inverts the difference quotient only if every block matches
    v = np.random.default_rng(3).standard_normal(net.n)
    np.testing.assert_allclose(J.solve(Jfd @ v), v, rtol=1e-6, atol=1e-6)


@NETWORKS
def test_linear_start_solves_linear_system(build):
    net = build()
    residual = net.equations(LINEAR, DRIVE)[0]
    x = net.linear_start(DRIVE)
    assert np.max(np.abs(residual(x))) <= 1e-14 * DRIVE * net.w.sum()


def dense_matrix(net, g):
    """A^T diag(g) A assembled densely, entry pair by entry pair of each row of A."""
    J = np.zeros((net.n + 1, net.n + 1))
    for row, (index, value) in enumerate(zip(net.index, net.value)):
        np.add.at(J, (index[:, None], index[None, :]), g[row] * np.outer(value, value))
    return J[:net.n, :net.n]


def block_of(net):
    """Level block of each unknown, and -1 for the sentinel column n."""
    out = np.full(net.n + 1, -1)
    for k, members in enumerate(net.blocks):
        out[members] = k
    return out


@MULTI_BLOCK
def test_level_blocks_partition_unknowns_and_couple_only_neighbours(build):
    net = build()
    assert len(net.blocks) > 1
    assert all(np.all(np.diff(b) > 0) for b in net.blocks)
    np.testing.assert_array_equal(np.sort(np.concatenate(net.blocks)), np.arange(net.n))
    blocks = block_of(net)[net.index]
    spread = blocks.max(axis=1) - np.where(blocks >= 0, blocks, len(net.blocks)).min(axis=1)
    assert spread.max() <= 1


def test_small_network_is_one_block():
    net = _nodal_network(build_canonical("ladder", sections=15))[0]
    assert net.n == 30
    assert len(net.blocks) == 1
    np.testing.assert_array_equal(net.blocks[0], np.arange(net.n))


@MULTI_BLOCK
def test_block_solve_matches_dense_solve(build):
    net = build()
    rng = np.random.default_rng(5)
    g = net.w * rng.uniform(0.5, 2.0, net.w.size)
    r = rng.standard_normal(net.n)
    dense = dense_matrix(net, g)
    J = net.gram(g)
    np.testing.assert_allclose(J.diagonal(), np.diag(dense), rtol=1e-14)
    x, ref = J.solve(r), np.linalg.solve(dense, r)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # Cholesky pivots in block order, each at its unknown
    order = np.concatenate(net.blocks)
    pivots = np.diag(np.linalg.cholesky(dense[np.ix_(order, order)])) ** 2
    np.testing.assert_allclose(J.cholesky_pivots()[order], pivots, rtol=1e-12)


def dense_step(J, r):
    """The Newton step of the dense solver that block elimination replaced."""
    diag = np.abs(np.diag(J))
    dead = (diag == 0.0) | ~np.isfinite(diag)
    J, rhs = J.copy(), -r
    J[dead, :] = 0.0
    J[:, dead] = 0.0
    J[dead, dead] = 1.0
    rhs[dead] = 0.0
    diag = np.abs(np.diag(J))
    for ridge in [0.0] + [10.0**k for k in range(-14, 1)]:
        try:
            step = np.linalg.solve(J + np.diag(diag * ridge), rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(step)):
            return step
    return rhs


def test_pinned_and_ridged_step_matches_dense_step():
    c = square_grid(20)
    net, internal = _nodal_network(c)[:2]
    unknown = {name: i for i, name in enumerate(internal)}
    dead = unknown["g10_10"]  # every incident slope zero: pinned
    p, q = unknown["g5_5"], unknown["g5_6"]  # joined only to each other: singular
    touches = lambda k: np.any(net.index == k, axis=1)  # noqa: E731
    g = net.w.copy()
    g[touches(dead) | touches(p) | touches(q)] = 0.0
    g[touches(p) & touches(q)] = 1.0
    # an infinite slope on a branch across two blocks: both ends pinned
    blocks = block_of(net)[net.index]
    across = np.flatnonzero((blocks.min(axis=1) >= 0) & (blocks[:, 0] != blocks[:, 1])
                            & ~touches(dead) & ~touches(p) & ~touches(q))[0]
    g[across] = np.inf
    J = net.gram(g)
    r = np.random.default_rng(9).standard_normal(net.n)
    r[[p, q]] = 0.0
    assert J.diagonal()[dead] == 0.0
    pinned = (J.diagonal() == 0.0) | ~np.isfinite(J.diagonal())
    assert pinned.sum() == 3
    with pytest.raises(np.linalg.LinAlgError):
        J.pinned(pinned).solve(-r)
    step, ref = _solve_step(J, r), dense_step(dense_matrix(net, g), r)
    assert np.all(step[pinned] == 0.0)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)


def graded_grid20():
    """A 20x20 nodal grid and slopes that fall from about 1 at the driven
    corner to 1e-300 at the far one, times a seeded factor in [0.1, 1].

    Graded along the grid, as the slopes of an attenuating network are, the
    equilibrated matrix stays well conditioned; independent slopes over 300
    decades would leave it singular to working precision for any solver.
    """
    net, internal = _nodal_network(square_grid(20))[:2]
    # steps from the driven corner; the port's sentinel column sits at 0
    dist = np.array([sum(map(int, name[1:].split("_"))) for name in internal] + [0])
    t = 10.0 ** (-150.0 * dist / dist.max())
    rng = np.random.default_rng(13)
    g = net.w * t[net.index[:, 0]] * t[net.index[:, 1]] * 10.0 ** rng.uniform(-1.0, 0.0, net.w.size)
    return net, g, rng


def equilibration(dense):
    """Powers of two that bring the diagonal of ``dense`` into [0.5, 2)."""
    return np.ldexp(1.0, -(np.frexp(np.diag(dense))[1] // 2))


def test_graded_jacobian_diagonal_is_exact():
    net, g, _ = graded_grid20()
    assert len(net.blocks) > 1 and g.min() < 1e-290
    np.testing.assert_array_equal(net.gram(g).diagonal(), np.diag(dense_matrix(net, g)))


def test_graded_ridged_solve_matches_dense_solve():
    net, g, rng = graded_grid20()
    J = net.gram(g)
    dense = dense_matrix(net, g) + np.diag(J.diagonal() * 1e-14)
    s = equilibration(dense)
    r = rng.standard_normal(net.n) / s  # unit order in equilibrated coordinates
    x = J.ridged(J.diagonal() * 1e-14).solve(r)
    ref = s * np.linalg.solve(dense * s[:, None] * s, r * s)
    assert np.linalg.norm((x - ref) / s) <= 1e-12 * np.linalg.norm(ref / s)


def test_graded_step_with_zero_slope_unknown_matches_dense_step():
    net, g, rng = graded_grid20()
    k = net.n // 2
    g[np.any(net.index == k, axis=1)] = 0.0
    dense = dense_matrix(net, g)
    s = equilibration(dense)
    r = rng.standard_normal(net.n) / s
    step = _solve_step(net.gram(g), r)
    ref = s * dense_step(dense * s[:, None] * s, r * s)
    assert step[k] == 0.0
    assert np.linalg.norm((step - ref) / s) <= 1e-12 * np.linalg.norm(ref / s)


def test_large_grid_satisfies_kcl():
    c = square_grid(60)
    law = Characteristic(((1.0, 1.0), (1.0, 3.0)))
    sol = solve_dc(c, law, 1.0)
    assert len(_nodal_network(c)[0].blocks) > 1
    net_flow = {n: 0.0 for n in c.nodes}
    gross = {n: 0.0 for n in c.nodes}
    for br in c.branches:
        i = br.w * law.eval_signed(sol.potentials[br.n1] - sol.potentials[br.n2])
        net_flow[br.n1] -= i
        net_flow[br.n2] += i
        gross[br.n1] += abs(i)
        gross[br.n2] += abs(i)
    for n in c.nodes - set(c.input_port):
        assert abs(net_flow[n]) <= 1e-10 * gross[n]
    assert net_flow["b"] == pytest.approx(sol.input_current, rel=1e-12)


def test_graded_multi_block_sweep_converges():
    # deep sections of a 40-section ladder at large exponents have slopes
    # down to subnormal: unscaled block elimination overflows on them
    c = build_canonical("ladder", sections=40)
    assert len(_nodal_network(c)[0].blocks) > 1
    sweep = alphaport.d_sweep(c, np.geomspace(0.3, 64.0, 6))
    assert sweep.phis[-1] == pytest.approx(2.9123240587562523e-31, rel=1e-9)


def test_import_loads_no_scipy():
    src = str(Path(alphaport.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, alphaport; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
