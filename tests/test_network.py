"""The shared network core: A^T w f(A x + s) = 0 for nodal and loop bases."""

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
from alphaport.network import _unit_drive
from alphaport.solver import _nodal_network

# smooth and strictly monotone, so central differences are accurate
LAW = Characteristic(((1.0, 1.0), (0.5, 1.5), (0.7, 3.0)))
LINEAR = Characteristic(((1.0, 1.0),))


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


def ladder40_nodal():
    # 80 unknowns in levels of width 2: each coupling is a whole level
    return _nodal_network(build_canonical("ladder", sections=40))[0]


NETWORKS = pytest.mark.parametrize("build", [fig_a1_nodal, random_nodal, fig_b1_loops,
                                             grid20_nodal],
                                   ids=["fig_a1", "random", "fig_b1", "grid20"])
MULTI_BLOCK = pytest.mark.parametrize(
    "build", [grid20_nodal, grid20_loops, ring_nodal, parallel_grids_nodal, ladder40_nodal],
    ids=["grid20", "grid20_loops", "ring", "parallel_grids", "ladder40"])


def probe_point(net):
    # the linear start, moved off any symmetric point
    rng = np.random.default_rng(7)
    return net.unit_start + 0.05 * rng.standard_normal(net.n)


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
    residual, _, objective, _ = net.equations(LAW)
    x = probe_point(net)
    numeric = central_difference(objective, x)
    np.testing.assert_allclose(residual(x), numeric, rtol=1e-6, atol=1e-8)


@NETWORKS
def test_jacobian_is_symmetric_derivative_of_residual(build):
    net = build()
    residual, jacobian, _, _ = net.equations(LAW)
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
    residual = net.equations(LINEAR)[0]
    x = net.unit_start
    assert np.max(np.abs(residual(x))) <= 1e-14 * net.w.sum()


@pytest.mark.parametrize("terms", [((1.0, 1.0), (1.0, 3.0)), ((0.5, 64.0),), ((3.0, 0.2),),
                                   ((0.3, 0.5), (0.2, 2.0), (0.1, 7.0))])
@pytest.mark.parametrize("u", [1e-3, 0.5, 1.0, 2.0, 1e3])
def test_unit_drive_law_carries_the_drive_and_the_flow_scale(terms, u):
    f = Characteristic(terms)
    g, k = _unit_drive(f, u, "v_in")
    assert k == min(1.0, f(u))
    assert g(1.0) == pytest.approx(max(1.0, f(u)), rel=4 * np.finfo(float).eps)
    for t in (0.1, 0.7, 1.3):
        assert k * g(t) == pytest.approx(f(u * t), rel=1e-13)


def test_unit_drive_of_one_term_law_below_unit_flow_is_the_bare_power():
    for terms, u in (((0.5, 64.0), 1e-3), ((3.0, 0.2), 1e-3), ((1.0, 2.0), 1.0), ((0.25, 1.0), 4.0)):
        g, k = _unit_drive(Characteristic((terms,)), u, "v_in")
        assert g.terms == ((1.0, terms[1]),)
        assert k == terms[0] * u ** terms[1]


def test_unit_drive_drops_a_term_that_underflows():
    g, k = _unit_drive(Characteristic(((1.0, 1.0), (1.0, 64.0))), 1e-6, "v_in")
    assert g.terms == ((1.0, 1.0),)
    assert g.min_exponent == 1.0
    assert k == 1e-6


def nodal_unknowns(c):
    """The nodal network of ``c`` and the names of its unknowns, in column order."""
    nodal = _nodal_network(c)
    return nodal.net, [c._index.names[k] for k in nodal.unknown.tolist()]


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


def rows_across(net):
    """Rows of A with entries in two level blocks, and the lower block of each."""
    blocks = block_of(net)[net.index]
    low = np.where(blocks >= 0, blocks, len(net.blocks)).min(axis=1)
    across = np.flatnonzero(blocks.max(axis=1) > low)
    return across, low[across]


@MULTI_BLOCK
def test_level_blocks_partition_unknowns_and_couple_only_neighbours(build):
    net = build()
    assert len(net.blocks) > 1
    np.testing.assert_array_equal(np.sort(np.concatenate(net.blocks)), np.arange(net.n))
    owner = block_of(net)
    blocks = owner[net.index]
    spread = blocks.max(axis=1) - np.where(blocks >= 0, blocks, len(net.blocks)).min(axis=1)
    assert spread.max() <= 1
    # the unknowns coupling to the next block lie in the trailing slice of
    # their block, those coupling to the previous one in the leading slice
    place = np.zeros(net.n + 1, dtype=int)
    for members in net.blocks:
        place[members] = np.arange(members.size)
    across, low = rows_across(net)
    assert across.size
    for row, k in zip(across, low):
        f, l = net.layout.couplings[k]
        for u in net.index[row][net.index[row] < net.n]:
            if owner[u] == k:
                assert place[u] >= net.blocks[k].size - l
            else:
                assert place[u] < f


def reference_level_blocks(net, min_block=32):
    """Member sets of the level blocks, walked one unknown at a time: each
    component from its smallest unknown to the smallest unknown of that
    walk's last level, and from there again; levels merged in order until a
    block holds ``min_block``, a short remainder joining the last block."""
    neighbours = [set() for _ in range(net.n)]
    for row in net.index:
        inside = [k for k in row.tolist() if k < net.n]
        for k in inside:
            neighbours[k].update(inside)
    for k, near in enumerate(neighbours):
        near.discard(k)

    def walk(root):
        seen, level, levels = {root}, [root], []
        while level:
            levels.append(level)
            level = sorted({q for p in level for q in neighbours[p]} - seen)
            seen.update(level)
        return levels

    levels, done = [], set()
    for root in range(net.n):
        if root not in done:
            component = walk(min(walk(root)[-1]))
            done.update(k for level in component for k in level)
            levels += component
    blocks, current = [], []
    for level in levels:
        current += level
        if len(current) >= min_block:
            blocks.append(current)
            current = []
    blocks[-1] += current
    return [sorted(b) for b in blocks]


@MULTI_BLOCK
def test_level_blocks_hold_the_reference_walk_member_sets(build):
    net = build()
    assert [sorted(b.tolist()) for b in net.blocks] == reference_level_blocks(net)


def test_compact_couplings_store_boundary_levels_only():
    layout = _nodal_network(square_grid(30))[0].layout
    m = layout.sizes
    assert len(m) > 1
    diagonal = sum(mk * mk for mk in m)
    assert layout.offsets[-1] == diagonal + sum(f * l for f, l in layout.couplings)
    assert layout.offsets[-1] <= 0.65 * (diagonal + sum(a * b for a, b in zip(m, m[1:])))


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
    net, internal = nodal_unknowns(c)
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


@MULTI_BLOCK
def test_step_pinned_at_block_boundaries_matches_dense_step(build):
    net = build()
    rng = np.random.default_rng(11)
    across, _ = rows_across(net)
    touches = lambda k: np.any(net.index == k, axis=1)  # noqa: E731
    ends = lambda row: net.index[row][net.index[row] < net.n]  # noqa: E731
    inf_ends, dead_ends = ends(across[0]), ends(across[-1])
    assert np.unique(np.concatenate((inf_ends, dead_ends))).size == 4
    g = net.w * rng.uniform(0.5, 2.0, net.w.size)
    # an infinite slope across one boundary pins both its ends; zero slopes
    # on every row of the ends of another leave those without an equation
    g[np.any([touches(u) for u in dead_ends], axis=0)] = 0.0
    g[across[0]] = np.inf
    J = net.gram(g)
    diag = J.diagonal()
    pinned = (diag == 0.0) | ~np.isfinite(diag)
    assert pinned[inf_ends].all() and pinned[dead_ends].all()
    r = rng.standard_normal(net.n)
    dense = dense_matrix(net, g)
    step, ref = _solve_step(J, r), dense_step(dense, r)
    assert np.all(step[pinned] == 0.0)
    assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)
    # a relative ridge scales the stored diagonal under the kept equilibration
    kept = J.pinned(pinned)
    dense[pinned, :] = 0.0
    dense[:, pinned] = 0.0
    dense[pinned, pinned] = 1.0
    for factor in (1e-14, 1e-3, 1.0):
        x = kept.ridged(factor).solve(r)
        ref = np.linalg.solve(dense + np.diag(np.diag(dense)) * factor, r)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def graded_grid20():
    """A 20x20 nodal grid and slopes that fall from about 1 at the driven
    corner to 1e-300 at the far one, times a seeded factor in [0.1, 1].

    Graded along the grid, as the slopes of an attenuating network are, the
    equilibrated matrix stays well conditioned; independent slopes over 300
    decades would leave it singular to working precision for any solver.
    """
    net, internal = nodal_unknowns(square_grid(20))
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
    x = J.ridged(1e-14).solve(r)
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
    # nor does the limit at alpha -> inf, or a cold solve anchored at it
    probe = ("import sys, alphaport; "
             "c = alphaport.build_canonical('ladder', sections=15); "
             "alphaport.hardlimiter_limit(c); alphaport.alpha_solve(c, 64.0); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
