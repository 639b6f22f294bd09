"""Topology work is done once per circuit and kept on it; results are not.

A circuit keeps its passing validation report, its nodal network with the
unit-drive linear start, and for its declared loop basis the loop network
and the dual route's spanning tree.  Later calls reuse them, and must give
the same bits as a fresh circuit.
"""

import struct
import sys
import threading
import tracemalloc

import pytest

from alphaport import (
    Branch,
    Characteristic,
    Circuit,
    alpha_solve,
    build_canonical,
    cli,
    d_sweep,
    mesh_solve,
    network,
    solve_dc,
    solve_grid,
)
from alphaport import alpha as alpha_module
from alphaport import circuit as circuit_module
from alphaport import solver as solver_module
from alphaport.solver import _nodal_network
from conftest import square_grid

CUBIC = Characteristic(((1.0, 1.0), (1.0, 3.0)))


def power_law(alpha):
    return Characteristic(((1.0, alpha),))


def bits(x):
    """``x`` with every float replaced by its bit pattern, recursively."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    if hasattr(x, "__dataclass_fields__"):
        return {k: bits(getattr(x, k)) for k in x.__dataclass_fields__}
    return x


@pytest.fixture
def topology_work(monkeypatch):
    """Count validation runs, live splits, network builds and spanning trees."""
    counts = {"validate": 0, "check": 0, "live_split": 0, "network": 0, "tree": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(circuit_module, "validate", counting("validate", circuit_module.validate))
    monkeypatch.setattr(circuit_module, "_check", counting("check", circuit_module._check))
    monkeypatch.setattr(solver_module, "_live_split",
                        counting("live_split", solver_module._live_split))
    monkeypatch.setattr(network.Network, "__init__",
                        counting("network", network.Network.__init__))
    monkeypatch.setattr(alpha_module, "_spanning_tree",
                        counting("tree", alpha_module._spanning_tree))
    return counts


NO_WORK = {"validate": 0, "check": 0, "live_split": 0, "network": 0, "tree": 0}


class TestWorkDoneOnce:
    @pytest.mark.parametrize("call", [
        lambda c: solve_dc(c, CUBIC, 0.7),
        lambda c: solve_dc(c, CUBIC, 1.0),
        lambda c: alpha_solve(c, 3.0),
        lambda c: alpha_solve(c, 0.3),  # loop route: c declares a basis
        lambda c: mesh_solve(c, power_law(2.0), 1.3),
    ])
    def test_second_call_does_no_topology_work(self, call, topology_work):
        c = square_grid(6)
        first = call(c)
        assert topology_work["check"] == 1
        topology_work.update(NO_WORK)
        assert bits(call(c)) == bits(first)
        assert topology_work == NO_WORK

    def test_calls_share_one_nodal_network(self, topology_work):
        c = build_canonical("ladder", sections=15)
        solve_dc(c, CUBIC, 0.3)
        solve_grid(c, CUBIC, (0.1, 2.0))
        d_sweep(c, (1.0, 2.0))
        alpha_solve(c, 64.0)
        assert topology_work["check"] == 1
        assert topology_work["live_split"] == 1
        assert topology_work["network"] == 1

    @pytest.mark.parametrize("argv", [
        ["superpose", "--canonical", "fig3", "--f", "1:1,1:3", "--vin", "0.7"],
        ["sweep", "--canonical", "fig3", "--f", "1:1,1:3", "--vgrid", "log:0.01:10:20"],
        ["analyze", "--canonical", "fig3", "--f", "1:1,1:3", "--vin", "0.7"],
    ])
    def test_cli_command_validates_once_and_builds_one_network(self, argv, topology_work,
                                                               capsys):
        assert cli.main(argv) == 0
        assert topology_work["check"] == 1
        assert topology_work["network"] == 1

    def test_mesh_command_validates_once(self, topology_work, capsys):
        assert cli.main(["mesh", "--canonical", "fig_b1", "--f", "1:2", "--iin", "1.3"]) == 0
        assert topology_work["check"] == 1
        assert topology_work["network"] == 1

    def test_explicit_basis_is_built_on_every_call(self, topology_work):
        c = build_canonical("fig_b1")
        for _ in range(2):
            mesh_solve(c, power_law(2.0), 1.0, basis=c.meshes)
        assert topology_work["network"] == 2
        assert topology_work["check"] == 1


class TestWarmCacheGivesTheSameBits:
    """Results on a circuit that has served other calls equal, bit for bit,
    those on a fresh equal circuit."""

    CALLS = {
        "solve_dc": lambda c: solve_dc(c, CUBIC, 1.0),
        "solve_dc-0.7": lambda c: solve_dc(c, CUBIC, 0.7),
        "solve_grid": lambda c: solve_grid(c, CUBIC, (4.0, 0.01, 1.0)),
        "alpha-0.3": lambda c: alpha_solve(c, 0.3),
        "alpha-3": lambda c: alpha_solve(c, 3.0),
        "alpha-64": lambda c: alpha_solve(c, 64.0),
        "d_sweep": lambda c: d_sweep(c, (0.3, 0.5, 1.0, 2.0, 3.0)),
        "mesh_solve": lambda c: mesh_solve(c, power_law(3.0), 1.0),
        "mesh_solve-0.8": lambda c: mesh_solve(c, power_law(0.5), 0.8),
    }

    @pytest.mark.parametrize("make", [lambda: square_grid(12), lambda: build_canonical("fig_b1")],
                             ids=["grid-12", "fig_b1"])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_warm_equals_fresh(self, make, name):
        warm = make()
        for other in self.CALLS.values():
            other(warm)
        assert bits(self.CALLS[name](warm)) == bits(self.CALLS[name](make()))


def test_threads_sharing_a_fresh_circuit_get_the_serial_results():
    """Threads that first use a circuit together may each build its
    networks; whichever copy is kept, every result is the serial one."""
    calls = [lambda c: solve_dc(c, CUBIC, 1.0), lambda c: alpha_solve(c, 0.3),
             lambda c: alpha_solve(c, 3.0), lambda c: mesh_solve(c, power_law(2.0), 1.0)]
    expected = [bits(call(square_grid(8))) for call in calls]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            c = square_grid(8)
            got = [None] * 8
            barrier = threading.Barrier(len(got))

            def work(k):
                barrier.wait(timeout=10)
                got[k] = bits(calls[k % len(calls)](c))

            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(got))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert got == [expected[k % len(calls)] for k in range(len(got))]
    finally:
        sys.setswitchinterval(switch)


class TestNothingKeptOnFailure:
    def test_invalid_circuit_raises_on_every_call(self, topology_work):
        c = Circuit((Branch("a", "o"), Branch("x", "y")), ("a", "b"))
        for call in (lambda: solve_dc(c, CUBIC, 1.0), lambda: alpha_solve(c, 2.0),
                     lambda: solve_dc(c, CUBIC, 1.0)):
            with pytest.raises(ValueError, match="invalid circuit"):
                call()
        assert topology_work["check"] == 3
        assert topology_work["network"] == 0

    def test_broken_explicit_basis_is_rejected_on_every_call(self):
        c = build_canonical("fig_b1")
        broken = c.meshes[:2]
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid mesh basis"):
                mesh_solve(c, power_law(2.0), 1.0, basis=broken)
        mesh_solve(c, power_law(2.0), 1.0)

    def test_broken_declared_basis_is_rejected_on_every_call(self):
        c = build_canonical("fig_b1")
        broken = Circuit(c.branches, c.input_port, meshes=c.meshes[:2])
        for call in (lambda: alpha_solve(broken, 0.5), lambda: mesh_solve(broken, power_law(2.0), 1.0),
                     lambda: alpha_solve(broken, 0.5)):
            with pytest.raises(ValueError, match="invalid mesh basis"):
                call()


class TestKeptState:
    def test_unit_start_is_read_only(self):
        c = build_canonical("ladder", sections=15)
        before = solve_dc(c, CUBIC, 1.0)
        start = _nodal_network(c).net.unit_start
        assert start is _nodal_network(c).net.unit_start
        with pytest.raises(ValueError, match="read-only"):
            start[0] = 0.5
        assert bits(solve_dc(c, CUBIC, 1.0)) == bits(before)

    def test_unit_conductance_system_is_solved_once_whatever_the_drives(self, monkeypatch):
        # every drive is solved at unit drive from the network's one linear start
        builds, solves = [], []
        gram = network.Network.gram

        def counting_gram(self, g):
            J = gram(self, g)
            if g is self.w:
                builds.append(self)
                solve = J.solve
                J.solve = lambda r: solves.append(self) or solve(r)
            return J

        monkeypatch.setattr(network.Network, "gram", counting_gram)
        c = square_grid(12)
        for v in (0.5, 2.0, 7.0):
            solve_dc(c, CUBIC, v)
        net = _nodal_network(c).net
        assert builds == [net] and solves == [net]

        builds.clear()
        solves.clear()
        c = build_canonical("fig_b1")
        for i in (0.8, 1.3):
            mesh_solve(c, power_law(2.0), i)
        # the loop network also builds it once to check the basis
        assert len(builds) == 2 and builds[0] is builds[1] and solves == builds[:1]

    def test_solved_100x100_grid_keeps_under_4_mb(self):
        c = square_grid(100)
        c._index  # held before this change too; not counted
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sol = solve_dc(c, CUBIC, 1.0)
            del sol
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < 4e6
