import itertools
import random

import numpy as np
import pytest

from alphaport import (
    Branch,
    Characteristic,
    Circuit,
    SolverError,
    build_canonical,
    co_content,
    port_current_sum,
    solve_dc,
    solve_grid,
)
from alphaport.solver import _live_split, _nodal_network, _solve
from conftest import random_characteristic, random_connected_circuit, square_grid

CUBE_LAW = Characteristic(((1.0, 1.0), (1.0, 3.0)))
FIG_A1 = build_canonical("fig_a1")


def orientation_cases():
    """A reversed single branch, then 20 seeded random circuits with dead
    branches and multiplicities above 1, each with a random law and drive."""
    cases = [(Circuit((Branch("b", "a"),), ("a", "b")), Characteristic(((1.0, 1.0),)), 2.0)]
    rng = random.Random(21)
    while len(cases) < 21:
        c = random_connected_circuit(rng, max_internal=8, max_extra=6)
        alive = _live_split(c)[0]
        if alive.size < len(c.branches) and any(br.w > 1 for br in c.branches):
            cases.append((c, random_characteristic(rng), rng.uniform(0.2, 3.0)))
    return cases


ORIENTATION_CASES = orientation_cases()
ORIENTATION_IDS = ["reversed-branch"] + [f"draw-{k}" for k in range(1, len(ORIENTATION_CASES))]


def divider_equation_root():
    """Positive root of 17 v^3 - 24 v^2 + 44 v - 16 = 0 (independent route)."""
    roots = np.roots([17.0, -24.0, 44.0, -16.0])
    real = [r.real for r in roots if abs(r.imag) < 1e-9]
    assert len(real) == 1
    return real[0]


class TestReferenceSolve:
    def test_divider_node_and_input_current(self):
        sol = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        v_o = divider_equation_root()
        assert sol.potentials["o"] == pytest.approx(v_o, abs=1e-12)
        assert sol.potentials["o"] == pytest.approx(0.4350635, abs=1e-6)
        expected_f = CUBE_LAW(1.0) + CUBE_LAW(1.0 - v_o)
        assert sol.input_current == pytest.approx(expected_f, rel=1e-12)
        assert sol.input_current == pytest.approx(2.7452378, abs=1e-6)

    def test_inner_limb_splits_evenly(self):
        sol = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        assert sol.potentials["x"] == pytest.approx(sol.potentials["o"] / 2.0, rel=1e-12)

    def test_coefficient_doubling_scales_current_only(self):
        base = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        doubled = solve_dc(FIG_A1, Characteristic(((2.0, 1.0), (2.0, 3.0))), 1.0)
        assert doubled.input_current == pytest.approx(2.0 * base.input_current, rel=1e-12)
        for n in FIG_A1.nodes:
            assert doubled.potentials[n] == pytest.approx(base.potentials[n], abs=1e-12)

    def test_single_branch_square_law(self):
        c = Circuit((Branch("a", "b"),), ("a", "b"))
        sol = solve_dc(c, Characteristic(((1.0, 2.0),)), 3.0)
        assert sol.input_current == pytest.approx(9.0, rel=1e-15)

    @pytest.mark.parametrize("case", ORIENTATION_CASES, ids=ORIENTATION_IDS)
    def test_branch_quantities_reflect_orientation_fixup(self, case):
        # branches declared against the current direction are re-oriented,
        # and every field follows from the potentials branch by branch
        c, f, v_in = case
        sol = solve_dc(c, f, v_in)
        p = sol.potentials
        alive, dead, anchor = _live_split(c)
        names = c._index.names
        for node, at in zip(dead.tolist(), anchor.tolist()):
            assert p[names[node]] == p[names[at]]
        alive = set(alive.tolist())
        assert len(sol.branches) == len(c.branches)
        for i, (br, out) in enumerate(zip(c.branches, sol.branches)):
            assert out in (br, Branch(br.n2, br.n1, br.w))
            drop = p[out.n1] - p[out.n2]
            assert drop >= 0.0 and (out == br or drop > 0.0)
            assert sol.branch_voltages[i] == drop
            assert sol.branch_currents[i] == pytest.approx(br.w * f(drop), rel=1e-15, abs=0.0)
            if i not in alive:
                assert sol.branch_voltages[i] == 0.0 and sol.branch_currents[i] == 0.0
        into_b = sum(br.w * f.eval_signed(p[br.n1] - p[br.n2]) * ((br.n2 == c.b) - (br.n1 == c.b))
                     for br in c.branches)
        assert sol.input_current == pytest.approx(into_b, rel=1e-14)
        if c.branches == (Branch("b", "a"),):
            assert sol.branches[0] == Branch("a", "b") and sol.branch_voltages[0] == 2.0


class TestPortSums:
    def test_ground_side_matches_driven_side(self):
        sol = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        at_b = port_current_sum(FIG_A1, CUBE_LAW, sol.potentials, FIG_A1.b)
        at_a = -port_current_sum(FIG_A1, CUBE_LAW, sol.potentials, "a")
        assert at_b == pytest.approx(at_a, abs=1e-10)
        assert at_b == pytest.approx(sol.input_current, rel=1e-12)
        # driven-side oracle: f(v_in) + f(v_in - v_o)
        v_o = sol.potentials["o"]
        assert at_a == pytest.approx(CUBE_LAW(1.0) + CUBE_LAW(1.0 - v_o), rel=1e-12)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0, 4.5])
    def test_symmetric_bridge_port_sum_formula(self, m):
        c = build_canonical("fig4")
        f = Characteristic(((1.0, m),))
        sol = solve_dc(c, f, 1.0)
        assert sol.input_current == pytest.approx(1.0 + 2.0 * (1.0 / 3.0) ** m, rel=1e-12)

    def test_unknown_node_rejected(self):
        sol = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        with pytest.raises(ValueError, match="'zz' is not in the circuit"):
            port_current_sum(FIG_A1, CUBE_LAW, sol.potentials, "zz")

    def test_multiplicity_counts_parallel_conductors(self):
        c = Circuit((Branch("a", "b", 4),), ("a", "b"))
        sol = solve_dc(c, Characteristic(((1.0, 2.0),)), 1.5)
        assert sol.input_current == pytest.approx(4.0 * 1.5**2, rel=1e-15)


class TestCoContent:
    def test_single_linear_branch(self):
        c = Circuit((Branch("a", "b"),), ("a", "b"))
        f = Characteristic(((1.0, 1.0),))
        assert co_content(c, f, {"a": 1.0, "b": 0.0}) == pytest.approx(0.5, rel=1e-15)

    def test_cube_law_branch_at_two_volts(self):
        c = Circuit((Branch("a", "b"),), ("a", "b"))
        f = Characteristic(((1.0, 3.0),))
        assert co_content(c, f, {"a": 2.0, "b": 0.0}) == pytest.approx(4.0, rel=1e-15)

    def test_missing_potentials_rejected(self):
        with pytest.raises(ValueError, match="nodes 'o', 'x'"):
            co_content(FIG_A1, CUBE_LAW, {"a": 1.0, "b": 0.0})

    def test_solution_minimizes_over_interior_grid(self):
        sol = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        at_solution = co_content(FIG_A1, CUBE_LAW, sol.potentials)
        best = min(
            co_content(FIG_A1, CUBE_LAW, {"a": 1.0, "b": 0.0, "o": po, "x": px})
            for po, px in itertools.product(np.linspace(0.0, 1.0, 41), repeat=2)
        )
        assert at_solution <= best + 1e-12


class TestSolutionProperties:
    def test_unique_solution_from_random_restarts(self):
        rng = random.Random(7)
        reference = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        nodal = _nodal_network(FIG_A1)
        for _ in range(5):
            start = {n: rng.uniform(0.0, 1.0) for n in FIG_A1.internal_nodes()}
            x0 = np.array([start[n] for n in nodal[1]])
            sol = _solve(FIG_A1, CUBE_LAW, 1.0, nodal, x0)[0]
            spread = max(abs(sol.potentials[n] - reference.potentials[n])
                         for n in FIG_A1.nodes)
            assert spread <= 1e-9

    def test_power_balance_on_random_circuits(self):
        rng = random.Random(99)
        for _ in range(10):
            c = random_connected_circuit(rng)
            f = random_characteristic(rng)
            v_in = rng.uniform(0.2, 3.0)
            sol = solve_dc(c, f, v_in)
            branch_power = sum(v * i for v, i in zip(sol.branch_voltages, sol.branch_currents))
            assert branch_power == pytest.approx(v_in * sol.input_current, rel=1e-9)

    def test_law_evaluations_do_not_grow_with_branch_count(self, monkeypatch):
        # packaging works on arrays: the law is called per drive, not per branch
        calls = []
        law = Characteristic.__call__
        monkeypatch.setattr(Characteristic, "__call__",
                            lambda f, v: calls.append(v) or law(f, v))
        counts = []
        for n in (10, 20):
            calls.clear()
            solve_dc(square_grid(n), CUBE_LAW, 1.0)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 5

    def test_kcl_residual_reported_small(self):
        sol = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        assert sol.residual_norm <= 1e-12 * max(1.0, CUBE_LAW(1.0))

    def test_pendant_limb_carries_no_current(self):
        c = Circuit((Branch("a", "b"), Branch("b", "s1"), Branch("s1", "s2")), ("a", "b"))
        sol = solve_dc(c, CUBE_LAW, 1.0)
        assert sol.potentials["s1"] == sol.potentials["b"]
        assert sol.potentials["s2"] == sol.potentials["b"]
        assert sol.branch_currents[1] == 0.0 and sol.branch_currents[2] == 0.0

    def test_sublinear_exponents_solve(self):
        f = Characteristic(((1.0, 0.5), (0.5, 2.0)))
        sol = solve_dc(FIG_A1, f, 1.0)
        assert 0.0 < sol.potentials["o"] < 1.0

    def test_large_drive_and_small_drive(self):
        for v_in in (1e-6, 1e4):
            sol = solve_dc(FIG_A1, CUBE_LAW, v_in)
            assert 0.0 < sol.potentials["o"] < v_in


class TestErrors:
    def test_invalid_circuit_rejected(self):
        broken = Circuit((Branch("a", "x"),), ("a", "b"))
        with pytest.raises(ValueError, match="invalid circuit"):
            solve_dc(broken, CUBE_LAW, 1.0)

    def test_nonpositive_drive_rejected(self):
        with pytest.raises(ValueError):
            solve_dc(FIG_A1, CUBE_LAW, 0.0)
        with pytest.raises(ValueError):
            solve_dc(FIG_A1, CUBE_LAW, -1.0)

    def test_exhausted_iteration_budget_is_reported(self, monkeypatch):
        monkeypatch.setenv("ALPHAPORT_MAX_ITERS", "1")
        with pytest.raises(SolverError, match="did not converge"):
            solve_dc(FIG_A1, CUBE_LAW, 1.0)

    def test_small_drive_within_range_still_solves(self):
        sol = solve_dc(FIG_A1, Characteristic(((1.0, 64.0),)), 1e-4)
        assert sol.d["o"] == pytest.approx(0.5, abs=1e-9)

    def test_grid_checks_every_drive_before_solving(self, monkeypatch):
        import alphaport.solver as solver_module
        solved = []
        monkeypatch.setattr(solver_module, "_solve", lambda *args: solved.append(args))
        with pytest.raises(ValueError, match="too large"):
            solve_grid(FIG_A1, CUBE_LAW, [1.0, 2.0, 1e150])
        assert solved == []


class TestSolveGrid:
    @pytest.mark.parametrize("c", [FIG_A1, build_canonical("ladder", sections=15)],
                             ids=["fig_a1", "ladder-15"])
    def test_unsorted_grid_with_repeat_keeps_grid_order(self, c):
        grid = [3.0, 0.1, 10.0, 1.0, 0.1, 0.02]
        sols = solve_grid(c, CUBE_LAW, grid)
        assert [s.v_in for s in sols] == grid
        for v, sol in zip(grid, sols):
            cold = solve_dc(c, CUBE_LAW, v)
            assert sol.input_current == pytest.approx(cold.input_current, rel=1e-12)

    @pytest.mark.parametrize("grid", [[], [1.0, 0.0], [-1.0, 2.0], [1.0, float("nan")]])
    def test_rejects_empty_or_nonpositive_grid(self, grid):
        with pytest.raises(ValueError, match="empty|must be positive"):
            solve_grid(FIG_A1, CUBE_LAW, grid)

    def test_invalid_circuit_rejected(self):
        broken = Circuit((Branch("a", "x"),), ("a", "b"))
        with pytest.raises(ValueError, match="invalid circuit"):
            solve_grid(broken, CUBE_LAW, [1.0])


def test_live_split_matches_networkx_biconnected_components():
    # oracle: a branch carries current iff it shares a biconnected
    # component with a virtual a-b edge; midpoint nodes keep parallel
    # branches distinct in networkx's simple graph
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(200):
        c = random_connected_circuit(rng)
        g = nx.Graph()
        for i, br in enumerate(c.branches):
            g.add_edge(br.n1, ("mid", i))
            g.add_edge(("mid", i), br.n2)
        g.add_edge(c.a, c.b)
        port_component = next(comp for comp in nx.biconnected_components(g)
                              if c.a in comp and c.b in comp)
        expected = {i for i in range(len(c.branches)) if ("mid", i) in port_component}

        alive, dead_codes, anchor_codes = _live_split(c)
        assert set(alive.tolist()) == expected

        anchors = {c.a, c.b} | {n for i in alive for n in c.branches[i][:2]}
        dead = nx.Graph()
        dead.add_nodes_from(c.nodes)
        dead.add_edges_from(br[:2] for i, br in enumerate(c.branches) if i not in expected)
        names = c._index.names
        assigned = [(names[n], names[k]) for n, k in zip(dead_codes, anchor_codes)]
        for node, anchor in assigned:
            assert node not in anchors and anchor in anchors
            assert nx.has_path(dead, node, anchor)
        # every other node is assigned, once
        assert sorted(n for n, _ in assigned) == sorted(c.nodes - anchors)
