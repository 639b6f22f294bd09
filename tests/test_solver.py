import itertools
import random

import numpy as np
import pytest

from alphaport import (
    Branch,
    Characteristic,
    Circuit,
    SolverError,
    _newton,
    alpha_solve,
    build_canonical,
    co_content,
    hardlimiter_limit,
    mesh_solve,
    network,
    port_current_sum,
    solve_dc,
    solve_grid,
)
from alphaport.mesh import _loop_network
from alphaport.solver import _lex_limit, _live_split, _nodal_network, _solve
from conftest import (
    SMALL_MULTIGRAPHS,
    kcl_holds,
    random_characteristic,
    random_connected_circuit,
    ring_corpus,
    square_grid,
)

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
            x0 = np.array([start[FIG_A1._index.names[k]] for k in nodal.unknown.tolist()])
            sol = _solve(FIG_A1, CUBE_LAW, 1.0, CUBE_LAW, 1.0, nodal, x0)[0]
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


def power_law(alpha):
    return Characteristic(((1.0, alpha),))


def max_gap(c, d1, d2):
    return max(abs(d1[n] - d2[n]) for n in c.nodes)


class TestUnitDrive:
    """Every drive is solved as the unit drive of a rescaled law, so a
    one-term law at any drive below its unit current solves v**alpha itself."""

    @pytest.mark.parametrize("draw", [10, 68, 71, 111, 135, 159])
    def test_small_drive_matches_profile_where_currents_underflow(self, draw):
        # solved at drive 1e-3 itself, every current at some node underflowed
        # and the node counted as converged up to 4.7e-5 away
        c = SMALL_MULTIGRAPHS[draw]
        sol = solve_dc(c, power_law(64.0), 1e-3)
        assert max_gap(c, sol.d, alpha_solve(c, 64.0).d) <= 1e-15

    def test_small_sublinear_drive_converges_to_profile(self):
        c = SMALL_MULTIGRAPHS[6]
        sol = solve_dc(c, power_law(0.2), 1e-3)
        assert max_gap(c, sol.d, alpha_solve(c, 0.2).d) <= 1e-15

    def test_coefficient_and_drive_drop_out_of_a_one_term_law(self):
        ladder = build_canonical("ladder", sections=40)
        sol = solve_dc(ladder, Characteristic(((0.5, 64.0),)), 1e-3)
        assert max_gap(ladder, sol.d, alpha_solve(ladder, 64.0).d) <= 1e-15

    def test_warm_drives_of_a_one_term_law_take_no_iterations(self):
        ladder = build_canonical("ladder", sections=15)
        sols = solve_grid(ladder, Characteristic(((2.0, 64.0),)), np.geomspace(0.1, 10.0, 7))
        assert sols[0].iterations > 0
        assert [s.iterations for s in sols[1:]] == [0] * 6


def test_one_restart_rescues_a_stalled_sublinear_solve(monkeypatch):
    # v**0.25 on this draw stalls a few ulps from a pair of equal
    # potentials; damped Newton run once more from that iterate converges
    calls = []
    newton = network.damped_newton

    def counting(*args, **kwargs):
        calls.append(args)
        return newton(*args, **kwargs)

    monkeypatch.setattr(network, "damped_newton", counting)
    c = SMALL_MULTIGRAPHS[157]
    sol = solve_dc(c, power_law(0.25), 1.0)
    assert len(calls) == 2
    assert max_gap(c, sol.d, alpha_solve(c, 0.25).d) <= 1e-15


@pytest.mark.parametrize("draw,alpha", [(9, 0.2), (22, 0.2), (32, 0.2), (35, 0.25)])
def test_sublinear_ring_draws_converge_at_every_drive(draw, alpha):
    # near-zero drops whose slopes need the roundoff band edge: a fixed
    # clamp at 1e-12 leaves these without a converged answer
    c = ring_corpus(draw + 1)[draw]
    for v_in in (1e-3, 1.0, 1e3):
        sol = solve_dc(c, power_law(alpha), v_in)
        assert kcl_holds(c, ((1.0, alpha),), sol.potentials)


def record_laws(monkeypatch):
    """The exponents of every law ``Network.equations`` is built for, in order."""
    laws = []
    equations = network.Network.equations

    def recording(self, f):
        laws.append(f.exponents)
        return equations(self, f)

    monkeypatch.setattr(network.Network, "equations", recording)
    return laws


def record_starts(monkeypatch):
    """The start and the solution of every ``damped_newton`` call of
    ``Network.solve``, in order."""
    starts, ends = [], []
    newton = network.damped_newton

    def recording_newton(x0, *args, **kwargs):
        starts.append(np.array(x0))
        outcome = newton(x0, *args, **kwargs)
        ends.append(outcome.x.copy())
        return outcome

    monkeypatch.setattr(network, "damped_newton", recording_newton)
    return starts, ends


class TestExponentContinuation:
    """A cold solve reaches a smallest exponent above 8 through 8, 16, ...
    (``Network.solve``), for drives and profiles alike.  A nodal law with
    smallest exponent above 1 starts from the secant through the limit at
    t = 0 and the last point solved; on loop networks each law from the
    third on starts from the secant of the two solved before it."""

    def test_ring_corpus_solves_superlinear_exponents(self):
        # cold Newton at the final law failed draws 1, 2, 4, 5, 8, 9, 11,
        # 13, 15, 17 and 19 here at v**20 or v**10
        for c in ring_corpus(20):
            for alpha, v_in in ((3.0, 1.0), (5.0, 1.0), (20.0, 1.0), (10.0, 1e-3), (10.0, 1e3)):
                sol = solve_dc(c, power_law(alpha), v_in)
                assert sol.input_current > 0.0
                assert all(0.0 <= d <= 1.0 for d in sol.d.values())

    @pytest.mark.parametrize("c", [build_canonical("ladder", sections=15), ring_corpus(1)[0]],
                             ids=["ladder-15", "ring"])
    @pytest.mark.parametrize("alpha", [9.0, 20.0, 64.0])
    def test_drive_and_profile_follow_one_rule(self, c, alpha):
        sol = solve_dc(c, power_law(alpha), 1.0)
        prof = alpha_solve(c, alpha)
        assert sol.input_current == prof.phi
        assert sol.d == prof.d

    def test_iterations_sum_over_continuation_steps(self, monkeypatch):
        laws, spent = record_laws(monkeypatch), []
        newton = network.damped_newton

        def recording_newton(*args, **kwargs):
            outcome = newton(*args, **kwargs)
            spent.append(outcome.iterations)
            return outcome

        monkeypatch.setattr(network, "damped_newton", recording_newton)
        sol = solve_dc(build_canonical("ladder", sections=15), power_law(20.0), 1.0)
        assert laws[:3] == [(8.0,), (16.0,), (20.0,)]
        assert len(spent) == 3 and min(spent) > 0
        assert sol.iterations == sum(spent)

    @pytest.mark.parametrize("case,calls", [("fig_a1", 1), ("grid-20", 4)])
    def test_converged_solves_make_one_newton_call_per_law(self, monkeypatch, case, calls):
        # the restart of Network.solve runs only on an unconverged outcome
        starts, _ = record_starts(monkeypatch)
        if case == "fig_a1":
            solve_dc(FIG_A1, Characteristic(((1.0, 1.0), (1.0, 3.0))), 1.0)
        else:
            alpha_solve(square_grid(20), 64.0)  # laws 8, 16, 32, 64
        assert len(starts) == calls

    def test_hardlimiter_profiles_on_ring_draws_solve_without_polish(self, monkeypatch):
        # plain doubling failed draws 31 and 36 at 64; a secant predictor
        # that counted the linear start as a solved law sent draw 31 at 20
        # into thousands of coordinate-polish calls
        polish = []
        coordinate = _newton._polish_coordinate

        def counting(*args):
            polish.append(args)
            return coordinate(*args)

        monkeypatch.setattr(_newton, "_polish_coordinate", counting)
        ring = ring_corpus(37)
        for alpha in (20.0, 64.0):
            assert alpha_solve(ring[31], alpha).phi > 0.0
        assert polish == []
        assert alpha_solve(ring[36], 64.0).phi > 0.0

    @pytest.mark.parametrize("alpha", [9.0, 16.0, 64.0])
    def test_later_laws_start_from_the_secant_of_the_two_before(self, monkeypatch, alpha):
        # loop networks have no limit at t = 0, so their laws keep this rule
        starts, ends = record_starts(monkeypatch)
        grid = square_grid(6)
        mesh_solve(grid, power_law(alpha), 1.0)
        steps = [8.0, 16.0, 32.0, 64.0] if alpha == 64.0 else [8.0, alpha]
        assert len(starts) == len(steps)
        assert np.array_equal(starts[0], _loop_network(grid)[0].unit_start)
        assert np.array_equal(starts[1], ends[0])
        for k in range(2, len(steps)):
            t_a, t_b, t = (1.0 / s for s in steps[k - 2:k + 1])
            secant = ends[k - 1] + (ends[k - 1] - ends[k - 2]) * (t - t_b) / (t_b - t_a)
            np.testing.assert_allclose(starts[k], secant, rtol=1e-14, atol=0.0)
            assert not np.array_equal(starts[k], ends[k - 1])

    @pytest.mark.parametrize("alpha", [3.0, 9.0, 64.0])
    def test_nodal_laws_start_on_the_secant_from_the_limit(self, monkeypatch, alpha):
        # the first law starts on the line from the limit (t = 0) to the
        # linear start (t = 1), each later one on the line from the limit
        # through the last law solved; none starts at the limit itself
        starts, ends = record_starts(monkeypatch)
        ladder = build_canonical("ladder", sections=15)
        solve_dc(ladder, power_law(alpha), 1.0)
        steps = {3.0: [3.0], 9.0: [8.0, 9.0], 64.0: [8.0, 16.0, 32.0, 64.0]}[alpha]
        assert len(starts) == len(steps)
        lex = _lex_limit(ladder)
        points = [(1.0, _nodal_network(ladder).net.unit_start)]
        points += [(1.0 / s, x) for s, x in zip(steps, ends)]
        for (t_b, x_b), s, start in zip(points, steps, starts):
            np.testing.assert_allclose(start, lex + (x_b - lex) * (1.0 / s / t_b),
                                       rtol=0.0, atol=1e-15)
        assert np.abs(starts[0] - lex).max() > 1e-3

    def test_predictor_shortens_the_hardlimiter_grid_solve(self):
        # 31 iterations when the predictor was not anchored at the limit, and
        # 39 when each law started from the previous solution
        assert solve_dc(square_grid(20), power_law(64.0), 1.0).iterations <= 18

    def test_block_elimination_keeps_the_30x30_hardlimiter_newton_path(self):
        # 35 iterations when the predictor was not anchored at the limit
        assert solve_dc(square_grid(30), power_law(64.0), 1.0).iterations <= 19

    def test_limit_shortens_the_attenuating_ladder_solve(self):
        # 153 iterations when the predictor was not anchored at the limit
        ladder = build_canonical("ladder", sections=40)
        assert solve_dc(ladder, power_law(64.0), 1.0).iterations <= 12

    @pytest.mark.parametrize("name,alpha", [
        *[(f"ladder-{n}", a) for n in (15, 40) for a in (16.0, 32.0, 64.0)],
        *[(f"grid-{n}", a) for n in (20, 30) for a in (3.0, 64.0, 128.0)]])
    def test_the_limit_moves_the_start_not_the_answer(self, name, alpha):
        # potentials, not zero currents: on ladder-40 at 16 the two answers
        # agree to 4e-15 while 4 and 2 currents underflow to exactly 0
        kind, n = name.split("-")
        c = build_canonical("ladder", sections=int(n)) if kind == "ladder" else square_grid(int(n))
        net, law = _nodal_network(c).net, power_law(alpha)
        anchored, plain = net.solve(law, limit=_lex_limit(c)), net.solve(law)
        assert anchored.converged and plain.converged
        assert np.abs(anchored.x - plain.x).max() <= 1e-12

    def test_cold_attenuating_ladder_converges_well_inside_the_cap(self):
        # the deep sections' drops sit within the roundoff noise of their
        # potentials; with slopes taken there as computed, the first law
        # took 172 iterations of the 200 allowed, or failed, depending on
        # the last bits of the linear start
        net = _nodal_network(build_canonical("ladder", sections=40))[0]
        outcome = net.solve(power_law(8.0))
        assert outcome.converged
        assert outcome.iterations <= 160

    def test_multi_term_law_scales_by_its_smallest_exponent(self, monkeypatch):
        laws = record_laws(monkeypatch)
        solve_dc(FIG_A1, Characteristic(((1.0, 10.0), (2.0, 30.0))), 1.0)
        assert laws[:2] == [(8.0, 24.0), (10.0, 30.0)]
        laws.clear()
        solve_dc(FIG_A1, Characteristic(((1.0, 1.0), (1.0, 20.0))), 1.0)
        assert laws[0] == (1.0, 20.0)


@pytest.mark.parametrize("case,v_in", [("ring-26", 1.0), ("ring-9", 1e3), ("ring-11", 1e3),
                                       ("ring-33", 1e3), ("ladder-40", 1e3)])
def test_multi_term_law_solves_from_the_limit(case, v_in):
    # SolverError after 1-11 s each when the first law started from the
    # linear start; plain-Python KCL re-checks each answer
    kind, k = case.split("-")
    c = ring_corpus(int(k) + 1)[int(k)] if kind == "ring" else build_canonical("ladder", sections=40)
    law = Characteristic(((1.0, 10.0), (0.5, 20.0)))
    sol = solve_dc(c, law, v_in)
    assert sol.iterations <= 20
    assert kcl_holds(c, law.terms, sol.potentials)


class TestLexLimit:
    """``_lex_limit`` is the limit of the profiles: d_k(alpha) approaches it
    as C / alpha with C at most 0.52 (multigraph draw 165) on the corpora
    below, and profiles that are already exact at 64 equal it."""

    @pytest.mark.parametrize("corpus", ["grid-20", "rings", "multigraphs", "ladders"])
    def test_profiles_approach_the_limit(self, corpus):
        circuits = {"grid-20": lambda: [square_grid(20)], "rings": lambda: ring_corpus(40),
                    "multigraphs": lambda: SMALL_MULTIGRAPHS,
                    "ladders": lambda: [build_canonical("ladder", sections=n) for n in (15, 40)],
                    }[corpus]()
        for c in circuits:
            limit = hardlimiter_limit(c)
            for alpha in (64.0, 256.0):
                assert alpha * max_gap(c, alpha_solve(c, alpha).d, limit) <= 1.0

    @pytest.mark.parametrize("name,kwargs", [("fig_a1", {}), ("fig3", {}), ("fig4", {}),
                                             ("ladder", {"sections": 15})])
    def test_exact_profiles_equal_the_limit(self, name, kwargs):
        c = build_canonical(name, **kwargs)
        assert max_gap(c, alpha_solve(c, 64.0).d, hardlimiter_limit(c)) <= 1e-12

    def test_kept_on_the_circuit_and_read_only(self):
        c = build_canonical("ladder", sections=15)
        first = _lex_limit(c)
        assert _lex_limit(c) is first and not first.flags.writeable

    def test_warm_and_linear_solves_do_not_build_it(self):
        c = build_canonical("ladder", sections=15)
        solve_grid(c, CUBE_LAW, [0.5, 2.0])
        solve_dc(c, power_law(0.5), 1.0)
        assert "_lex" not in c.__dict__
        solve_dc(c, power_law(3.0), 1.0)
        assert "_lex" in c.__dict__


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
