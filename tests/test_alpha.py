import dataclasses
import random

import numpy as np
import pytest

import alphaport.alpha as alpha_module
from alphaport import (
    Characteristic,
    Circuit,
    SolverError,
    alpha_solve,
    build_canonical,
    d_sweep,
    hardlimiter_limit,
    parse_netlist,
    phi_closed_form_fig_a1,
    solve_dc,
)
from conftest import (
    kcl_holds,
    random_connected_circuit,
    ring_corpus,
    short_cycle_basis,
    square_grid,
)

FIG_A1 = build_canonical("fig_a1")
FIG4 = build_canonical("fig4")


def linear_input_conductance(c):
    """Independent oracle: assemble the unit-conductance Laplacian directly."""
    nodes = sorted(c.nodes)
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    lap = np.zeros((n, n))
    for br in c.branches:
        i, j = idx[br.n1], idx[br.n2]
        lap[i, i] += br.w
        lap[j, j] += br.w
        lap[i, j] -= br.w
        lap[j, i] -= br.w
    a, b = c.input_port
    interior = [i for i in range(n) if i not in (idx[a], idx[b])]
    rhs = -lap[np.ix_(interior, [idx[a]])].ravel()  # unit drive at a, ground at b
    p = np.zeros(n)
    p[idx[a]] = 1.0
    if interior:
        p_int = np.linalg.solve(lap[np.ix_(interior, interior)], rhs)
        for k, i in enumerate(interior):
            p[i] = p_int[k]
    return float(-lap[idx[b], :] @ p)  # current collected at ground


def count_network_builds(monkeypatch, builder: str = "_nodal_network") -> list:
    """Record every ``builder`` call (``_nodal_network`` or ``_loop_network``)
    made through alpha.py."""
    builds = []
    build = getattr(alpha_module, builder)
    monkeypatch.setattr(alpha_module, builder,
                        lambda c, *rest: builds.append(c) or build(c, *rest))
    return builds


def ground_current(c, alpha, d) -> float:
    """Plain-Python current collected at b from the unit-drive profile ``d``."""
    b = c.b
    return sum(br.w * abs(d[br.n1] - d[br.n2]) ** alpha for br in c.branches
               if (br.n1 == b) != (br.n2 == b))


class TestAlphaSolve:
    def test_linear_profile_of_reference_bridge(self):
        prof = alpha_solve(FIG_A1, 1.0)
        assert prof.phi == pytest.approx(1.6, abs=1e-12)
        assert prof.d["o"] == pytest.approx(0.4, abs=1e-12)
        assert prof.d["a"] == 1.0 and prof.d["b"] == 0.0

    def test_cubic_profile_of_reference_bridge(self):
        prof = alpha_solve(FIG_A1, 3.0)
        assert prof.phi == pytest.approx(1.1325, abs=1e-3)
        # divider ratio has the closed form 2 / (2 + 9**(1/3))
        assert prof.d["o"] == pytest.approx(2.0 / (2.0 + 9.0 ** (1.0 / 3.0)), abs=1e-9)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5])
    def test_symmetric_bridge_formula(self, alpha):
        prof = alpha_solve(FIG4, alpha)
        assert prof.phi == pytest.approx(1.0 + 2.0 * (1.0 / 3.0) ** alpha, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0, 20.0])
    def test_matches_closed_form(self, alpha):
        assert alpha_solve(FIG_A1, alpha).phi == pytest.approx(
            phi_closed_form_fig_a1(alpha), abs=1e-9)

    def test_profile_independent_of_drive_and_coefficient(self):
        prof = alpha_solve(FIG_A1, 2.5)
        sol = solve_dc(FIG_A1, Characteristic(((4.2, 2.5),)), 7.0)
        for n in FIG_A1.nodes:
            assert sol.potentials[n] / 7.0 == pytest.approx(prof.d[n], abs=1e-9)
        assert sol.input_current == pytest.approx(4.2 * prof.phi * 7.0**2.5, rel=1e-9)

    def test_ratios_stay_in_unit_interval(self):
        rng = random.Random(5)
        for _ in range(8):
            c = random_connected_circuit(rng)
            prof = alpha_solve(c, rng.choice((0.5, 1.5, 3.0)))
            assert all(0.0 <= v <= 1.0 for v in prof.d.values())

    def test_continuation_builds_the_network_once(self, monkeypatch):
        builds = count_network_builds(monkeypatch)
        ladder = build_canonical("ladder", sections=15)
        profile = alpha_solve(ladder, 64.0)
        assert len(builds) == 1
        # Network.solve's continuation steps 8, 16, 32, chained explicitly;
        # the chain warm-starts each step from the last, without the secant
        # predictor, so it agrees to roundoff rather than bitwise
        chained = alpha_module._exponent_chain(ladder, (8.0, 16.0, 32.0, 64.0))
        assert len(builds) == 2
        assert [p.alpha for p in chained] == [8.0, 16.0, 32.0, 64.0]
        assert profile.phi == pytest.approx(chained[-1].phi, rel=1e-12)
        assert profile.d.keys() == chained[-1].d.keys()
        for node, d in profile.d.items():
            assert d == pytest.approx(chained[-1].d[node], abs=1e-12)

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            alpha_solve(FIG_A1, 0.0)


class TestLinearConductanceOracle:
    @pytest.mark.parametrize("name,kwargs", [
        ("fig_a1", {}), ("fig3", {}), ("fig4", {}), ("ladder", {"sections": 3}),
    ])
    def test_phi_at_one_is_the_linear_conductance(self, name, kwargs):
        c = build_canonical(name, **kwargs)
        assert alpha_solve(c, 1.0).phi == pytest.approx(
            linear_input_conductance(c), rel=1e-10)

    def test_on_random_circuits(self):
        rng = random.Random(42)
        for _ in range(10):
            c = random_connected_circuit(rng)
            assert alpha_solve(c, 1.0).phi == pytest.approx(
                linear_input_conductance(c), rel=1e-9)


def test_direct_port_conductor_keeps_phi_above_one():
    for name in ("fig_a1", "fig3", "fig4"):
        c = build_canonical(name)
        for alpha in (0.5, 1.0, 2.0, 4.0):
            assert alpha_solve(c, alpha).phi > 1.0


class TestDSweep:
    def test_reference_bridge_ratio_grows_toward_half(self):
        sweep = d_sweep(FIG_A1, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        d_o = sweep.d["o"]
        assert d_o[0] == pytest.approx(0.4, abs=1e-9)
        assert all(b > a for a, b in zip(d_o, d_o[1:]))
        assert d_o[-1] < 0.5
        assert sweep.verdicts["o"] == "nondecreasing"

    def test_symmetric_bridge_is_constant(self):
        sweep = d_sweep(FIG4, [1.0, 2.0, 4.0])
        for node, expected in (("c", 2 / 3), ("d", 1 / 3), ("e", 2 / 3), ("f", 1 / 3)):
            assert all(v == pytest.approx(expected, abs=1e-10) for v in sweep.d[node])
            assert sweep.verdicts[node] != "violation"

    def test_series_chain_is_constant(self):
        chain = parse_netlist(".input a b\n.branch a m1\n.branch m1 m2\n.branch m2 b")
        sweep = d_sweep(chain, [0.5, 1.0, 3.0, 6.0])
        assert all(v == pytest.approx(2 / 3, abs=1e-10) for v in sweep.d["m1"])
        assert all(v == pytest.approx(1 / 3, abs=1e-10) for v in sweep.d["m2"])

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            d_sweep(FIG_A1, [2.0, 1.0])
        with pytest.raises(ValueError):
            d_sweep(FIG_A1, [])

    def test_phis_returned_alongside(self):
        sweep = d_sweep(FIG_A1, [1.0, 3.0])
        assert sweep.phis[0] == pytest.approx(1.6, abs=1e-10)
        assert sweep.phis[1] == pytest.approx(phi_closed_form_fig_a1(3.0), abs=1e-9)

    def test_builds_the_network_once(self, monkeypatch):
        builds = count_network_builds(monkeypatch)
        d_sweep(FIG_A1, [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
        assert len(builds) == 1

    def test_first_exponent_above_eight_continues_like_alpha_solve(self):
        ladder = build_canonical("ladder", sections=15)
        sweep = d_sweep(ladder, [20.0, 40.0])
        profile = alpha_solve(ladder, 20.0)
        assert sweep.phis[0] == profile.phi
        assert {n: vals[0] for n, vals in sweep.d.items()} == profile.d

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            d_sweep(FIG_A1, [-1.0, 2.0])


class TestHardlimiterLimit:
    """The limit is exact: the closed forms of the steepest paths."""

    def test_reference_bridge_divider_approaches_half(self):
        limit = hardlimiter_limit(FIG_A1)
        assert limit["o"] == pytest.approx(0.5, abs=1e-12)
        assert limit["x"] == pytest.approx(0.25, abs=1e-12)

    def test_ladder_first_shunt_approaches_thirds(self):
        limit = hardlimiter_limit(build_canonical("ladder", sections=8))
        assert limit["d1"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert limit["c1"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_symmetric_bridge_unchanged(self):
        limit = hardlimiter_limit(FIG4)
        assert limit["c"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert limit["d"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_ports_and_dead_nodes(self):
        # a pendant limb o-p-q and a dead loop on x carry no current
        c = parse_netlist(".input a b\n.branch a o\n.branch o b\n.branch o p\n"
                          ".branch p q\n.branch a x\n.branch x b\n.branch x y\n"
                          ".branch y z\n.branch z x\n")
        limit = hardlimiter_limit(c)
        assert sorted(limit) == sorted(c.nodes)
        assert limit["a"] == 1.0 and limit["b"] == 0.0
        assert limit["o"] == limit["x"] == 0.5
        assert limit["p"] == limit["q"] == limit["y"] == limit["z"] == 0.5

    def test_builds_the_network_once(self, monkeypatch):
        builds = count_network_builds(monkeypatch)
        hardlimiter_limit(FIG_A1)
        assert len(builds) == 1


FIG_B1 = build_canonical("fig_b1")
DUAL_CIRCUITS = {"fig_b1": FIG_B1, "grid-12": square_grid(12), "grid-20": square_grid(20)}
DUAL_ALPHAS = (0.25, 0.3, 0.5, 0.7, 0.9)
# The nodal route raises SolverError on grid-20 at 0.25 (after about 8 s of
# coordinate polish), so that case has nothing to agree with; its dual
# profile is still checked against KCL below.
AGREEMENT_CASES = [(name, alpha) for name in DUAL_CIRCUITS for alpha in DUAL_ALPHAS
                   if (name, alpha) != ("grid-20", 0.25)]


class TestDualRoute:
    """Exponents below 1 on a circuit that declares a loop basis go through
    the loop equations under the law i**(1/alpha)."""

    @pytest.mark.parametrize("name,alpha", AGREEMENT_CASES)
    def test_matches_the_nodal_route(self, name, alpha):
        c = DUAL_CIRCUITS[name]
        dual = alpha_solve(c, alpha)
        nodal = alpha_solve(dataclasses.replace(c, meshes=()), alpha)
        assert dual.phi == pytest.approx(nodal.phi, rel=1e-12, abs=0.0)
        assert list(dual.d) == list(nodal.d)
        assert all(abs(dual.d[n] - v) <= 1e-12 for n, v in nodal.d.items())

    @pytest.mark.parametrize("alpha", DUAL_ALPHAS)
    @pytest.mark.parametrize("name", list(DUAL_CIRCUITS))
    def test_profile_satisfies_kcl(self, name, alpha):
        c = DUAL_CIRCUITS[name]
        prof = alpha_solve(c, alpha)
        assert prof.d[c.a] == 1.0 and prof.d[c.b] == 0.0
        assert kcl_holds(c, ((1.0, alpha),), prof.d)
        assert prof.phi == pytest.approx(ground_current(c, alpha, prof.d), rel=1e-12)

    def test_fig_b1_matches_closed_form(self):
        for alpha in DUAL_ALPHAS:
            assert alpha_solve(FIG_B1, alpha).phi == pytest.approx(
                phi_closed_form_fig_a1(alpha), rel=1e-12)

    def test_d_sweep_builds_one_network_per_route(self, monkeypatch):
        nodal = count_network_builds(monkeypatch)
        loop = count_network_builds(monkeypatch, "_loop_network")
        sweep = d_sweep(FIG_B1, [0.3, 0.5, 2.0, 3.0])
        assert len(nodal) == 1 and len(loop) == 1
        for k, alpha in enumerate(sweep.alphas):
            assert sweep.phis[k] == pytest.approx(phi_closed_form_fig_a1(alpha), rel=1e-12)

    def test_circuit_without_a_basis_stays_nodal(self, monkeypatch):
        loop = count_network_builds(monkeypatch, "_loop_network")
        d_sweep(FIG_A1, [0.3, 0.5, 2.0])
        alpha_solve(FIG_A1, 0.25)
        assert loop == []

    def test_declared_basis_is_checked(self):
        broken = Circuit(FIG_B1.branches, FIG_B1.input_port, meshes=FIG_B1.meshes[:2])
        with pytest.raises(ValueError, match="invalid mesh basis"):
            alpha_solve(broken, 0.5)
        assert alpha_solve(broken, 2.0) == alpha_solve(FIG_A1, 2.0)

    def test_exhausted_iteration_budget_is_reported(self, monkeypatch):
        monkeypatch.setenv("ALPHAPORT_MAX_ITERS", "1")
        with pytest.raises(SolverError, match="KVL iteration did not converge"):
            alpha_solve(build_canonical("fig_b1"), 0.3)


# Seeded corpora on which the nodal route raises SolverError for some draws
# (6 of the 40 ring draws at alpha = 0.5, 10 of the 300 multigraphs at 0.25)
def _multigraph_corpus():
    rng = random.Random(7)
    return [random_connected_circuit(rng, max_internal=8, max_extra=8) for _ in range(300)]


@pytest.mark.parametrize("corpus,alpha",
                         [(lambda: ring_corpus(40), 0.5), (_multigraph_corpus, 0.25)],
                         ids=["ring-0.5", "multigraph-0.25"])
def test_dual_route_solves_the_nodal_failure_corpora(corpus, alpha):
    for c in corpus():
        prof = alpha_solve(dataclasses.replace(c, meshes=short_cycle_basis(c)), alpha)
        assert prof.d[c.a] == 1.0 and prof.d[c.b] == 0.0
        assert all(0.0 <= v <= 1.0 for v in prof.d.values())
        assert prof.phi == pytest.approx(ground_current(c, alpha, prof.d), rel=1e-12)

