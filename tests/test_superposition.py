import random

import pytest

from alphaport import (
    Branch,
    Characteristic,
    Circuit,
    alpha_solve,
    build_canonical,
    d_growth_coefficient,
    error_bound,
    extract_series_coeffs,
    intermediate_value_check,
    phi_closed_form_fig_a1,
    report,
    report_grid,
    solve_dc,
    leading_term_check,
    superpose,
    term_split_input_currents,
)
from conftest import random_connected_circuit

CUBE_LAW = Characteristic(((1.0, 1.0), (1.0, 3.0)))
FIG_A1 = build_canonical("fig_a1")
FIG3 = build_canonical("fig3")
FIG4 = build_canonical("fig4")


def fig_a1_divider_ratio(alpha: float) -> float:
    return 1.0 / (1.0 + (1.0 + 2.0 ** (-alpha)) ** (1.0 / alpha))


class TestSuperpose:
    def test_reference_bridge_coefficients(self):
        coeffs = dict(superpose(FIG_A1, CUBE_LAW))
        assert coeffs[1.0] == pytest.approx(1.6, abs=1e-10)
        assert coeffs[3.0] == pytest.approx(phi_closed_form_fig_a1(3.0), abs=1e-9)
        assert coeffs[3.0] == pytest.approx(1.13252, abs=5e-4)

    def test_symmetric_bridge_estimate_is_exact(self):
        f = Characteristic(((0.7, 1.5), (2.0, 4.0)))
        coeffs = dict(superpose(FIG4, f))
        for d, a in f.terms:
            assert coeffs[a] == pytest.approx(d * (1.0 + 2.0 / 3.0**a), rel=1e-12)
        rep = report(FIG4, f, 1.3)
        assert rep.eta <= 1e-12

    def test_single_term_estimate_is_exact(self):
        rng = random.Random(17)
        for _ in range(5):
            c = random_connected_circuit(rng)
            f = Characteristic(((rng.uniform(0.5, 2.0), rng.choice((0.5, 1.0, 2.0, 3.0))),))
            rep = report(c, f, rng.uniform(0.3, 2.0))
            assert rep.eta <= 1e-12


class TestReport:
    def test_reference_bridge_numbers(self):
        rep = report(FIG_A1, CUBE_LAW, 1.0)
        assert rep.F == pytest.approx(2.7452378, abs=1e-6)
        assert rep.G == pytest.approx(2.73252, abs=5e-4)
        assert rep.eta == pytest.approx(0.0046, abs=3e-4)
        # estimate runs below the exact value here
        assert rep.G < rep.F

    def test_error_relative_to_nonlinear_part_is_larger(self):
        rep = report(FIG_A1, CUBE_LAW, 1.0)
        assert rep.eta_nonlinear > rep.eta
        lead = rep.per_term[0].value
        assert rep.eta_nonlinear == pytest.approx(
            abs(rep.F - rep.G) / (rep.F - lead), rel=1e-12)

    def test_degree_of_nonlinearity_definition(self):
        rep = report(FIG_A1, CUBE_LAW, 1.0)
        assert rep.nonlinearity_degree == pytest.approx(
            (rep.F - 1.6) / 1.6, rel=1e-9)

    @pytest.mark.parametrize("v_in", [0.5, 1.0, 2.0])
    def test_eta_equals_power_form_bitwise(self, v_in):
        # power-of-two drives make the power products exact, so the
        # current-based and power-based error forms agree bit for bit
        rep = report(FIG_A1, CUBE_LAW, v_in)
        p_f = v_in * rep.F
        p_g = v_in * rep.G
        assert rep.eta == abs(p_f - p_g) / p_f

    def test_eta_equals_power_form_generally(self):
        rep = report(FIG_A1, CUBE_LAW, 0.7)
        p_f = 0.7 * rep.F
        p_g = 0.7 * rep.G
        assert rep.eta == pytest.approx(abs(p_f - p_g) / p_f, rel=1e-12)

    def test_per_term_entries(self):
        rep = report(FIG_A1, Characteristic(((2.0, 1.0), (0.5, 3.0))), 2.0)
        t1, t3 = rep.per_term
        assert (t1.alpha, t1.coefficient) == (1.0, 2.0)
        assert t1.value == pytest.approx(2.0 * 1.6 * 2.0, rel=1e-10)
        assert t3.value == pytest.approx(0.5 * phi_closed_form_fig_a1(3.0) * 8.0, rel=1e-9)
        assert rep.G == pytest.approx(t1.value + t3.value, rel=1e-12)

    def test_bound_present_only_for_two_terms(self):
        assert report(FIG_A1, CUBE_LAW, 1.0).bound is not None
        single = report(FIG_A1, Characteristic(((1.0, 2.0),)), 1.0)
        assert single.bound is None
        triple = report(FIG_A1, Characteristic(((1.0, 1.0), (1.0, 2.0), (1.0, 3.0))), 1.0)
        assert triple.bound is None

    def test_bound_rescaled_for_general_coefficients(self):
        rep = report(FIG_A1, Characteristic(((2.0, 1.0), (0.5, 3.0))), 1.0)
        assert rep.bound_normalized
        assert rep.bound >= abs(rep.F - rep.G)
        plain = report(FIG_A1, CUBE_LAW, 1.0)
        assert not plain.bound_normalized


class TestReportGrid:
    @pytest.mark.parametrize("name, sections", [("fig_a1", None), ("ladder", 15)])
    def test_matches_per_point_report_and_solve(self, name, sections):
        c = build_canonical(name, sections=sections)
        grid = [10.0, 0.01, 0.3, 2.0]
        rows = report_grid(c, CUBE_LAW, grid)
        assert [rep.v_in for _, rep in rows] == grid
        for v, (sol, rep) in zip(grid, rows):
            single = report(c, CUBE_LAW, v)
            assert rep.F == pytest.approx(single.F, rel=1e-9)
            assert rep.G == pytest.approx(single.G, rel=1e-9)
            assert rep.bound == pytest.approx(single.bound, rel=1e-9)
            cold = solve_dc(c, CUBE_LAW, v)
            for n in c.internal_nodes():
                assert sol.potentials[n] / v == pytest.approx(
                    cold.potentials[n] / v, rel=1e-9, abs=1e-15)


class TestLeadingTermAgreement:
    def test_reference_bridge_quadratic_decay(self):
        res = leading_term_check(FIG_A1, CUBE_LAW, [1e-1, 1e-2, 1e-3])
        assert not res.ideal
        assert res.converges
        assert res.expected_slope == 2.0
        assert res.fitted_slope == pytest.approx(2.0, abs=0.1)
        # one decade in drive shrinks the deviation by about two decades
        assert res.deviations[0] / res.deviations[1] == pytest.approx(100.0, rel=0.05)

    def test_symmetric_bridge_is_ideal(self):
        res = leading_term_check(FIG4, CUBE_LAW, [1e-1, 1e-2, 1e-3])
        assert res.ideal
        assert res.fitted_slope is None
        assert all(abs(r - 1.0) <= 1e-12 for r in res.ratios)

    def test_small_drive_limit_is_the_linear_coefficient(self):
        sol = solve_dc(FIG_A1, CUBE_LAW, 1e-4)
        assert sol.input_current / 1e-4 == pytest.approx(1.6, abs=1e-6)

    def test_grid_must_descend(self):
        with pytest.raises(ValueError):
            leading_term_check(FIG_A1, CUBE_LAW, [1e-3, 1e-2])
        with pytest.raises(ValueError):
            leading_term_check(FIG_A1, CUBE_LAW, [])


class TestErrorBound:
    def test_equal_exponents_give_zero(self):
        assert error_bound(FIG_A1, 2.0, 2.0, 1.0) == 0.0

    def test_symmetric_bridge_gives_zero(self):
        assert error_bound(FIG4, 1.0, 3.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_reference_bridge_value_from_closed_ratios(self):
        # hand evaluation from the exact divider ratios of the two
        # power-law realizations
        d1 = {"a": 1.0, "o": 0.4, "x": 0.2, "b": 0.0}
        o3 = fig_a1_divider_ratio(3.0)
        d3 = {"a": 1.0, "o": o3, "x": o3 / 2.0, "b": 0.0}
        expected = 0.0
        for p, q in (("a", "b"), ("a", "o"), ("o", "b"), ("o", "x"), ("x", "b")):
            vm = abs(d1[p] - d1[q])
            vn = abs(d3[p] - d3[q])
            if vn >= vm:
                expected += vn**4 - vm**4
            else:
                expected += vm**2 - vn**2
        assert error_bound(FIG_A1, 1.0, 3.0, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_bound_dominates_the_gap(self):
        rep = report(FIG_A1, CUBE_LAW, 1.0)
        assert abs(rep.F - rep.G) == pytest.approx(0.0127, abs=2e-4)
        assert rep.bound >= abs(rep.F - rep.G)

    def test_bound_scales_with_drive(self):
        b1 = error_bound(FIG_A1, 1.0, 3.0, 1.0)
        b2 = error_bound(FIG_A1, 1.0, 3.0, 2.0)
        assert b2 > b1


class TestSeriesCoefficients:
    def test_symmetric_bridge_coefficients_are_exact(self):
        f = Characteristic(((1.0, 2.0), (1.0, 3.0)))
        b2, b3 = extract_series_coeffs(FIG4, f)
        assert b2 == pytest.approx(1.0 + 2.0 / 9.0, rel=1e-9)
        assert b3 == pytest.approx(1.0 + 2.0 / 27.0, rel=1e-9)

    def test_reference_bridge_linear_coefficient(self):
        b1, _ = extract_series_coeffs(FIG_A1, CUBE_LAW)
        assert b1 == pytest.approx(1.6, abs=1e-5)

    def test_leading_coefficient_matches_alpha_profile(self):
        rng = random.Random(31)
        for _ in range(3):
            c = random_connected_circuit(rng, max_internal=4)
            f = Characteristic(((1.0, 1.0), (1.0, 2.0)))
            b1, _ = extract_series_coeffs(c, f)
            assert b1 == pytest.approx(alpha_solve(c, 1.0).phi, abs=1e-4)

    def test_fewer_points_than_exponents_rejected(self):
        # one point used to return an underdetermined fit without complaint
        with pytest.raises(ValueError, match="cannot fit"):
            extract_series_coeffs(FIG_A1, CUBE_LAW, points=1)

    def test_close_exponents_rejected_as_ill_conditioned(self):
        with pytest.raises(ValueError, match="ill-conditioned"):
            extract_series_coeffs(FIG_A1, CUBE_LAW, exponents=(1.0, 1.0 + 1e-9))


class TestIntermediateValues:
    def test_reference_bridge_divider_window(self):
        res = intermediate_value_check(FIG_A1, CUBE_LAW, [1e-3, 1e-2, 0.1, 1.0, 10.0])
        assert res.ok
        assert res.low["o"] == pytest.approx(0.4, abs=1e-9)
        assert res.high["o"] == pytest.approx(fig_a1_divider_ratio(3.0), abs=1e-9)
        d_at_1 = res.d_values["o"][3]
        assert d_at_1 == pytest.approx(0.4350635, abs=1e-6)
        values = res.d_values["o"]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_drive_growth_coefficient(self):
        growth = d_growth_coefficient(FIG_A1, CUBE_LAW, "o", 1e-3)
        assert growth == pytest.approx(0.0576, rel=0.05)

    def test_large_drive_approaches_cubic_ratio(self):
        sol = solve_dc(FIG_A1, CUBE_LAW, 1e3)
        assert sol.potentials["o"] / 1e3 == pytest.approx(
            fig_a1_divider_ratio(3.0), abs=1e-4)

    def test_growth_coefficient_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node 'zz'"):
            d_growth_coefficient(FIG_A1, CUBE_LAW, "zz", 1e-3)

    def test_unsorted_grid_keeps_grid_order(self):
        grid = [1.0, 1e-3, 10.0]
        res = intermediate_value_check(FIG_A1, CUBE_LAW, grid)
        for v, d_o in zip(grid, res.d_values["o"]):
            assert d_o == pytest.approx(solve_dc(FIG_A1, CUBE_LAW, v).potentials["o"] / v,
                                        rel=1e-12)

    def test_requires_two_terms(self):
        with pytest.raises(ValueError):
            intermediate_value_check(FIG_A1, Characteristic(((1.0, 2.0),)), [1.0])
        with pytest.raises(ValueError):
            d_growth_coefficient(FIG_A1, Characteristic(((1.0, 2.0),)), "o", 1.0)


class TestTermSplit:
    def test_shares_sum_to_input_current(self):
        shares = term_split_input_currents(FIG_A1, CUBE_LAW, 1.0)
        sol = solve_dc(FIG_A1, CUBE_LAW, 1.0)
        assert sum(shares) == pytest.approx(sol.input_current, rel=1e-12)

    def test_driven_side_nonlinearity_ratio(self):
        # per-term split at the driven terminal: cubic over linear share
        lin, cub = term_split_input_currents(FIG_A1, CUBE_LAW, 1.0, side="a")
        assert cub == pytest.approx(1.1803, abs=1e-4)
        assert lin == pytest.approx(1.5649, abs=1e-4)
        assert cub / lin == pytest.approx(0.754, abs=1e-3)

    def test_connected_shares_straddle_independent_currents(self):
        # the connection raises one term's share and lowers the other's
        circuits = [FIG_A1, FIG3, build_canonical("ladder", sections=6)]
        rng = random.Random(23)
        for _ in range(4):
            circuits.append(random_connected_circuit(rng, max_internal=4))
        for c in circuits:
            f = Characteristic(((1.0, 1.0), (1.0, 3.0)))
            shares = term_split_input_currents(c, f, 1.0)
            independent = [d * alpha_solve(c, a).phi for d, a in f.terms]
            deltas = [s - i for s, i in zip(shares, independent)]
            if all(abs(d) <= 1e-10 for d in deltas):
                continue  # superposition-exact topology
            assert deltas[0] * deltas[1] < 0.0

    def test_side_argument_validated(self):
        with pytest.raises(ValueError):
            term_split_input_currents(FIG_A1, CUBE_LAW, 1.0, side="c")

    def test_matches_a_loop_over_the_branches(self):
        circuits = [FIG_A1, FIG3, build_canonical("ladder", sections=6)]
        rng = random.Random(29)
        circuits += [random_connected_circuit(rng) for _ in range(8)]
        f = Characteristic(((2.0, 0.5), (1.0, 1.0), (0.5, 3.0)))
        for c in circuits:
            p = solve_dc(c, f, 1.7).potentials
            for side in ("a", "b"):
                node = c.a if side == "a" else c.b
                expected = [sum(br.w * d * abs(p[br.n1 if br.n2 == node else br.n2] - p[node]) ** a
                                for br in c.branches if (br.n1 == node) != (br.n2 == node))
                            for d, a in f.terms]
                shares = term_split_input_currents(c, f, 1.7, side=side)
                assert shares == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestParallelBranchEffect:
    def test_direct_port_conductor_leaves_gap_unchanged(self):
        rng = random.Random(11)
        for _ in range(5):
            c = random_connected_circuit(rng, max_internal=4)
            f = Characteristic(((1.0, 1.0), (1.0, 3.0)))
            base = report(c, f, 1.0)
            plus = report(Circuit(c.branches + (Branch("a", "b"),), c.input_port), f, 1.0)
            assert abs(plus.F - plus.G) == pytest.approx(
                abs(base.F - base.G), rel=1e-9, abs=1e-12)
            assert plus.F > base.F
            assert plus.eta <= base.eta + 1e-15

    def test_chain_node_ratio_is_law_independent(self):
        # the two-conductor input chain keeps its midpoint at half drive
        for f in (CUBE_LAW, Characteristic(((2.0, 0.5), (1.0, 2.0)))):
            sol = solve_dc(FIG3, f, 1.0)
            assert sol.potentials["p"] == pytest.approx(0.5, abs=1e-12)

    def test_added_chain_improves_on_interior_alone(self):
        interior = build_canonical("fig_a1")
        rep_a1 = report(interior, CUBE_LAW, 1.0)
        rep_fig3 = report(FIG3, CUBE_LAW, 1.0)
        assert abs(rep_fig3.F - rep_fig3.G) == pytest.approx(
            abs(rep_a1.F - rep_a1.G), rel=1e-9)
        assert rep_fig3.eta < rep_a1.eta
