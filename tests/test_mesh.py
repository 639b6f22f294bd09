import numpy as np
import pytest
from conftest import square_grid

from alphaport import (
    Branch,
    Characteristic,
    Circuit,
    Mesh,
    build_canonical,
    mesh_solve,
    phi_b6_closed_form,
    phi_closed_form_fig_a1,
    phi_meshes_from_nodes,
)
from alphaport.mesh import _loop_network

FIG_B1 = build_canonical("fig_b1")
SOURCE, M1, M2 = FIG_B1.meshes


def power_law(alpha, d=1.0):
    return Characteristic(((d, alpha),))


class TestFigB1:
    def test_linear_case_exact(self):
        sol = mesh_solve(FIG_B1, power_law(1.0), 1.0)
        assert sol.phi_meshes == pytest.approx(0.625, abs=1e-12)
        assert sol.mesh_currents["m1"] == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert sol.mesh_currents["m2"] == pytest.approx(1.0 / 8.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_matches_closed_form(self, alpha):
        sol = mesh_solve(FIG_B1, power_law(alpha), 1.0)
        assert sol.phi_meshes == pytest.approx(phi_b6_closed_form(alpha), rel=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_loop_equations_hold(self, alpha):
        f = power_law(alpha)
        sol = mesh_solve(FIG_B1, f, 1.0)
        i1, i2 = sol.mesh_currents["m1"], sol.mesh_currents["m2"]
        r1 = -f(1.0 - i1) + f(i1) + f(i1 - i2)
        r2 = -f(i1 - i2) + 2.0 * f(i2)
        scale = max(f(1.0 - i1), f(i1), f(i2))
        assert abs(r1) <= 1e-10 * scale
        assert abs(r2) <= 1e-10 * scale

    def test_far_mesh_current_ratio(self):
        # eliminating the far mesh gives i1 - i2 = 2**(1/a) * i2
        for alpha in (0.5, 2.0, 3.0):
            sol = mesh_solve(FIG_B1, power_law(alpha), 1.0)
            i1, i2 = sol.mesh_currents["m1"], sol.mesh_currents["m2"]
            assert i1 - i2 == pytest.approx(2.0 ** (1.0 / alpha) * i2, rel=1e-9)

    def test_drive_scaling(self):
        sol = mesh_solve(FIG_B1, power_law(2.0), 3.0)
        assert sol.input_voltage == pytest.approx(
            phi_b6_closed_form(2.0) * 3.0**2, rel=1e-9)

    def test_current_hardlimiter_regime(self):
        sol = mesh_solve(FIG_B1, power_law(64.0), 1.0)
        assert sol.phi_meshes == pytest.approx(phi_b6_closed_form(64.0), rel=1e-9)
        # elements clamp currents: the input splits evenly at the first loop
        assert sol.mesh_currents["m1"] == pytest.approx(0.5, abs=0.01)


class TestDuality:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_mesh_phi_is_converted_nodal_phi(self, alpha):
        converted = phi_meshes_from_nodes(phi_closed_form_fig_a1, alpha)
        assert mesh_solve(FIG_B1, power_law(alpha), 1.0).phi_meshes == pytest.approx(
            converted, rel=1e-9)
        assert phi_b6_closed_form(alpha) == pytest.approx(converted, rel=1e-12)

    def test_linear_reciprocal(self):
        assert phi_meshes_from_nodes(phi_closed_form_fig_a1, 1.0) == pytest.approx(
            1.0 / 1.6, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_conversion_round_trips(self, alpha):
        def mesh_phi(a):
            return phi_meshes_from_nodes(phi_closed_form_fig_a1, a)

        # applying the conversion rule twice restores the nodal coefficient
        back = phi_meshes_from_nodes(mesh_phi, alpha)
        assert back == pytest.approx(phi_closed_form_fig_a1(alpha), rel=1e-9)

    def test_direct_port_element_keeps_mesh_phi_below_one(self):
        for alpha in (0.5, 1.0, 2.0, 3.0, 8.0):
            assert mesh_solve(FIG_B1, power_law(alpha), 1.0).phi_meshes < 1.0


class TestBasisHandling:
    def test_multiplicity_splits_loop_current(self):
        c = Circuit((Branch("a", "b", 2),), ("a", "b"),
                    meshes=(Mesh("source", (1,)),))
        sol = mesh_solve(c, power_law(2.0), 1.0)
        assert sol.input_voltage == pytest.approx((1.0 / 2.0) ** 2, rel=1e-12)

    def test_multi_term_law_has_no_phi(self):
        sol = mesh_solve(FIG_B1, Characteristic(((1.0, 1.0), (1.0, 2.0))), 1.0)
        assert sol.phi_meshes is None
        assert sol.input_voltage > 0.0

    def test_missing_basis_rejected(self):
        with pytest.raises(ValueError, match="no mesh basis"):
            mesh_solve(build_canonical("fig_a1"), power_law(1.0), 1.0)

    def test_missing_source_loop_rejected(self):
        c = Circuit((Branch("a", "b"),), ("a", "b"), meshes=(Mesh("m1", (1,)),))
        with pytest.raises(ValueError, match="source"):
            mesh_solve(c, power_law(1.0), 1.0)

    def test_overfull_branch_membership_rejected(self):
        basis = (Mesh("source", (1,)), Mesh("m1", (1, 2)), Mesh("m2", (1, 3)))
        with pytest.raises(ValueError, match="does not close"):
            mesh_solve(FIG_B1, power_law(1.0), 1.0, basis=basis)

    @pytest.mark.parametrize("basis, match", [
        # open "loop": returned input_voltage 1.0 where the answer is 0.625
        ((SOURCE, Mesh("m1", (2, 3)), Mesh("m2", (-3, 4, 5))), "'m1' does not close"),
        # closed but incomplete: returned 0.6667
        ((SOURCE, M1), "2 independent loops"),
        # dependent extra loop m3 = m1 + m2
        ((SOURCE, M1, M2, Mesh("m3", (-1, 2, 4, 5))), "2 independent loops"),
        # right count, but m2 = -m1
        ((SOURCE, M1, Mesh("m2", (1, -2, -3))), "not independent"),
        ((Mesh("source", (-1,)), M1, M2), "source loop is not a path"),
    ], ids=["open", "incomplete", "dependent-extra", "dependent", "reversed-source"])
    def test_invalid_basis_rejected(self, basis, match):
        with pytest.raises(ValueError, match=match):
            mesh_solve(FIG_B1, power_law(1.0), 1.0, basis=basis)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_branch_in_three_loops_accepted(self, alpha):
        # branch 2 (a-o) lies on the source path and in both loops
        basis = (Mesh("source", (2, 3)), M1, Mesh("m2", (-1, 2, 4, 5)))
        sol = mesh_solve(FIG_B1, power_law(alpha), 1.0, basis=basis)
        assert sol.phi_meshes == pytest.approx(phi_b6_closed_form(alpha), rel=1e-9)

    def test_invalid_circuit_rejected(self):
        c = Circuit((Branch("a", "b"), Branch("a", "a")), ("a", "b"),
                    meshes=(Mesh("source", (1,)), Mesh("m1", (2,))))
        with pytest.raises(ValueError, match="self-loop"):
            mesh_solve(c, power_law(1.0), 1.0)

    def test_index_out_of_range_rejected(self):
        basis = (Mesh("source", (9,)),)
        with pytest.raises(ValueError, match="references branch 9"):
            mesh_solve(FIG_B1, power_law(1.0), 1.0, basis=basis)

    def test_index_zero_rejected(self):
        basis = (Mesh("source", (1,)), Mesh("m1", (-1, 2, 0)), M2)
        with pytest.raises(ValueError, match="references branch 0"):
            mesh_solve(FIG_B1, power_law(1.0), 1.0, basis=basis)

    @pytest.mark.parametrize("alpha", [0.5, 3.0])
    def test_branch_listed_twice_counts_once_net(self, alpha):
        # a face that runs its first edge forward twice and back once is the
        # same loop; on a multi-block network too
        c = square_grid(20)
        first = c.meshes[1]
        twice = Mesh(first.name, first.branches[:1] * 2 + (-first.branches[0],) + first.branches[1:])
        reworded = Circuit(c.branches, c.input_port, meshes=(c.meshes[0], twice) + c.meshes[2:])
        plain, repeated = (_loop_network(x, x.meshes)[0] for x in (c, reworded))
        assert len(repeated.blocks) > 1
        np.testing.assert_array_equal(repeated.gram(repeated.w).diagonal(),
                                      plain.gram(plain.w).diagonal())
        assert mesh_solve(reworded, power_law(alpha), 1.0) == mesh_solve(c, power_law(alpha), 1.0)

    def test_nonpositive_drive_rejected(self):
        with pytest.raises(ValueError):
            mesh_solve(FIG_B1, power_law(1.0), 0.0)
