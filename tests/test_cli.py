import json
from importlib import resources

import pytest

from alphaport import Characteristic, build_canonical, report, solve_dc, solver
from alphaport._newton import damped_newton
from alphaport.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSuperposeCommand:
    def test_reference_bridge_json(self, capsys):
        code, out, _ = run_cli(capsys, "superpose", "--canonical", "fig_a1",
                               "--f", "1:1,1:3", "--vin", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["F"] == pytest.approx(2.7452378, abs=1e-6)
        assert payload["G"] == pytest.approx(2.73252, abs=5e-4)
        assert payload["eta"] == pytest.approx(0.0046, abs=3e-4)
        assert [t["alpha"] for t in payload["per_term"]] == [1.0, 3.0]

    def test_json_validates_against_shipped_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        _, out, _ = run_cli(capsys, "superpose", "--canonical", "fig_a1",
                            "--f", "1:1,1:3", "--vin", "1", "--format", "json")
        schema_text = (resources.files("alphaport") / "schemas"
                       / "superposition_report.schema.json").read_text()
        jsonschema.validate(json.loads(out), json.loads(schema_text))

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(capsys, "superpose", "--canonical", "fig_a1",
                               "--f", "1:1,1:3", "--vin", "1", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("# v_in,F,G,eta")
        fields = row.split(",")
        assert float(fields[1]) == pytest.approx(2.7452378, abs=1e-6)

    def test_output_is_deterministic(self, capsys):
        args = ("superpose", "--canonical", "fig_a1", "--f", "1:1,1:3",
                "--vin", "1", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_meta_flag_adds_timestamp_separately(self, capsys):
        _, plain, _ = run_cli(capsys, "superpose", "--canonical", "fig_a1",
                              "--f", "1:1,1:3", "--vin", "1", "--format", "json")
        _, stamped, _ = run_cli(capsys, "superpose", "--canonical", "fig_a1",
                                "--f", "1:1,1:3", "--vin", "1", "--format", "json",
                                "--meta")
        plain_payload = json.loads(plain)
        stamped_payload = json.loads(stamped)
        meta = stamped_payload.pop("meta")
        assert "generated_at" in meta
        assert stamped_payload == plain_payload


class TestLadderCommand:
    def test_cubic_row(self, capsys):
        code, out, _ = run_cli(capsys, "ladder", "--alpha", "3", "--format", "csv")
        assert code == 0
        row = out.strip().splitlines()[-1]
        assert row == "3,3.02468888,0.0374923599"

    def test_alpha_grid(self, capsys):
        code, out, _ = run_cli(capsys, "ladder", "--alphas", "1,2,3", "--format", "json")
        rows = json.loads(out)
        assert [r["alpha"] for r in rows] == [1.0, 2.0, 3.0]
        assert rows[0]["phi"] == pytest.approx(0.366025404, abs=1e-8)

    def test_requires_exactly_one_grid(self, capsys):
        code, _, err = run_cli(capsys, "ladder", "--format", "csv")
        assert code == 1 and "exactly one" in err


class TestAlphaTestCommand:
    def test_symmetric_bridge_quadratic(self, capsys):
        code, out, _ = run_cli(capsys, "alpha-test", "--canonical", "fig4",
                               "--alpha", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"] == pytest.approx(1.2222222, abs=1e-6)
        assert payload["d"]["c"] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_grid_reports_monotonicity(self, capsys):
        code, out, _ = run_cli(capsys, "alpha-test", "--canonical", "fig_a1",
                               "--alphas", "1,2,3", "--format", "json")
        payload = json.loads(out)
        assert payload["monotonicity"]["o"] == "nondecreasing"
        assert payload["phi"][0] == pytest.approx(1.6, abs=1e-9)


class TestAnalyzeAndMesh:
    def test_analyze_netlist_with_embedded_law(self, capsys, tmp_path):
        netlist = tmp_path / "bridge.net"
        netlist.write_text(".input a b\n.f 1:1,1:3\n.branch a b\n.branch a o\n"
                           ".branch o b\n.branch o x\n.branch x b\n")
        code, out, _ = run_cli(capsys, "analyze", "--netlist", str(netlist),
                               "--vin", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["input_current"] == pytest.approx(2.7452378, abs=1e-6)
        assert payload["potentials"]["o"] == pytest.approx(0.4350635, abs=1e-6)

    def test_mesh_linear_reference(self, capsys):
        code, out, _ = run_cli(capsys, "mesh", "--canonical", "fig_b1",
                               "--f", "1:1", "--iin", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["phi_meshes"] == pytest.approx(0.625, abs=1e-9)
        assert payload["mesh_currents"]["m1"] == pytest.approx(0.375, abs=1e-9)


class TestSweepCommand:
    def test_drive_sweep_has_monotone_divider_column(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--canonical", "fig_a1",
                               "--f", "1:1,1:3", "--vgrid", "log:0.01:10:7")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].lstrip("# ").split(",")
        rows = [line.split(",") for line in lines[1:]]
        d_o = [float(r[header.index("d_o")]) for r in rows]
        assert all(b > a for a, b in zip(d_o, d_o[1:]))
        etas = [float(r[header.index("eta")]) for r in rows]
        assert max(etas) < 0.01

    def test_drive_sweep_rows_match_per_point_solves(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--canonical", "ladder", "--sections", "4",
                               "--f", "1:1,1:3", "--vgrid", "5,0.01,0.7")
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].lstrip("# ").split(",")
        c = build_canonical("ladder", sections=4)
        f = Characteristic(((1.0, 1.0), (1.0, 3.0)))
        assert [float(line.split(",")[0]) for line in lines[1:]] == [5.0, 0.01, 0.7]
        for line in lines[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            v = row["v_in"]
            rep, sol = report(c, f, v), solve_dc(c, f, v)
            # printed to 9 significant digits: one rounding step is 1e-8 relative
            expected = {"F": rep.F, "G": rep.G, "bound": rep.bound}
            expected.update({f"d_{n}": sol.potentials[n] / v for n in c.internal_nodes()})
            for key, value in expected.items():
                assert row[key] == pytest.approx(value, rel=1e-8, abs=1e-15), key

    def test_drive_sweep_solves_each_point_once_and_each_profile_once(self, capsys,
                                                                      monkeypatch):
        calls = []

        def counting_newton(*args, **kwargs):
            calls.append(1)
            return damped_newton(*args, **kwargs)

        monkeypatch.setattr(solver, "damped_newton", counting_newton)
        code, _, _ = run_cli(capsys, "sweep", "--canonical", "ladder", "--sections", "15",
                             "--f", "1:1,1:3", "--vgrid", "log:0.01:10:50")
        assert code == 0
        assert len(calls) == 50 + 2  # one exact solve per point, one profile per term

    def test_alpha_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--canonical", "fig4",
                               "--alphas", "1,2,4", "--format", "csv")
        assert code == 0
        rows = [line for line in out.strip().splitlines() if not line.startswith("#")]
        assert len(rows) == 3

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--canonical", "fig_a1",
                               "--f", "1:1,1:3", "--vgrid", "")
        assert code == 1 and "empty grid" in err


class TestExitCodes:
    def test_missing_circuit_source(self, capsys):
        code, _, err = run_cli(capsys, "superpose", "--f", "1:1", "--vin", "1")
        assert code == 1 and "circuit is required" in err

    def test_unreadable_netlist(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--netlist", "/nonexistent.net",
                               "--vin", "1", "--f", "1:1")
        assert code == 1 and "cannot read netlist" in err

    def test_broken_netlist_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text(".input a b\n.resistor a b\n")
        code, _, err = run_cli(capsys, "analyze", "--netlist", str(bad),
                               "--vin", "1", "--f", "1:1")
        assert code == 1 and "line 2" in err

    def test_invalid_circuit_rejected(self, capsys, tmp_path):
        disconnected = tmp_path / "disc.net"
        disconnected.write_text(".input a b\n.branch a x\n")
        code, _, err = run_cli(capsys, "analyze", "--netlist", str(disconnected),
                               "--vin", "1", "--f", "1:1")
        assert code == 1 and "invalid circuit" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "ladder", "--alpha", "1", "--bogus")
        assert code == 1

    def test_solver_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHAPORT_MAX_ITERS", "1")
        code, _, err = run_cli(capsys, "superpose", "--canonical", "fig_a1",
                               "--f", "1:1,1:3", "--vin", "1")
        assert code == 2 and "solver failure" in err

    def test_iteration_cap_env_override_works_when_ample(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHAPORT_MAX_ITERS", "150")
        code, out, _ = run_cli(capsys, "superpose", "--canonical", "fig_a1",
                               "--f", "1:1,1:3", "--vin", "1", "--format", "csv")
        assert code == 0
