import json
import os
import subprocess
import sys
from datetime import datetime
from importlib import resources
from pathlib import Path

import pytest

import alphaport
from alphaport import Characteristic, build_canonical, cli, network, report, solve_dc
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

        monkeypatch.setattr(network, "damped_newton", counting_newton)
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

    @pytest.mark.parametrize("argv", [
        ("analyze", "--canonical", "fig_a1", "--f", "1:3", "--vin", "inf"),
        ("mesh", "--canonical", "fig_b1", "--f", "1:1", "--iin", "inf"),
        ("analyze", "--canonical", "fig_a1", "--f", "1:1,1:3", "--vin", "1e150"),
        ("analyze", "--canonical", "fig_a1", "--f", "1:64", "--vin", "1e-6"),
        ("analyze", "--canonical", "fig_a1", "--f", "1:5", "--vin", "1e-60"),
        ("superpose", "--canonical", "fig_a1", "--f", "1:64", "--vin", "1e-6"),
        ("mesh", "--canonical", "fig_b1", "--f", "1:64", "--iin", "1e-6"),
    ], ids=["analyze-inf", "mesh-inf", "analyze-overflow", "analyze-v64-underflow",
            "analyze-v5-below-tiny", "superpose-underflow", "mesh-underflow"])
    def test_unresolvable_drive_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and ("too large" in err or "too small" in err)

    @pytest.mark.parametrize("cap", ["-3", "0", "2.5"])
    def test_iteration_cap_must_be_a_positive_integer(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("ALPHAPORT_MAX_ITERS", cap)
        code, _, err = run_cli(capsys, "analyze", "--canonical", "fig_a1",
                               "--f", "1:3", "--vin", "1")
        assert code == 1 and "ALPHAPORT_MAX_ITERS must be a positive integer" in err

    def test_iteration_cap_env_override_works_when_ample(self, capsys, monkeypatch):
        monkeypatch.setenv("ALPHAPORT_MAX_ITERS", "150")
        code, out, _ = run_cli(capsys, "superpose", "--canonical", "fig_a1",
                               "--f", "1:1,1:3", "--vin", "1", "--format", "csv")
        assert code == 0


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["analyze", "--canonical", "fig_a1", "--f", "1:1,1:3", "--vin", "1", "--format", "json"]
    src = Path(alphaport.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "alphaport", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert main(argv) == 0
    assert run.stdout == capsys.readouterr().out


class TestByteExactFormats:
    """Whole outputs of the csv and text layouts, on values with closed forms:
    fig4 at alpha = 2 (phi = 11/9, d_c = 2/3), fig_a1 (phi = 8/5 at alpha = 1,
    d_x = sqrt(5) - 2 at alpha = 2), fig_b1 under the linear law (phi = 5/8,
    m1 = 3/8) and the ladder at alpha = 1 (lambda = 2 + sqrt(3))."""

    FIG4_ALPHA2 = "2,1.22222222,1,0,0.666666667,0.333333333,0.666666667,0.333333333"

    @pytest.mark.parametrize("argv, expected", [
        (("alpha-test", "--canonical", "fig4", "--alpha", "2", "--format", "csv"),
         "# alpha,phi,d_a,d_b,d_c,d_d,d_e,d_f\n" + FIG4_ALPHA2 + "\n"),
        (("alpha-test", "--canonical", "fig4", "--alpha", "2", "--format", "text"),
         "alpha  2\nphi    1.22222222\nd:\n  a        1\n  b        0\n"
         "  c        0.666666667\n  d        0.333333333\n  e        0.666666667\n"
         "  f        0.333333333\n"),
        (("alpha-test", "--canonical", "fig_a1", "--alphas", "1,2", "--format", "csv"),
         "# alpha,phi,d_a,d_b,d_o,d_x\n1,1.6,1,0,0.4,0.2\n"
         "2,1.27864045,1,0,0.472135955,0.236067977\n"
         "# monotonicity a=nondecreasing\n# monotonicity b=nondecreasing\n"
         "# monotonicity o=nondecreasing\n# monotonicity x=nondecreasing\n"),
        (("alpha-test", "--canonical", "fig4", "--alphas", "1,2", "--format", "text"),
         "# alpha\tphi\td_a\td_b\td_c\td_d\td_e\td_f\n"
         "1\t1.66666667\t1\t0\t0.666666667\t0.333333333\t0.666666667\t0.333333333\n"
         + FIG4_ALPHA2.replace(",", "\t") + "\n"
         + "".join(f"# monotonicity {n}=nondecreasing\n" for n in "abcdef")),
        (("analyze", "--canonical", "fig4", "--f", "1:1", "--vin", "2", "--format", "csv"),
         "# v_in,input_current,v_a,v_b,v_c,v_d,v_e,v_f\n"
         "2,3.33333333,2,0,1.33333333,0.666666667,1.33333333,0.666666667\n"),
        (("mesh", "--canonical", "fig_b1", "--f", "1:1", "--iin", "1", "--format", "csv"),
         "# i_in,input_voltage,phi_meshes,i_m1,i_m2\n1,0.625,0.625,0.375,0.125\n"),
        (("mesh", "--canonical", "fig_b1", "--f", "1:1", "--iin", "1", "--format", "text"),
         "i_in           1\ninput_voltage  0.625\nphi_meshes     0.625\nmesh currents:\n"
         "  m1       0.375\n  m2       0.125\n"),
        (("mesh", "--canonical", "fig_b1", "--f", "1:1,1:3", "--iin", "1", "--format", "csv"),
         "# i_in,input_voltage,phi_meshes,i_m1,i_m2\n1,0.782059072,,0.416552681,0.143649647\n"),
        (("mesh", "--canonical", "fig_b1", "--f", "1:1,1:3", "--iin", "1", "--format", "text"),
         "i_in           1\ninput_voltage  0.782059072\nphi_meshes     \nmesh currents:\n"
         "  m1       0.416552681\n  m2       0.143649647\n"),
        (("ladder", "--alphas", "1,2", "--format", "text"),
         "# alpha\tlambda\tphi\n1\t3.73205081\t0.366025404\n2\t3.11200974\t0.115146289\n"),
    ], ids=["alpha-csv", "alpha-text", "alphas-csv", "alphas-text", "analyze-csv",
            "mesh-csv", "mesh-text", "mesh-two-term-csv", "mesh-two-term-text", "ladder-text"])
    def test_whole_output(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == expected

    def test_drive_sweep_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--canonical", "fig4", "--f", "1:1",
                               "--vgrid", "1,2", "--format", "json")
        assert code == 0
        thirds = {"d_c": 0.666666667, "d_d": 0.333333333, "d_e": 0.666666667,
                  "d_f": 0.333333333}
        rows = [{"v_in": v, "F": F, "G": F, "eta": 0.0, "eta_nonlinear": 0.0,
                 "nonlinearity_degree": 0.0, "bound": None, **thirds}
                for v, F in ((1.0, 1.66666667), (2.0, 3.33333333))]
        assert out == json.dumps(rows, indent=2) + "\n"

    def test_exponent_sweep_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--canonical", "fig4", "--alphas", "1,2",
                               "--format", "json")
        assert code == 0
        d = {"d_a": 1.0, "d_b": 0.0, "d_c": 0.666666667, "d_d": 0.333333333,
             "d_e": 0.666666667, "d_f": 0.333333333}
        rows = [{"alpha": 1.0, "phi": 1.66666667, **d}, {"alpha": 2.0, "phi": 1.22222222, **d}]
        assert out == json.dumps(rows, indent=2) + "\n"

    def test_csv_meta_is_one_first_line(self, capsys):
        argv = ("alpha-test", "--canonical", "fig4", "--alpha", "2", "--format", "csv")
        _, plain, _ = run_cli(capsys, *argv)
        code, stamped, _ = run_cli(capsys, *argv, "--meta")
        assert code == 0
        first, rest = stamped.split("\n", 1)
        stamp = first.removeprefix("# generated_at ")
        assert first != stamp and datetime.fromisoformat(stamp).tzinfo is not None
        assert rest == plain


def run_fresh(*argv):
    """``python -m alphaport`` in a new process: (exit code, stdout, stderr)."""
    src = Path(alphaport.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "alphaport", *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    return run.returncode, run.stdout, run.stderr


class TestSharedParser:
    def test_main_does_not_build_a_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        code, out, _ = run_cli(capsys, "ladder", "--alpha", "1", "--format", "csv")
        assert code == 0 and out.endswith("1,3.73205081,0.366025404\n")

    def test_consecutive_calls_equal_fresh_processes(self, capsys, tmp_path):
        netlist = tmp_path / "bridge.net"
        netlist.write_text(".input a b\n.f 1:1,1:3\n.branch a b\n.branch a o\n"
                           ".branch o b\n.branch o x\n.branch x b\n")
        calls = [
            ("sweep", "--canonical", "fig_a1", "--f", "1:1,1:3", "--vgrid", "0.5,2"),
            ("analyze", "--canonical", "fig_a1", "--f", "1:1,1:3", "--vin", "0.5"),
            ("alpha-test", "--canonical", "ladder", "--sections", "2", "--central",
             "--alpha", "2"),
            ("alpha-test", "--canonical", "ladder", "--sections", "2", "--alpha", "2"),
            ("superpose", "--netlist", str(netlist), "--f", "1:2", "--vin", "1"),
            ("superpose", "--netlist", str(netlist), "--vin", "1"),
            ("ladder", "--alpha", "1", "--alphas", "1,2"),
            ("superpose", "--netlist", str(netlist), "--vin", "1", "--format", "csv"),
        ]
        in_process = [run_cli(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in in_process] == [0] * 6 + [1, 0]
        assert in_process == [run_fresh(*argv) for argv in calls]


@pytest.mark.parametrize("argv, env, code", [
    (["ladder", "--alpha", "1"], None, 0),
    (["ladder", "--format", "csv"], None, 1),
    (["superpose", "--canonical", "fig_a1", "--f", "1:1,1:3", "--vin", "1"], "1", 2),
], ids=["ok", "usage", "solver"])
def test_console_entry_exits_with_main_code(capsys, monkeypatch, argv, env, code):
    if env is not None:
        monkeypatch.setenv("ALPHAPORT_MAX_ITERS", env)
    monkeypatch.setattr(sys, "argv", ["alphaport", *argv])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == code


def test_mesh_solver_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("ALPHAPORT_MAX_ITERS", "1")
    code, out, err = run_cli(capsys, "mesh", "--canonical", "fig_b1", "--f", "1:3",
                             "--iin", "1")
    assert (code, out) == (2, "")
    assert err.startswith("solver failure: ")
