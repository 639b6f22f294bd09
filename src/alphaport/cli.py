"""Command-line front end.

Subcommands::

    analyze     exact DC solve of a netlist or canonical circuit
    alpha-test  power-law profiles phi(alpha), d_k(alpha)
    superpose   exact F vs structural-superposition estimate G
    ladder      infinite-ladder fixed points (alpha, lambda, phi)
    mesh        mesh-current (resistive) solve with an explicit loop basis
    sweep       superposition reports over a drive grid, or profiles over
                an exponent grid, as a CSV table; a drive sweep solves each
                term's profile once and warm-starts along the ascending grid

Output is deterministic: repeated runs with identical inputs are
byte-identical; ``--meta`` adds a timestamp block separately.  Numbers are
printed with 9 significant digits.  Exit codes: 0 success (including
in-body diagnostic verdicts), 1 parse/validation/usage error, 2 solver
failure.  The environment variable ALPHAPORT_MAX_ITERS overrides the
Newton iteration cap of each continuation step (network.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .alpha import alpha_solve, d_sweep
from .characteristic import Characteristic, parse_characteristic
from .circuit import CANONICAL_NAMES, Circuit, NetlistError, build_canonical, parse_netlist, validate
from .ladder import ladder_fixed_point
from .mesh import mesh_solve
from .solver import SolverError, solve_dc
from .superposition import report, report_grid

__all__ = ["main", "entry"]


class _CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for solver
    # failures and route usage problems through exit code 1 instead.
    def error(self, message):
        raise _CliError(f"{self.prog}: {message}", 1)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _round9(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _emit_json(payload: dict | list, meta: bool) -> str:
    if meta:
        stamp = {"generated_at": datetime.now(timezone.utc).isoformat()}
        if isinstance(payload, dict):
            payload = {**payload, "meta": stamp}
        else:
            payload = {"rows": payload, "meta": stamp}
    return json.dumps(_round9(payload), indent=2)


def _emit_csv(header: list[str], rows: list[list], meta: bool) -> str:
    lines = []
    if meta:
        lines.append("# generated_at " + datetime.now(timezone.utc).isoformat())
    lines.append("# " + ",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines)


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if not text:
        raise _CliError("empty grid", 1)
    try:
        if text.startswith(("lin:", "log:")):
            kind, lo, hi, n = text.split(":")
            lo, hi, n = float(lo), float(hi), int(n)
            if n < 1:
                raise ValueError
            space = np.linspace if kind == "lin" else np.geomspace
            return [float(v) for v in space(lo, hi, n)]
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise _CliError(
            f"bad grid {text!r}: use v1,v2,... or lin:lo:hi:n or log:lo:hi:n", 1) from None
    if not values:
        raise _CliError("empty grid", 1)
    return values


def _load_circuit(args) -> Circuit:
    if getattr(args, "netlist", None) and getattr(args, "canonical", None):
        raise _CliError("give either --netlist or --canonical, not both", 1)
    if getattr(args, "netlist", None):
        try:
            text = Path(args.netlist).read_text(encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot read netlist: {exc}", 1) from None
        c = parse_netlist(text)
    elif getattr(args, "canonical", None):
        c = build_canonical(args.canonical, sections=args.sections, central=args.central)
    else:
        raise _CliError("a circuit is required: --netlist PATH or --canonical NAME", 1)
    rep = validate(c)
    for severity, message in rep.issues:
        if severity == "warning":
            print(f"warning: {message}", file=sys.stderr)
    if not rep.ok:
        raise _CliError("invalid circuit: " + "; ".join(rep.errors()), 1)
    return c


def _load_characteristic(args, c: Circuit | None = None) -> Characteristic:
    text = getattr(args, "f", None)
    if text is None and c is not None:
        text = c.f_text
    if text is None:
        raise _CliError("a characteristic is required: --f D:alpha[,D:alpha...]", 1)
    return parse_characteristic(text)


def _add_circuit_options(p: argparse.ArgumentParser):
    p.add_argument("--netlist", help="path to a netlist file")
    p.add_argument("--canonical", choices=CANONICAL_NAMES, help="built-in topology")
    p.add_argument("--sections", type=int, default=None, help="ladder section count")
    p.add_argument("--central", action="store_true", help="ladder: add a direct a-b conductor")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument("--meta", action="store_true", help="add a timestamp block to the output")


def _cmd_analyze(args) -> str:
    c = _load_circuit(args)
    f = _load_characteristic(args, c)
    sol = solve_dc(c, f, args.vin)
    nodes = sorted(sol.potentials)
    if args.format == "json":
        payload = {
            "v_in": sol.v_in,
            "input_current": sol.input_current,
            "residual_norm": sol.residual_norm,
            "iterations": sol.iterations,
            "potentials": {n: sol.potentials[n] for n in nodes},
            "branches": [
                {"n1": b.n1, "n2": b.n2, "w": b.w, "voltage": v, "current": i}
                for b, v, i in zip(sol.branches, sol.branch_voltages, sol.branch_currents)
            ],
        }
        return _emit_json(payload, args.meta)
    if args.format == "csv":
        header = ["v_in", "input_current"] + [f"v_{n}" for n in nodes]
        row = [sol.v_in, sol.input_current] + [sol.potentials[n] for n in nodes]
        return _emit_csv(header, [row], args.meta)
    lines = [f"v_in           {_fmt(sol.v_in)}",
             f"input_current  {_fmt(sol.input_current)}",
             f"iterations     {sol.iterations}",
             f"residual_norm  {_fmt(sol.residual_norm)}",
             "potentials:"]
    lines += [f"  {n:<8} {_fmt(sol.potentials[n])}" for n in nodes]
    lines.append("branches (oriented, voltage, current):")
    lines += [f"  {b.n1}->{b.n2} w={b.w} v={_fmt(v)} i={_fmt(i)}"
              for b, v, i in zip(sol.branches, sol.branch_voltages, sol.branch_currents)]
    return "\n".join(lines)


def _cmd_alpha_test(args) -> str:
    c = _load_circuit(args)
    if (args.alpha is None) == (args.alphas is None):
        raise _CliError("give exactly one of --alpha or --alphas", 1)
    if args.alpha is not None:
        prof = alpha_solve(c, args.alpha)
        nodes = sorted(prof.d)
        if args.format == "json":
            return _emit_json({"alpha": prof.alpha, "phi": prof.phi,
                               "d": {n: prof.d[n] for n in nodes}}, args.meta)
        if args.format == "csv":
            header = ["alpha", "phi"] + [f"d_{n}" for n in nodes]
            return _emit_csv(header, [[prof.alpha, prof.phi] + [prof.d[n] for n in nodes]],
                             args.meta)
        lines = [f"alpha  {_fmt(prof.alpha)}", f"phi    {_fmt(prof.phi)}", "d:"]
        lines += [f"  {n:<8} {_fmt(prof.d[n])}" for n in nodes]
        return "\n".join(lines)

    grid = _parse_grid(args.alphas)
    sweep = d_sweep(c, grid)
    nodes = sorted(sweep.d)
    if args.format == "json":
        return _emit_json({
            "alphas": list(sweep.alphas),
            "phi": list(sweep.phis),
            "d": {n: list(sweep.d[n]) for n in nodes},
            "monotonicity": {n: sweep.verdicts[n] for n in nodes},
        }, args.meta)
    header = ["alpha", "phi"] + [f"d_{n}" for n in nodes]
    rows = [[a, sweep.phis[i]] + [sweep.d[n][i] for n in nodes]
            for i, a in enumerate(sweep.alphas)]
    out = _emit_csv(header, rows, args.meta)
    verdicts = "\n".join(f"# monotonicity {n}={sweep.verdicts[n]}" for n in nodes)
    if args.format == "csv":
        return out + "\n" + verdicts
    return out.replace(",", "\t") + "\n" + verdicts


def _cmd_superpose(args) -> str:
    c = _load_circuit(args)
    f = _load_characteristic(args, c)
    rep = report(c, f, args.vin)
    if args.format == "json":
        return _emit_json(rep.as_dict(), args.meta)
    header = ["v_in", "F", "G", "eta", "eta_nonlinear", "nonlinearity_degree", "bound"]
    row = [rep.v_in, rep.F, rep.G, rep.eta, rep.eta_nonlinear,
           rep.nonlinearity_degree, rep.bound]
    if args.format == "csv":
        return _emit_csv(header, [row], args.meta)
    lines = [f"{k:<20} {_fmt(v)}" for k, v in zip(header, row)]
    lines.append("per-term (alpha, D, phi, value):")
    lines += [f"  {_fmt(t.alpha)}  {_fmt(t.coefficient)}  {_fmt(t.phi)}  {_fmt(t.value)}"
              for t in rep.per_term]
    return "\n".join(lines)


def _cmd_ladder(args) -> str:
    if (args.alpha is None) == (args.alphas is None):
        raise _CliError("give exactly one of --alpha or --alphas", 1)
    grid = [args.alpha] if args.alpha is not None else _parse_grid(args.alphas)
    results = [ladder_fixed_point(a) for a in grid]
    if args.format == "json":
        return _emit_json([{"alpha": r.alpha, "lambda": r.lambda_, "phi": r.phi}
                           for r in results], args.meta)
    rows = [[r.alpha, r.lambda_, r.phi] for r in results]
    out = _emit_csv(["alpha", "lambda", "phi"], rows, args.meta)
    if args.format == "text":
        return out.replace(",", "\t")
    return out


def _cmd_mesh(args) -> str:
    c = _load_circuit(args)
    f = _load_characteristic(args, c)
    sol = mesh_solve(c, f, args.iin)
    names = sorted(sol.mesh_currents)
    if args.format == "json":
        return _emit_json({
            "i_in": sol.i_in,
            "input_voltage": sol.input_voltage,
            "phi_meshes": sol.phi_meshes,
            "mesh_currents": {n: sol.mesh_currents[n] for n in names},
        }, args.meta)
    header = ["i_in", "input_voltage", "phi_meshes"] + [f"i_{n}" for n in names]
    row = [sol.i_in, sol.input_voltage, sol.phi_meshes] + [sol.mesh_currents[n] for n in names]
    if args.format == "csv":
        return _emit_csv(header, [row], args.meta)
    lines = [f"i_in           {_fmt(sol.i_in)}",
             f"input_voltage  {_fmt(sol.input_voltage)}",
             f"phi_meshes     {_fmt(sol.phi_meshes)}",
             "mesh currents:"]
    lines += [f"  {n:<8} {_fmt(sol.mesh_currents[n])}" for n in names]
    return "\n".join(lines)


def _cmd_sweep(args) -> str:
    c = _load_circuit(args)
    if (args.vgrid is None) == (args.alphas is None):
        raise _CliError("give exactly one of --vgrid or --alphas", 1)

    if args.alphas is not None:
        grid = _parse_grid(args.alphas)
        sweep = d_sweep(c, grid)
        nodes = sorted(sweep.d)
        header = ["alpha", "phi"] + [f"d_{n}" for n in nodes]
        rows = [[a, sweep.phis[i]] + [sweep.d[n][i] for n in nodes]
                for i, a in enumerate(sweep.alphas)]
        if args.format == "json":
            return _emit_json([dict(zip(header, row)) for row in rows], args.meta)
        return _emit_csv(header, rows, args.meta)

    f = _load_characteristic(args, c)
    grid = _parse_grid(args.vgrid)
    internal = c.internal_nodes()
    header = ["v_in", "F", "G", "eta", "eta_nonlinear", "nonlinearity_degree", "bound"]
    header += [f"d_{n}" for n in internal]
    rows = [[rep.v_in, rep.F, rep.G, rep.eta, rep.eta_nonlinear, rep.nonlinearity_degree,
             rep.bound] + [sol.potentials[n] / rep.v_in for n in internal]
            for sol, rep in report_grid(c, f, grid)]
    if args.format == "json":
        return _emit_json([dict(zip(header, row)) for row in rows], args.meta)
    return _emit_csv(header, rows, args.meta)


def _build_parser() -> _Parser:
    parser = _Parser(prog="alphaport",
                     description="DC analysis of one-ports built from identical "
                                 "power-law conductors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="exact DC solve", parents=[], add_help=True)
    _add_circuit_options(p)
    p.add_argument("--f", help="characteristic D:alpha[,D:alpha...]")
    p.add_argument("--vin", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("alpha-test", help="power-law profile phi(alpha), d_k")
    _add_circuit_options(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alphas", help="grid: a1,a2,... or lin:lo:hi:n or log:lo:hi:n")
    _add_common(p)
    p.set_defaults(func=_cmd_alpha_test)

    p = sub.add_parser("superpose", help="exact F vs superposition estimate G")
    _add_circuit_options(p)
    p.add_argument("--f", help="characteristic D:alpha[,D:alpha...]")
    p.add_argument("--vin", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_superpose)

    p = sub.add_parser("ladder", help="infinite-ladder fixed points")
    p.add_argument("--alpha", type=float)
    p.add_argument("--alphas", help="grid of exponents")
    _add_common(p)
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("mesh", help="mesh-current (resistive) solve")
    _add_circuit_options(p)
    p.add_argument("--f", help="resistive characteristic D:alpha[,D:alpha...]")
    p.add_argument("--iin", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("sweep", help="CSV table over a drive or exponent grid")
    _add_circuit_options(p)
    p.add_argument("--f", help="characteristic D:alpha[,D:alpha...]")
    p.add_argument("--vgrid", help="drive grid: v1,v2,... or lin:lo:hi:n or log:lo:hi:n")
    p.add_argument("--alphas", help="exponent grid")
    p.add_argument("--format", choices=("json", "csv", "text"), default="csv")
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        print(args.func(args))
        return 0
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NetlistError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
