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

The subcommands and their options are one table, ``_COMMANDS``, built once
into the parser that every ``main`` call shares.  Tables (``ladder``,
``sweep``, ``alpha-test --alphas``) print as JSON records, CSV, or in the
text format as tab-separated CSV (``sweep`` keeps its CSV); single results
print as JSON, one CSV row, or aligned ``key value`` lines and blocks.

Output is deterministic: repeated runs with identical inputs are
byte-identical; ``--meta`` adds a timestamp block separately.  Numbers are
printed with 9 significant digits.  Exit codes: 0 success (including
in-body diagnostic verdicts), 1 parse/validation/usage error, 2 solver
failure.  The environment variable ALPHAPORT_MAX_ITERS overrides the
Newton iteration cap of each continuation step and of the one restart of
an unconverged solve (network.py).
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
from .circuit import CANONICAL_NAMES, Circuit, build_canonical, parse_netlist, validate
from .ladder import ladder_fixed_point
from .mesh import mesh_solve
from .solver import SolverError, solve_dc
from .superposition import report, report_grid

__all__ = ["main", "entry"]


class _CliError(Exception):
    """A usage error: exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for solver
    # failures and route usage problems through exit code 1 instead.
    def error(self, message):
        raise _CliError(f"{self.prog}: {message}")


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


def _parse_grid(text: str) -> list[float]:
    text = text.strip()
    if not text:
        raise _CliError("empty grid")
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
            f"bad grid {text!r}: use v1,v2,... or lin:lo:hi:n or log:lo:hi:n") from None
    if not values:
        raise _CliError("empty grid")
    return values


def _load_circuit(args) -> Circuit:
    if args.netlist and args.canonical:
        raise _CliError("give either --netlist or --canonical, not both")
    if args.netlist:
        try:
            text = Path(args.netlist).read_text(encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot read netlist: {exc}") from None
        c = parse_netlist(text)
    elif args.canonical:
        c = build_canonical(args.canonical, sections=args.sections, central=args.central)
    else:
        raise _CliError("a circuit is required: --netlist PATH or --canonical NAME")
    rep = validate(c)
    for severity, message in rep.issues:
        if severity == "warning":
            print(f"warning: {message}", file=sys.stderr)
    if not rep.ok:
        raise _CliError("invalid circuit: " + "; ".join(rep.errors()))
    return c


def _load_characteristic(args, c: Circuit) -> Characteristic:
    text = c.f_text if args.f is None else args.f
    if text is None:
        raise _CliError("a characteristic is required: --f D:alpha[,D:alpha...]")
    return parse_characteristic(text)


def _one_of(args, first: str, second: str) -> None:
    if (getattr(args, first) is None) == (getattr(args, second) is None):
        raise _CliError(f"give exactly one of --{first} or --{second}")


def _table(header: list[str], rows: list[list], fmt: str, meta: bool) -> str:
    """Rows as JSON records, CSV, or ("text") tab-separated CSV."""
    if fmt == "json":
        return _emit_json([dict(zip(header, row)) for row in rows], meta)
    lines = ["# generated_at " + datetime.now(timezone.utc).isoformat()] if meta else []
    lines += ["# " + ",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    out = "\n".join(lines)
    return out.replace(",", "\t") if fmt == "text" else out


def _text(pairs: list[tuple], *blocks: tuple[str, list[str]]) -> str:
    """Aligned ``key  value`` lines, then each block as its title and lines."""
    width = max(len(key) for key, _ in pairs) + 2
    lines = [f"{key:<{width}}{_fmt(value)}" for key, value in pairs]
    for title, body in blocks:
        lines += [title, *body]
    return "\n".join(lines)


def _named(values: dict, names) -> list[str]:
    return [f"  {n:<8} {_fmt(values[n])}" for n in names]


def _profile_table(c: Circuit, text: str):
    """The exponent sweep of ``c`` over grid ``text``, its sorted nodes, and
    its table: one row (alpha, phi, d_k...) per exponent."""
    sweep = d_sweep(c, _parse_grid(text))
    nodes = sorted(sweep.d)
    header = ["alpha", "phi"] + [f"d_{n}" for n in nodes]
    rows = [[a, sweep.phis[i]] + [sweep.d[n][i] for n in nodes]
            for i, a in enumerate(sweep.alphas)]
    return sweep, nodes, header, rows


# the columns of a superposition report, named as its fields
_REPORT = ["v_in", "F", "G", "eta", "eta_nonlinear", "nonlinearity_degree", "bound"]


def _cmd_analyze(args) -> str:
    c = _load_circuit(args)
    sol = solve_dc(c, _load_characteristic(args, c), args.vin)
    nodes = sorted(sol.potentials)
    branches = list(zip(sol.branches, sol.branch_voltages, sol.branch_currents))
    if args.format == "json":
        return _emit_json({
            "v_in": sol.v_in, "input_current": sol.input_current,
            "residual_norm": sol.residual_norm, "iterations": sol.iterations,
            "potentials": {n: sol.potentials[n] for n in nodes},
            "branches": [{"n1": b.n1, "n2": b.n2, "w": b.w, "voltage": v, "current": i}
                         for b, v, i in branches]}, args.meta)
    if args.format == "csv":
        header = ["v_in", "input_current"] + [f"v_{n}" for n in nodes]
        row = [sol.v_in, sol.input_current] + [sol.potentials[n] for n in nodes]
        return _table(header, [row], "csv", args.meta)
    return _text([("v_in", sol.v_in), ("input_current", sol.input_current),
                  ("iterations", sol.iterations), ("residual_norm", sol.residual_norm)],
                 ("potentials:", _named(sol.potentials, nodes)),
                 ("branches (oriented, voltage, current):",
                  [f"  {b.n1}->{b.n2} w={b.w} v={_fmt(v)} i={_fmt(i)}" for b, v, i in branches]))


def _cmd_alpha_test(args) -> str:
    c = _load_circuit(args)
    _one_of(args, "alpha", "alphas")
    if args.alpha is not None:
        prof = alpha_solve(c, args.alpha)
        nodes = sorted(prof.d)
        if args.format == "json":
            return _emit_json({"alpha": prof.alpha, "phi": prof.phi,
                               "d": {n: prof.d[n] for n in nodes}}, args.meta)
        if args.format == "csv":
            header = ["alpha", "phi"] + [f"d_{n}" for n in nodes]
            return _table(header, [[prof.alpha, prof.phi] + [prof.d[n] for n in nodes]],
                          "csv", args.meta)
        return _text([("alpha", prof.alpha), ("phi", prof.phi)], ("d:", _named(prof.d, nodes)))

    sweep, nodes, header, rows = _profile_table(c, args.alphas)
    if args.format == "json":
        return _emit_json({"alphas": list(sweep.alphas), "phi": list(sweep.phis),
                           "d": {n: list(sweep.d[n]) for n in nodes},
                           "monotonicity": {n: sweep.verdicts[n] for n in nodes}}, args.meta)
    return "\n".join([_table(header, rows, args.format, args.meta)]
                     + [f"# monotonicity {n}={sweep.verdicts[n]}" for n in nodes])


def _cmd_superpose(args) -> str:
    c = _load_circuit(args)
    rep = report(c, _load_characteristic(args, c), args.vin)
    if args.format == "json":
        return _emit_json(rep.as_dict(), args.meta)
    row = [getattr(rep, key) for key in _REPORT]
    if args.format == "csv":
        return _table(_REPORT, [row], "csv", args.meta)
    return _text(list(zip(_REPORT, row)),
                 ("per-term (alpha, D, phi, value):",
                  [f"  {_fmt(t.alpha)}  {_fmt(t.coefficient)}  {_fmt(t.phi)}  {_fmt(t.value)}"
                   for t in rep.per_term]))


def _cmd_ladder(args) -> str:
    _one_of(args, "alpha", "alphas")
    grid = [args.alpha] if args.alpha is not None else _parse_grid(args.alphas)
    rows = [[r.alpha, r.lambda_, r.phi] for r in map(ladder_fixed_point, grid)]
    return _table(["alpha", "lambda", "phi"], rows, args.format, args.meta)


def _cmd_mesh(args) -> str:
    c = _load_circuit(args)
    sol = mesh_solve(c, _load_characteristic(args, c), args.iin)
    names = sorted(sol.mesh_currents)
    if args.format == "json":
        return _emit_json({"i_in": sol.i_in, "input_voltage": sol.input_voltage,
                           "phi_meshes": sol.phi_meshes,
                           "mesh_currents": {n: sol.mesh_currents[n] for n in names}}, args.meta)
    if args.format == "csv":
        header = ["i_in", "input_voltage", "phi_meshes"] + [f"i_{n}" for n in names]
        row = [sol.i_in, sol.input_voltage, sol.phi_meshes] + [sol.mesh_currents[n] for n in names]
        return _table(header, [row], "csv", args.meta)
    return _text([("i_in", sol.i_in), ("input_voltage", sol.input_voltage),
                  ("phi_meshes", sol.phi_meshes)],
                 ("mesh currents:", _named(sol.mesh_currents, names)))


def _cmd_sweep(args) -> str:
    c = _load_circuit(args)
    _one_of(args, "vgrid", "alphas")
    # a sweep's text format is its CSV
    fmt = "json" if args.format == "json" else "csv"
    if args.alphas is not None:
        _, _, header, rows = _profile_table(c, args.alphas)
        return _table(header, rows, fmt, args.meta)
    f = _load_characteristic(args, c)
    grid = _parse_grid(args.vgrid)
    internal = c.internal_nodes()
    header = _REPORT + [f"d_{n}" for n in internal]
    rows = [[getattr(rep, key) for key in _REPORT]
            + [sol.potentials[n] / rep.v_in for n in internal]
            for sol, rep in report_grid(c, f, grid)]
    return _table(header, rows, fmt, args.meta)


_CIRCUIT = (
    ("--netlist", {"help": "path to a netlist file"}),
    ("--canonical", {"choices": CANONICAL_NAMES, "help": "built-in topology"}),
    ("--sections", {"type": int, "default": None, "help": "ladder section count"}),
    ("--central", {"action": "store_true", "help": "ladder: add a direct a-b conductor"}),
)
_LAW = ("--f", {"help": "characteristic D:alpha[,D:alpha...]"})
_VIN = ("--vin", {"type": float, "required": True})
_ALPHA = ("--alpha", {"type": float})

# name: (help, handler, default --format, options before --format and --meta)
_COMMANDS = {
    "analyze": ("exact DC solve", _cmd_analyze, "text", (*_CIRCUIT, _LAW, _VIN)),
    "alpha-test": ("power-law profile phi(alpha), d_k", _cmd_alpha_test, "text", (
        *_CIRCUIT, _ALPHA,
        ("--alphas", {"help": "grid: a1,a2,... or lin:lo:hi:n or log:lo:hi:n"}))),
    "superpose": ("exact F vs superposition estimate G", _cmd_superpose, "text",
                  (*_CIRCUIT, _LAW, _VIN)),
    "ladder": ("infinite-ladder fixed points", _cmd_ladder, "text",
               (_ALPHA, ("--alphas", {"help": "grid of exponents"}))),
    "mesh": ("mesh-current (resistive) solve", _cmd_mesh, "text", (
        *_CIRCUIT, ("--f", {"help": "resistive characteristic D:alpha[,D:alpha...]"}),
        ("--iin", {"type": float, "required": True}))),
    "sweep": ("CSV table over a drive or exponent grid", _cmd_sweep, "csv", (
        *_CIRCUIT, _LAW,
        ("--vgrid", {"help": "drive grid: v1,v2,... or lin:lo:hi:n or log:lo:hi:n"}),
        ("--alphas", {"help": "exponent grid"}))),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="alphaport",
                     description="DC analysis of one-ports built from identical "
                                 "power-law conductors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, default_format, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("json", "csv", "text"), default=default_format)
        p.add_argument("--meta", action="store_true", help="add a timestamp block to the output")
        p.set_defaults(func=handler)
    return parser


# parse_args leaves the parser as it found it, so one serves every call
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        print(args.func(args))
        return 0
    except (_CliError, ValueError) as exc:  # a NetlistError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
