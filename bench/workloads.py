"""The two benchmark workloads, each a seeded list of closed-loop tasks.

A task is one CLI invocation or one library call.  The runner times
``Task.run`` only; ``Task.check`` runs afterwards, outside the timed part,
and raises ``oracles.OracleError`` on a wrong answer.

Each workload holds a fixed task list built from its seed; the runner
repeats whole passes of it, so every task runs equally often.  Library
functions are looked up on the ``alphaport`` modules at call time, so a
tracer that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import alphaport
import alphaport.cli
from alphaport import Characteristic, build_canonical

import oracles
from circuits import square_grid


@dataclass
class Task:
    label: str  # task type, shared by every repeat of the same kind of call
    key: tuple  # full description of the inputs, for the determinism check
    run: Callable[[], object] = field(repr=False)
    check: Callable[[object], None] = field(repr=False)


def _jitter(rng: random.Random, x: float, spread: float = 0.05) -> float:
    """x scaled by a seeded factor in [e**-spread, e**spread], printed to 6 digits."""
    return float(f"{x * math.exp(rng.uniform(-spread, spread)):.6g}")


def _validated(c):
    rep = alphaport.validate(c)
    if not rep.ok:
        raise ValueError("generated circuit is invalid: " + "; ".join(rep.errors()))
    return c


# --- cli-mix --------------------------------------------------------------

CLI_CIRCUITS = (("fig_a1", None), ("fig3", None), ("fig4", None), ("ladder", 15))
CLI_LAW = "1:1,1:3"
CLI_TERMS = ((1.0, 1.0), (1.0, 3.0))
SWEEP_POINTS = 50


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = alphaport.cli.main(argv)
    return code, out.getvalue()


def cli_task(spec: dict) -> Task:
    def check(result) -> None:
        code, stdout = result
        if code != 0:
            raise oracles.OracleError(f"exit code {code}")
        oracles.check_cli_output(spec, stdout)

    label = spec["command"] + (" " + spec["circuit"] if "circuit" in spec else "")
    return Task(label, tuple(spec["argv"]), lambda: run_cli(spec["argv"]), check)


def cli_specs(rng: random.Random) -> list[dict]:
    """One pass: a sweep, three superposes and three analyzes per circuit,
    plus an exponent sweep, a ladder sweep and a mesh solve."""
    specs = []
    for name, sections in CLI_CIRCUITS:
        circuit = ["--canonical", name] + (["--sections", str(sections)] if sections else [])
        base = {"circuit": name, "sections": sections, "terms": CLI_TERMS}
        lo, hi = _jitter(rng, 0.01), _jitter(rng, 10.0)
        specs.append({**base, "command": "sweep",
                      "grid": [float(v) for v in np.geomspace(lo, hi, SWEEP_POINTS)],
                      "argv": ["sweep", *circuit, "--f", CLI_LAW,
                               "--vgrid", f"log:{lo!r}:{hi!r}:{SWEEP_POINTS}"]})
        for command in ("superpose", "analyze"):
            for v in (0.1, 1.0, 10.0):
                v = _jitter(rng, v)
                specs.append({**base, "command": command, "v": v,
                              "argv": [command, *circuit, "--f", CLI_LAW, "--vin", repr(v),
                                       "--format", "json"]})
    lo, hi = float(f"{0.3 * math.exp(rng.uniform(0.0, 0.1)):.6g}"), _jitter(rng, 16.0)
    specs.append({"command": "alpha-test", "circuit": "fig_a1",
                  "grid": [float(a) for a in np.geomspace(lo, hi, 8)],
                  "argv": ["alpha-test", "--canonical", "fig_a1", "--alphas",
                           f"log:{lo!r}:{hi!r}:8", "--format", "csv"]})
    lo, hi = _jitter(rng, 0.3), _jitter(rng, 64.0)
    specs.append({"command": "ladder", "grid": [float(a) for a in np.geomspace(lo, hi, 12)],
                  "argv": ["ladder", "--alphas", f"log:{lo!r}:{hi!r}:12", "--format", "csv"]})
    alpha, i_in = rng.choice((0.5, 1.0, 2.0, 3.0)), _jitter(rng, 1.0, 0.2)
    specs.append({"command": "mesh", "alpha": alpha, "i": i_in,
                  "argv": ["mesh", "--canonical", "fig_b1", "--f", f"1:{alpha!r}",
                           "--iin", repr(i_in), "--format", "json"]})
    return specs


class CliMix:
    """In-process ``alphaport.cli.main`` on circuits with at most 30 unknowns."""

    name = "cli-mix"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        for name, sections in CLI_CIRCUITS + (("fig_b1", None),):
            _validated(build_canonical(name, sections=sections))
        self.tasks = [cli_task(spec) for spec in cli_specs(rng)]
        rng.shuffle(self.tasks)
        self.warmup_task = cli_task({"command": "analyze", "circuit": "fig_a1", "v": 1.0,
                                     "sections": None, "terms": CLI_TERMS,
                                     "argv": ["analyze", "--canonical", "fig_a1", "--f",
                                              CLI_LAW, "--vin", "1.0", "--format", "json"]})


# --- grid -----------------------------------------------------------------

GRID_SIZES = (20, 30)
GRID_ALPHAS = (0.3, 1.0, 3.0, 64.0)
MESH_SIZE = 20
# Three mesh laws make a pass 13 calls, an odd number, so the pass's median
# falls inside one call's latency rather than in the gap between two.
MESH_ALPHAS = (0.5, 1.0, 3.0)
CUBIC = Characteristic(((1.0, 1.0), (1.0, 3.0)))


class Grid:
    """Square grids with hundreds of unknowns: Jacobian assembly and dense solves."""

    name = "grid"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.circuits = {n: _validated(square_grid(n, rng)) for n in GRID_SIZES}
        self._inverse_profiles: dict[tuple[int, float], object] = {}
        tasks = []
        for n in GRID_SIZES:
            tasks.append(self._solve_task(n, _jitter(rng, 1.0, 0.1)))
            tasks += [self._alpha_task(n, a) for a in GRID_ALPHAS]
        tasks += [self._mesh_task(MESH_SIZE, a, _jitter(rng, 1.0, 0.1)) for a in MESH_ALPHAS]
        rng.shuffle(tasks)
        self.tasks = tasks
        self.warmup_task = self._solve_task(GRID_SIZES[0], 1.0)

    def _key(self, n: int, *params) -> tuple:
        return (n, *params, self.circuits[n].branches)

    def _solve_task(self, n: int, v: float) -> Task:
        c = self.circuits[n]
        return Task(f"solve_dc {n}x{n}", self._key(n, "solve_dc", v),
                    lambda: alphaport.solve_dc(c, CUBIC, v),
                    lambda sol: oracles.check_dc_solution(c, CUBIC.terms, sol))

    def _alpha_task(self, n: int, alpha: float) -> Task:
        c = self.circuits[n]
        return Task(f"alpha_solve {n}x{n} a={alpha:g}", self._key(n, "alpha_solve", alpha),
                    lambda: alphaport.alpha_solve(c, alpha),
                    lambda prof: oracles.check_alpha_profile(c, alpha, prof))

    def _mesh_task(self, n: int, alpha: float, i_in: float) -> Task:
        c = self.circuits[n]
        law = Characteristic(((1.0, alpha),))

        def check(sol) -> None:
            ref = self._inverse_profiles.get((n, alpha))
            if ref is None:
                ref = self._inverse_profiles[(n, alpha)] = alphaport.alpha_solve(c, 1.0 / alpha)
            oracles.check_mesh_duality(ref, alpha, sol)

        return Task(f"mesh_solve {n}x{n} a={alpha:g}", self._key(n, "mesh_solve", alpha, i_in),
                    lambda: alphaport.mesh_solve(c, law, i_in), check)


WORKLOADS = {w.name: w for w in (CliMix, Grid)}
