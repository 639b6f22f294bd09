"""Self-test of the benchmark itself (not of the library).

Run from the repository root::

    python3 bench/selftest.py

Checks that metric names are well formed and match BENCHMARK.json, that a
seed regenerates identical workload inputs, that traced self times add up
to the traced task duration, that every import site is traced (a 50-point
sweep makes 200 solves), that the grid's face basis satisfies the
nodal/mesh duality, that the oracles pass correct outputs and reject
corrupted ones, and that known SolverError draws and any other raising
task are counted as failed tasks and make the result incorrect.  Exits
non-zero on the first failed check.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import replace

import run  # pins BLAS threads before numpy loads

run._import_library()

import alphaport  # noqa: E402
from alphaport import Characteristic  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from circuits import random_connected_circuit, square_grid  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# (seed of random.Random, 0-based draw, alpha, drive): valid circuits on
# which solve_dc raised SolverError when the benchmark was defined.  A
# workload on random multigraphs would have to leave these exponents out.
KNOWN_FAILING_DRAWS = ((0, 24, 0.25, 1.0), (12, 317, 0.5, 1e3), (23, 2530, 0.3, 1e-3),
                      (105, 13125, 10.0, 1.0))


class SelfTestError(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestError(message)


def check_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {kind: [m["name"] for m in spec[kind]] for kind in ("end_to_end", "per_layer")}
    for name in [w["name"] for w in spec["workloads"]] + sum(declared.values(), []):
        expect(NAME.fullmatch(name) is not None, f"bad metric or workload name {name!r}")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads differ from run.py")

    wl = workloads.CliMix(0)
    e2e, _ = run.end_to_end("cli-mix", wl, 1e-9, [0.1], run.Tally())
    layers, _ = run.per_layer(wl, 1e-9, run.Tally())
    expect(sorted(e2e) == sorted(declared["end_to_end"]),
           f"end-to-end metrics {sorted(e2e)} differ from BENCHMARK.json")
    expect(sorted(layers) == sorted(declared["per_layer"]),
           f"per-layer metrics {sorted(layers)} differ from BENCHMARK.json")
    for name, (_, unit) in {**e2e, **layers}.items():
        expect(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) is not None, f"bad unit of {name}")


def check_seed_determinism() -> None:
    for name, cls in workloads.WORKLOADS.items():
        def keys(seed):
            wl = cls(seed)
            return [t.key for t in wl.tasks]
        expect(keys(3) == keys(3), f"{name}: seed 3 does not regenerate its inputs")
        expect(keys(3) != keys(4), f"{name}: seeds 3 and 4 give identical inputs")


def check_trace() -> None:
    wl = workloads.CliMix(0)
    sweep = next(t for t in wl.tasks if t.label == "sweep fig_a1")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        code, _ = tracer.call(run.TASK_SPAN, sweep.run)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    expect(code == 0, "traced sweep failed")
    solves = tracer.calls["solver.solve_dc"]
    expect(solves == 4 * workloads.SWEEP_POINTS,
           f"a {workloads.SWEEP_POINTS}-point sweep made {solves} traced solves, expected 200")
    total = tracer.busy[run.TASK_SPAN]
    parts = sum(tracer.self_time.values())
    expect(abs(parts - total) <= 1e-9 * total,
           f"self times sum to {parts!r}, traced task took {total!r}")
    expect(not hasattr(alphaport.cli.solve_dc, "__wrapped__"), "tracer left a wrapper installed")


def check_grid_duality() -> None:
    for n in (5, 10, 20):
        c = square_grid(n, random.Random(n))
        for alpha in workloads.MESH_ALPHAS:
            sol = alphaport.mesh_solve(c, Characteristic(((1.0, alpha),)), 1.0)
            ref = alphaport.alpha_solve(c, 1.0 / alpha).phi ** -alpha
            expect(abs(sol.phi_meshes / ref - 1.0) <= 1e-12,
                   f"{n}x{n} face basis: phi_meshes({alpha}) = {sol.phi_meshes!r}, "
                   f"nodal dual gives {ref!r}")


def check_oracles_pass_and_reject() -> None:
    for cls in workloads.WORKLOADS.values():
        wl = cls(0)
        tally = run.Tally()
        for task in wl.tasks:
            run.run_task(task, tally)
        expect(tally.failed == 0, f"{wl.name}: {tally.failed} failures on seed 0")

    c = square_grid(6, random.Random(0))
    sol = alphaport.solve_dc(c, workloads.CUBIC, 1.0)
    node = c.internal_nodes()[7]
    bad = replace(sol, potentials={**sol.potentials, node: sol.potentials[node] * (1 + 1e-6)})
    try:
        oracles.check_dc_solution(c, workloads.CUBIC.terms, bad)
    except oracles.OracleError:
        pass
    else:
        raise SelfTestError("KCL check accepted a potential moved by 1e-6")

    spec = next(s for s in workloads.cli_specs(random.Random(0))
                if s["command"] == "superpose" and s["circuit"] == "fig_a1")
    code, out = workloads.run_cli(spec["argv"])
    oracles.check_cli_output(spec, out)
    payload = json.loads(out)
    payload["G"] *= 1 + 1e-7
    try:
        oracles.check_cli_output(spec, json.dumps(payload))
    except oracles.OracleError:
        pass
    else:
        raise SelfTestError("superpose check accepted G off by 1e-7")


def multigraph_task(c, alpha: float, v: float) -> workloads.Task:
    law = Characteristic(((1.0, alpha),))
    return workloads.Task(f"solve_dc multigraph a={alpha:g}", (c.branches, alpha, v),
                          lambda: alphaport.solve_dc(c, law, v),
                          lambda sol: oracles.check_dc_solution(c, law.terms, sol))


def check_known_failures_counted() -> None:
    for seed, draw, alpha, v in KNOWN_FAILING_DRAWS:
        rng = random.Random(seed)
        for _ in range(draw):
            random_connected_circuit(rng)
        task = multigraph_task(random_connected_circuit(rng), alpha, v)
        tally = run.Tally()
        run.run_task(task, tally)
        expect(tally.attempted == 1 and tally.failed == 1,
               f"draw {draw} of seed {seed} at alpha={alpha} was not counted as a failure "
               f"(attempted {tally.attempted}, failed {tally.failed}); if it now converges, "
               "a multigraph workload may take this exponent")
        expect(run.result(tally, {})["correct"] is False,
               f"draw {draw} of seed {seed} raised but the result reads correct")


def check_raising_task_is_incorrect() -> None:
    grid = workloads.Grid(0)
    ok = run.Tally()
    run.run_task(grid.warmup_task, ok)
    expect(run.result(ok, {})["correct"] is True, "a passing grid task reads incorrect")
    c = grid.circuits[workloads.GRID_SIZES[0]]
    raising = replace(grid.warmup_task,
                      run=lambda: alphaport.solve_dc(c, workloads.CUBIC, float("nan")))
    run.run_task(raising, ok)
    expect(ok.failed == 1 and run.result(ok, {})["correct"] is False,
           "a grid task that raised ValueError left the result correct")


def main() -> int:
    checks = [check_metric_names, check_seed_determinism, check_trace, check_grid_duality,
              check_oracles_pass_and_reject, check_known_failures_counted,
              check_raising_task_is_incorrect]
    for check in checks:
        try:
            check()
        except SelfTestError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
