"""alphaport benchmark: one closed-loop client, one workload per process.

Usage (from the repository root)::

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload's task list alternately untraced and traced and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the run environment.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: on a 2-CPU machine default OpenBLAS threading made the
# 20x20-grid solve swing between 30 and 522 ms.  Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
# Fixed per workload so that runs and commits compare the same statistic:
# the slowest task of the 31 in a cli-mix pass and the two slowest of the 13
# in a grid pass lie beyond it, which is at least ten runs in a 50 s run.
TAIL_PERCENTILE = {"cli-mix": 95.0, "grid": 80.0}
WORKLOAD_NAMES = tuple(TAIL_PERCENTILE)
TASK_SPAN = "bench.task"  # root span of each traced task; its self time is benchmark glue


def _import_library():
    """Import alphaport from this checkout's src/, never from elsewhere."""
    if not (SRC / "alphaport" / "__init__.py").is_file():
        raise SystemExit(f"bench: no alphaport sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import alphaport

    if Path(alphaport.__file__).resolve().parent != SRC / "alphaport":
        raise SystemExit(f"bench: imported alphaport from {alphaport.__file__}, not {SRC}")
    return alphaport


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


class Tally:
    """Attempted and failed tasks, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, task, outcome, error) -> None:
        from oracles import OracleError

        self.attempted += 1
        if error is None:
            try:
                task.check(outcome)
                return
            except (OracleError, KeyError, ValueError) as exc:  # wrong or malformed output
                error = exc
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: task {task.label!r} failed: {type(error).__name__}: {error}",
                  file=sys.stderr)


def run_task(task, tally: Tally, tracer=None) -> float:
    """Run one task, return its duration; the output check is not timed."""
    outcome = error = None
    t0 = time.perf_counter()
    try:
        outcome = tracer.call(TASK_SPAN, task.run) if tracer else task.run()
    except Exception as exc:  # a raising task is a failed task, not a crash
        error = exc
    dt = time.perf_counter() - t0
    if tracer:
        tracer.enabled = False  # oracles may call the library; keep them out of the trace
    tally.record(task, outcome, error)
    return dt


def setup(name: str, seed: int):
    """Generate and validate the workload, then run one warm-up task."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    warm = Tally()
    run_task(workload.warmup_task, warm)
    if warm.failed:
        raise SystemExit("bench: warm-up task failed")
    return workload


def probe_setup_seconds(name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its first timed task."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"bench: setup probe failed (exit {proc.returncode})")
    return elapsed


def measure(workload, seconds: float, tally: Tally) -> list[list[float]]:
    """Closed loop over whole passes of the task list until the timed part
    reaches ``seconds``, so every task is run equally often.  Returns, for
    each task of the list, the durations of its runs.
    """
    runs: list[list[float]] = [[] for _ in workload.tasks]
    timed = 0.0
    while timed < seconds:
        for task, durations in zip(workload.tasks, runs):
            durations.append(run_task(task, tally))
            timed += durations[-1]
    return runs


def end_to_end(name: str, workload, seconds: float, setup_samples: list[float],
               tally: Tally) -> tuple[dict, dict]:
    """A task's latency is its fastest run; p50 and tail are taken over the
    tasks of the list, and ``tasks_per_s`` is the rate of a pass at those
    latencies.

    Each task's inputs are fixed, so its runs differ only by how much the
    machine slowed the process.  On the machine the benchmark was defined
    on, spells of several seconds ran up to twice as slow, and the share of
    such spells drifted from minute to minute; statistics over all runs
    (pooled percentiles, per-task means, throughput over the timed part)
    moved with that share by up to 0.3 of their median between runs, the
    fastest runs by less.  Every task runs equally often, so the tail
    percentile has ``passes`` runs beyond it for each task beyond it.
    """
    runs = measure(workload, seconds, tally)
    passes = len(runs[0])
    timed = sum(map(sum, runs))
    latencies = [min(durations) for durations in runs]
    p = TAIL_PERCENTILE[name]
    tail = percentile(latencies, p)
    tasks_beyond = sum(lat > tail for lat in latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "tasks_per_s": (len(runs) / sum(latencies), "1/s"),
        "task_ms.p50": (1e3 * percentile(latencies, 50.0), "ms"),
        "task_ms.tail": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"tasks": len(runs), "passes": passes, "timed_s": timed,
            "timed_tasks_per_s": passes * len(runs) / timed, "tail_percentile": p,
            "tail_tasks_beyond": tasks_beyond, "tail_runs_beyond": tasks_beyond * passes,
            "setup_samples_s": setup_samples}
    return metrics, info


def per_layer(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Untraced and traced repeats of the task list; per-layer values are per block."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    block = workload.tasks
    untraced: list[float] = []
    traced: list[float] = []
    try:
        while sum(untraced) + sum(traced) < seconds:
            untraced.append(sum(run_task(t, tally) for t in block))
            total = 0.0
            for task in block:
                tracer.enabled = True
                total += run_task(task, tally, tracer)
            traced.append(total)
    finally:
        tracer.enabled = False
        tracer.uninstall()

    reps = len(traced)
    calls = {n: c / reps for n, c in tracer.calls.items()}

    def count(name):
        return calls.get(name, 0.0)

    def seconds_of(table, name):
        return table.get(name, 0.0) / reps

    def ratio(num, den):
        return num / den if den else 0.0

    top_profiles = count("alpha.alpha_solve") - tracer.edges.get(
        ("alpha.alpha_solve", "alpha.alpha_solve"), 0) / reps
    metrics = {
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(untraced) - 1.0,
                                "ratio"),
        "solver.solves_per_task": (ratio(count("solver.solve_dc"), len(block)), "ratio"),
        "alpha.solves_per_profile": (ratio(tracer.edges.get(
            ("alpha.alpha_solve", "solver.solve_dc"), 0) / reps, top_profiles), "ratio"),
        "solver.solve_dc.failed": (tracer.failed.get("solver.solve_dc", 0) / reps, "count"),
        "newton.iterations": (tracer.newton_iterations / reps, "count"),
        "newton.unconverged": (tracer.newton_unconverged / reps, "count"),
        "newton.residual_per_iteration": (ratio(count("newton.residual"),
                                                tracer.newton_iterations / reps), "ratio"),
    }
    for layer in ("cli.main", "superposition.report", "alpha.alpha_solve", "solver.solve_dc",
                  "mesh.mesh_solve", "ladder.lambda_root", "newton.damped_newton"):
        metrics[f"{layer}.calls"] = (count(layer), "count")
        metrics[f"{layer}.self_s"] = (seconds_of(tracer.self_time, layer), "s")
    metrics["superposition.error_bound.self_s"] = (
        seconds_of(tracer.self_time, "superposition.error_bound"), "s")
    for layer in ("circuit.validate", "newton.jacobian", "newton.residual",
                  "newton.tolerances", "newton.objective"):
        metrics[f"{layer}.calls"] = (count(layer), "count")
        metrics[f"{layer}.busy_s"] = (seconds_of(tracer.busy, layer), "s")
    info = {"block_tasks": len(block), "repeats": reps,
            "untraced_block_s": untraced, "traced_block_s": traced}
    return metrics, info


def result(tally: Tally, metrics: dict) -> dict:
    """The result line.  A task that raised or failed its check makes it incorrect."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def environment(name: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "loop": "closed, one in-process client"}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; prints a table, then a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            print(f"{name:16s} {metric:34s} {value['value']:14.6g} {value['unit']}")
            combined["metrics"][f"{name}.{metric}"] = value
        print(f"{name:16s} {'attempted/failed':34s} {result['attempted']:>7d}/{result['failed']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload != "all" and args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOAD_NAMES} or all")
    _import_library()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    tally = Tally()
    if args.trace:
        metrics, info = per_layer(setup(args.workload, args.seed), args.seconds, tally)
    else:
        setup_samples = [probe_setup_seconds(args.workload, args.seed)
                         for _ in range(SETUP_PROBES)]
        workload = setup(args.workload, args.seed)
        metrics, info = end_to_end(args.workload, workload, args.seconds, setup_samples, tally)
    print(json.dumps({"env": environment(args.workload, args.seed, args.seconds, args.trace),
                      "run": info}))
    print(json.dumps(result(tally, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
