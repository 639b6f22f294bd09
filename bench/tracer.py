"""Per-layer spans recorded from outside the library.

The library binds its collaborators with ``from .x import y``, so every
module holds its own reference to, say, ``solve_dc``.  ``Tracer.install``
therefore replaces each binding of a traced function in every loaded
``alphaport`` module (the package namespace included), and wraps the four
callables that the solvers hand to ``damped_newton``.  ``uninstall`` puts
the originals back.

A span's self time is its duration minus the durations of the traced
spans it directly caused; busy time is the whole duration.  Spans are
folded into per-name totals as they close, so memory stays flat however
many residual evaluations a run makes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs traced as layers; the layer name is the module
# without the package prefix (``_newton`` is reported as ``newton``).
TRACED = (
    ("alphaport.cli", "main"),
    ("alphaport.superposition", "report"),
    ("alphaport.superposition", "error_bound"),
    ("alphaport.alpha", "alpha_solve"),
    ("alphaport.solver", "solve_dc"),
    ("alphaport.circuit", "validate"),
    ("alphaport.mesh", "mesh_solve"),
    ("alphaport.ladder", "lambda_root"),
    ("alphaport._newton", "damped_newton"),
)
NEWTON_CALLBACKS = ("residual", "jacobian", "objective", "tolerances")


def layer_name(module: str, func: str) -> str:
    return module.removeprefix("alphaport.").lstrip("_") + "." + func


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.failed: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)  # (parent, child) -> calls
        self.newton_iterations = 0
        self.newton_unconverged = 0
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (plain call when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed[name] += 1
            raise
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.busy[name] += dur
            self.self_time[name] += dur - frame[1]
            self.edges[(parent, name)] += 1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_newton(self, name: str, fn):
        wrap = self._wrap

        def traced_newton(x0, residual, jacobian, objective, tolerances, *args, **kwargs):
            if not self.enabled:
                return fn(x0, residual, jacobian, objective, tolerances, *args, **kwargs)
            callbacks = [wrap("newton." + cb, f) for cb, f in
                         zip(NEWTON_CALLBACKS, (residual, jacobian, objective, tolerances))]
            outcome = self.call(name, fn, x0, *callbacks, *args, **kwargs)
            self.newton_iterations += outcome.iterations
            self.newton_unconverged += not outcome.converged
            return outcome
        traced_newton.__wrapped__ = fn
        return traced_newton

    def install(self) -> None:
        """Replace every binding of each traced function in loaded alphaport modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "alphaport" or n.startswith("alphaport."))]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            name = layer_name(module_name, func_name)
            wrapper = (self._wrap_newton if func_name == "damped_newton" else self._wrap)(
                name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
