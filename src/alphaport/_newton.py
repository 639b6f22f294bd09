"""Damped Newton iteration shared by the nodal (KCL) and mesh (KVL) solvers.

Both solvers minimize a smooth convex scalar potential whose gradient is
the residual vector, so a Newton step with backtracking on that potential
converges globally for any monotone conductor law; a line search that
finds no acceptable step means the merit functions sit at their roundoff
floor, and ends the damped phase.

Convergence is judged per equation against a local magnitude scale (the
total absolute flow through the node, or the total absolute drop around a
loop).  A purely absolute criterion would be meaningless for strongly
superlinear laws, where every internal current can sit many orders of
magnitude below the input current.

Each equation's tolerance must also include its roundoff floor in the
chosen unknowns: a drop far below eps times the potentials it is a
difference of cannot be resolved at all (deep sections of attenuating
ladders sit at a large common-mode potential), so the callers fold an
estimated representation floor into the per-equation tolerance.

Circuits with long attenuating chains need one extra ingredient: their
remote equations have scales far below the roundoff floor of the large
ones, so no global merit function can see progress on them.  Once the
damped phase reaches the absolute tolerance, a refinement phase therefore
applies plain full Newton steps, which walk the accuracy boundary down the
chain a few orders of magnitude per pass (iterative refinement), keeping
the best iterate seen.

Each step solves with the Jacobian object of network.py, a symmetric
block-tridiagonal matrix over breadth-first level blocks of the unknowns,
by block elimination; a network small enough to be one block is one dense
solve.  Neighbouring blocks couple only through their boundary levels, so
eliminating a block of m unknowns whose successor starts with a level of
f costs a dense solve with f + 1 right-hand sides, about m^3 + m^2 f.
Equations with a zero diagonal are pinned to a zero step, and a system
that is still singular gets an escalating multiplicative ridge.

Sublinear laws add kinks (unbounded slope at zero drop).  The callers
take each slope no closer to zero drop than the roundoff band of the
drop, so the step stays finite, but the kinks still quantize the line
search; a coordinate-descent polish of the remaining unconverged
equations — exact one-dimensional bisections, immune to the kinks —
finishes those off.  ``damped_newton`` itself only reports whether it
converged; ``Network.solve`` (network.py) runs the whole cascade once
more from the final iterate of an unconverged solve, and raises
``SolverError`` when that has not converged either.  Sublinear laws can
still defeat it: on a seeded corpus of 40 sparse ring multigraphs (README,
Numerical notes) at drives 1e-3, 1 and 1e3, v**0.5 fails on 5 draws (7,
14, 22, 23, 35) and v**0.25 on 16, at every drive, while v**0.2, v**0.3
and every one-term superlinear law tried converge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = ["NewtonOutcome", "damped_newton", "max_iterations"]

# Per-equation relative convergence target; roundoff floors sit near
# 1e-15 * scale, leaving ample headroom.
REL_TOL = 1e-12
# Absolute floor so exact zeros (dead limbs) count as converged.
TINY = 1e-300
# Representation-floor ingredients for per-equation tolerances.  The
# multiplier leaves headroom for the joint optimum over coupled equations,
# which cannot zero every residual to within one quantization step at once
# (coupled sublinear kinks have been observed needing around 40 steps).
EPS = float(np.finfo(float).eps)
NOISE_MULT = 64.0
# A damped step must shrink the scaled residual by this factor (or produce
# a resolvable objective decrease) to count as progress.
SCORE_DECREASE = 0.9
REFINE_PASSES = 60
POLISH_SWEEPS = 400
# total residual evaluations granted to the coordinate polish; keeps the
# cost of hopeless cases (which will raise anyway) bounded
POLISH_EVAL_BUDGET = 100_000

MAX_ITERS_ENV = "ALPHAPORT_MAX_ITERS"
DEFAULT_MAX_ITERS = 200


def max_iterations() -> int:
    """Iteration cap: ALPHAPORT_MAX_ITERS (a positive integer), else 200."""
    env = os.environ.get(MAX_ITERS_ENV)
    if not env:
        return DEFAULT_MAX_ITERS
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{MAX_ITERS_ENV} must be a positive integer, got {env!r}")
    return cap


@dataclass
class NewtonOutcome:
    x: np.ndarray
    residual: np.ndarray  # at x
    residual_inf: float
    iterations: int
    converged: bool


def _inf(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def _unconverged(r: np.ndarray, tol: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(r) > np.maximum(tol, TINY)))


def _scaled_inf(r: np.ndarray, tol: np.ndarray) -> float:
    if r.size == 0:
        return 0.0
    return float(np.max(np.abs(r) / np.maximum(tol, TINY)))


def _solve_step(J, r: np.ndarray) -> np.ndarray:
    """Newton step -J^{-1} r for the network's block matrix J.

    J is a ``network.BlockTridiagonal``: it gives its diagonal, pinned and
    ridged copies, and solves by block elimination.
    """
    # Zero-diagonal rows belong to equations whose every incident slope
    # vanished (superlinear laws across dead limbs); they carry no usable
    # information, so pin them to a zero step instead of perturbing the
    # whole system, which would wreck the conditioning of the live
    # small-slope equations.
    diag = np.abs(J.diagonal())
    dead = (diag == 0.0) | ~np.isfinite(diag)
    rhs = -r
    if np.any(dead):
        J = J.pinned(dead)
        rhs = np.where(dead, 0.0, rhs)
    try:
        step = J.solve(rhs)
        if np.all(np.isfinite(step)):
            return step
    except np.linalg.LinAlgError:
        pass
    # Still singular: escalate a multiplicative diagonal ridge, which
    # respects the scale of each equation (an absolute ridge would drown
    # the small ones).
    for k in range(-14, 1):
        try:
            step = J.ridged(10.0**k).solve(rhs)
            if np.all(np.isfinite(step)):
                return step
        except np.linalg.LinAlgError:
            continue
    return rhs


def _polish_coordinate(residual, x: np.ndarray, k: int, tol_k: float,
                       budget: list[int]) -> None:
    """Balance equation k by bisecting its own unknown, leaving others fixed.

    Each residual component is strictly increasing in its own unknown for
    monotone laws, so the one-dimensional solve always brackets; bisection
    is immune to the slope singularities that stall Newton at sublinear
    kinks.  Mutates ``x`` in place and draws on a shared evaluation budget.
    """
    def rk(val: float) -> float:
        budget[0] -= 1
        x[k] = val
        return float(residual(x)[k])

    start = x[k]
    r0 = rk(start)
    if abs(r0) <= 0.5 * tol_k or not np.isfinite(r0):
        return
    scale = max(abs(start), 1.0)
    step = EPS * scale
    direction = -1.0 if r0 > 0.0 else 1.0
    near, far = start, start
    r_far = r0
    for _ in range(70):
        if budget[0] <= 0:
            x[k] = start
            return
        far = start + direction * step
        r_far = rk(far)
        if not np.isfinite(r_far) or r_far * r0 < 0.0 or r_far == 0.0:
            break
        near = far
        step *= 4.0
    if not np.isfinite(r_far) or r_far * r0 > 0.0:
        x[k] = start  # no bracket; leave the coordinate alone
        return

    lo, hi = (near, far) if near < far else (far, near)
    best_val, best_abs = start, abs(r0)
    for _ in range(200):
        if budget[0] <= 0:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        rm = rk(mid)
        if abs(rm) < best_abs:
            best_val, best_abs = mid, abs(rm)
        if abs(rm) <= 0.5 * tol_k:
            return  # x[k] already holds mid
        if rm > 0.0:
            hi = mid
        else:
            lo = mid
    x[k] = best_val


def damped_newton(x0, residual, jacobian, objective, tolerances, abs_tol: float,
                  max_iters: int) -> NewtonOutcome:
    """Drive every |r_i| below max(tol_i, TINY).

    residual/jacobian/objective/tolerances are callables of the iterate;
    ``jacobian`` returns a ``network.BlockTridiagonal`` and ``tolerances``
    the per-equation absolute target, typically a capped relative share of
    the local flow plus a representation-roundoff floor.  ``abs_tol`` only
    gates the refinement phase (it must start from an absolutely converged
    iterate).  The outcome reports ``converged=False`` when tolerance
    cannot be met within the budget.
    """
    x = np.array(x0, dtype=float, copy=True)
    if x.size == 0:
        return NewtonOutcome(x, np.zeros(0), 0.0, 0, True)

    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        r = residual(x)
        tol = tolerances(x)
        obj = objective(x)
        score = _scaled_inf(r, tol)
        iterations = 0

        def done(rv, tv):
            return _unconverged(rv, tv) == 0

        for _ in range(max_iters):
            if done(r, tol):
                return NewtonOutcome(x, r, _inf(r), iterations, True)
            step = _solve_step(jacobian(x), r)

            def try_step(xn):
                rn = residual(xn)
                tn = tolerances(xn)
                objn = objective(xn)
                if not (np.all(np.isfinite(rn)) and np.isfinite(objn)):
                    return None
                scoren = _scaled_inf(rn, tn)
                # the convex potential must never rise beyond ulp slack;
                # accepting scaled-residual progress that trades away
                # potential descent invites limit cycles
                if objn > obj * (1.0 + 1e-12) + TINY:
                    return None
                obj_drop = obj - objn > 1e-14 * max(abs(obj), TINY)
                if obj_drop or scoren <= SCORE_DECREASE * score or done(rn, tn):
                    return xn, rn, tn, objn, scoren
                return None

            accepted = None
            t = 1.0
            for _ in range(60):
                accepted = try_step(x + t * step)
                if accepted is not None:
                    break
                t *= 0.5
            if accepted is None:
                break  # merit functions are at their roundoff floor
            x, r, tol, obj, score = accepted
            iterations += 1

        # Refinement phase: from an absolutely converged iterate, plain full
        # Newton steps keep improving equations whose scales sit below the
        # global roundoff floor.
        if not done(r, tol) and _inf(r) <= abs_tol and iterations < max_iters:
            best = (x, r, tol)
            best_key = (_unconverged(r, tol), _scaled_inf(r, tol))
            stale = 0
            for _ in range(min(REFINE_PASSES, max_iters - iterations)):
                xn = x + _solve_step(jacobian(x), r)
                rn = residual(xn)
                tn = tolerances(xn)
                if not np.all(np.isfinite(rn)) or _inf(rn) > abs_tol:
                    break
                iterations += 1
                x, r, tol = xn, rn, tn
                key = (_unconverged(r, tol), _scaled_inf(r, tol))
                if key < best_key:
                    best, best_key = (x, r, tol), key
                    stale = 0
                else:
                    stale += 1
                if key[0] == 0 or stale >= 4:
                    break
            x, r, tol = best

        # Coordinate-descent polish: exact one-dimensional balances sweep
        # out what the coupled Newton step cannot express (sublinear kinks
        # quantize its line search).  Gauss-Seidel sweeps descend the convex
        # potential, so always advance, but answer with the best iterate.
        if not done(r, tol):
            best = (x, r, tol)
            best_key = (_unconverged(r, tol), _scaled_inf(r, tol))
            xw, rw, tw = x.copy(), r, tol
            stale = 0
            budget = [POLISH_EVAL_BUDGET]
            # sweeps are cheap relative to Newton iterations; budget them
            # separately but stay proportional to the configured cap
            for _ in range(min(POLISH_SWEEPS, 2 * max_iters)):
                bad = np.nonzero(np.abs(rw) > np.maximum(tw, TINY))[0]
                if bad.size == 0 or budget[0] <= 0:
                    break
                for k in bad:
                    _polish_coordinate(residual, xw, int(k), max(float(tw[k]), TINY),
                                       budget)
                rw = residual(xw)
                tw = tolerances(xw)
                key = (_unconverged(rw, tw), _scaled_inf(rw, tw))
                if key < best_key:
                    best, best_key = (xw.copy(), rw, tw), key
                    stale = 0
                else:
                    stale += 1
                    if stale >= 25:
                        break
            x, r, tol = best

        return NewtonOutcome(x, r, _inf(r), iterations, done(r, tol))
