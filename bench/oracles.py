"""Output checks that decide whether a benchmark task failed.

Each check is written in plain Python against the published behaviour of
a result (Kirchhoff's laws, closed forms, the nodal/mesh duality), not by
calling the solver's own residual code.  A check raises ``OracleError``;
the caller counts the task as failed.

Two allowances keep the checks free of false failures:

* the solver stops once each node's imbalance is within 1e-12 of its local
  flow or within a roundoff floor (the current change caused by moving a
  potential by a few ulps).  The checks accept 1e-9 of the local flow plus
  ``FLOOR_ULPS`` ulps of that floor, a wide margin over the solver's
  acceptance that still exposes any wrong answer.
* the CLI prints 9 significant digits; values read back from its output
  carry a relative rounding of ``PRINTED`` per value.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict

from alphaport import build_canonical, phi_b6_closed_form, phi_closed_form_fig_a1

EPS = 2.0**-52
REL = 1e-9
FLOOR_ULPS = 8192.0
PRINTED = 5e-9  # 9 significant digits round with relative error <= 5e-9


class OracleError(AssertionError):
    """A task's output disagrees with an independent check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def close(x: float, y: float, rel: float, what: str) -> None:
    _require(abs(x - y) <= rel * max(abs(x), abs(y)) + 1e-300,
             f"{what}: {x!r} vs {y!r} (rel tol {rel:g})")


def law_current(terms, v: float) -> float:
    return sum(d * v**a for d, a in terms)


def law_slope(terms, v: float) -> float:
    return sum(d * a * v ** (a - 1.0) for d, a in terms)


def kcl_check(circuit, terms, potentials: dict[str, float],
              rounding: float = 0.0) -> tuple[float, float]:
    """Check Kirchhoff's current law at every internal node.

    ``terms`` is the conductor law as (D, alpha) pairs and ``rounding`` the
    relative error already present in each potential (0 for values taken
    straight from the library).  Returns the current collected at the
    grounded terminal (the input current) and its allowance.
    """
    a, b = circuit.input_port
    top = max(abs(p) for p in potentials.values())
    for node, p in potentials.items():
        _require(-FLOOR_ULPS * EPS * top <= p - min(potentials[a], potentials[b])
                 and p - max(potentials[a], potentials[b]) <= FLOOR_ULPS * EPS * top,
                 f"potential of {node!r} ({p!r}) lies outside the port range")
    inflow: dict[str, float] = defaultdict(float)
    flow: dict[str, float] = defaultdict(float)
    allow: dict[str, float] = defaultdict(float)
    for br in circuit.branches:
        p1, p2 = potentials[br.n1], potentials[br.n2]
        drop = abs(p1 - p2)
        current = br.w * law_current(terms, drop)
        signed = current if p1 >= p2 else -current
        inflow[br.n1] -= signed
        inflow[br.n2] += signed
        flow[br.n1] += current
        flow[br.n2] += current
        scale = max(abs(p1), abs(p2))
        if scale == 0.0:
            continue
        granule = EPS * scale
        slack = FLOOR_ULPS * granule * br.w * law_slope(terms, max(drop, granule))
        if rounding:
            r = 2.0 * rounding * scale
            slack += br.w * (law_current(terms, drop + r) - law_current(terms, max(drop - r, 0.0)))
        allow[br.n1] += slack
        allow[br.n2] += slack
    for node in circuit.internal_nodes():
        _require(abs(inflow[node]) <= REL * flow[node] + allow[node],
                 f"KCL imbalance {inflow[node]:.3e} at {node!r} "
                 f"(local flow {flow[node]:.3e}, floor {allow[node]:.3e})")
    return inflow[b], REL * flow[b] + allow[b]


def check_dc_solution(circuit, terms, sol) -> None:
    """KCL and port current of a ``DcSolution``."""
    a, b = circuit.input_port
    _require(sol.potentials[a] == sol.v_in and sol.potentials[b] == 0.0,
             "port potentials are not (v_in, 0)")
    ground, allow = kcl_check(circuit, terms, sol.potentials)
    _require(abs(sol.input_current - ground) <= allow,
             f"input current {sol.input_current!r} but ground collects {ground!r}")


def check_alpha_profile(circuit, alpha: float, prof) -> None:
    """KCL of the unit-drive profile and phi as the current collected at ground."""
    a, b = circuit.input_port
    _require(prof.d[a] == 1.0 and prof.d[b] == 0.0, "profile port ratios are not (1, 0)")
    ground, allow = kcl_check(circuit, ((1.0, alpha),), prof.d)
    _require(abs(prof.phi - ground) <= allow + REL * prof.phi,
             f"phi {prof.phi!r} but ground collects {ground!r}")


def check_mesh_duality(prof_inverse, alpha: float, sol) -> None:
    """phi_meshes(alpha) == phi_nodes(1/alpha) ** -alpha on the same graph."""
    close(sol.phi_meshes, prof_inverse.phi ** -alpha, 1e-9, f"mesh/nodal duality at alpha={alpha}")


# --- CLI output -----------------------------------------------------------

def _csv_rows(text: str) -> tuple[list[str], list[dict[str, float]]]:
    lines = text.strip().splitlines()
    _require(bool(lines) and lines[0].startswith("# "), "CSV output has no header")
    header = lines[0][2:].split(",")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    rows = [{k: float(v) for k, v in zip(header, rec)} for rec in csv.reader(io.StringIO("\n".join(body)))]
    _require(all(len(r) == len(header) for r in rows), "ragged CSV row")
    return header, rows


def _check_superposition_row(circuit_name: str, terms, v: float, F: float, G: float,
                             bound) -> None:
    if circuit_name == "fig_a1":
        G_ref = sum(d * phi_closed_form_fig_a1(a) * v**a for d, a in terms)
        close(G, G_ref, 1e-8, f"fig_a1 G at v_in={v}")
    if circuit_name == "fig4":
        close(F, G, 1e-8, f"fig4 F == G at v_in={v}")
    if len(terms) == 2:
        _require(bound is not None and abs(F - G) <= bound * (1 + PRINTED) + PRINTED * (F + G),
                 f"|F - G| = {abs(F - G):.3e} exceeds the drop bound {bound} at v_in={v}")


def _potentials_from_ratios(circuit, v: float, row: dict[str, float]) -> dict[str, float]:
    a, b = circuit.input_port
    pots = {a: v, b: 0.0}
    for n in circuit.internal_nodes():
        pots[n] = row[f"d_{n}"] * v
    return pots


def check_cli_output(spec: dict, stdout: str) -> None:
    """Dispatch on the command of a cli-mix task (see ``workloads``)."""
    cmd = spec["command"]
    circuit = (build_canonical(spec["circuit"], sections=spec.get("sections"))
               if "circuit" in spec else None)
    terms = spec.get("terms")
    if cmd == "analyze":
        out = json.loads(stdout)
        close(out["v_in"], spec["v"], PRINTED, "analyze v_in")
        ground, allow = kcl_check(circuit, terms, out["potentials"], rounding=PRINTED)
        _require(abs(out["input_current"] - ground) <= allow + PRINTED * abs(ground),
                 f"analyze input current {out['input_current']!r} vs ground sum {ground!r}")
    elif cmd == "superpose":
        out = json.loads(stdout)
        G = 0.0
        for t in out["per_term"]:
            close(t["value"], t["D"] * t["phi"] * spec["v"] ** t["alpha"], 1e-8, "term value")
            G += t["value"]
        close(out["G"], G, 1e-8, "G as the sum of its terms")
        _check_superposition_row(spec["circuit"], terms, spec["v"], out["F"], out["G"], out["bound"])
    elif cmd == "sweep":
        _, rows = _csv_rows(stdout)
        _require(len(rows) == len(spec["grid"]), f"sweep returned {len(rows)} rows")
        for v, row in zip(spec["grid"], rows):
            close(row["v_in"], v, PRINTED, "sweep drive")
            _check_superposition_row(spec["circuit"], terms, v, row["F"], row["G"], row["bound"])
            kcl_check(circuit, terms, _potentials_from_ratios(circuit, v, row), rounding=PRINTED)
    elif cmd == "alpha-test":
        _, rows = _csv_rows(stdout)
        _require(len(rows) == len(spec["grid"]), f"alpha-test returned {len(rows)} rows")
        for alpha, row in zip(spec["grid"], rows):
            close(row["alpha"], alpha, PRINTED, "alpha-test exponent")
            if spec["circuit"] == "fig_a1":
                close(row["phi"], phi_closed_form_fig_a1(alpha), 1e-8, f"fig_a1 phi({alpha})")
            kcl_check(circuit, ((1.0, alpha),), _potentials_from_ratios(circuit, 1.0, row),
                      rounding=PRINTED)
    elif cmd == "ladder":
        _, rows = _csv_rows(stdout)
        _require(len(rows) == len(spec["grid"]), f"ladder returned {len(rows)} rows")
        for alpha, row in zip(spec["grid"], rows):
            check_ladder_root(alpha, row["lambda"], row["phi"])
    elif cmd == "mesh":
        out = json.loads(stdout)
        alpha = spec["alpha"]
        close(out["phi_meshes"], phi_b6_closed_form(alpha), 1e-8, f"fig_b1 phi_meshes({alpha})")
        close(out["input_voltage"], out["phi_meshes"] * spec["i"] ** alpha, 1e-8,
              "mesh input voltage")
    else:
        raise OracleError(f"no check for command {cmd!r}")


def check_ladder_root(alpha: float, lam: float, phi: float) -> None:
    """lam solves (lam**a - 1) * (lam - 1)**a == (2*lam)**a to printed precision."""
    def g(x: float) -> float:
        return math.log(x**alpha - 1.0) + alpha * math.log(x - 1.0) - alpha * math.log(2.0 * x)

    _require(lam > 1.0, f"lambda({alpha}) = {lam} is not above 1")
    lo, hi = lam * (1.0 - 2 * PRINTED), lam * (1.0 + 2 * PRINTED)
    _require(g(lo) <= 0.0 <= g(hi), f"lambda({alpha}) = {lam!r} does not solve the cell equation")
    close(phi, ((lam - 1.0) / (2.0 * lam)) ** alpha, 1e-8 * (1.0 + alpha), f"ladder phi({alpha})")
