"""Circuit graphs for one-ports made of identical conductors.

A circuit is an undirected multigraph whose branches all carry the same
conductor law, plus a designated input port (a, b) with b as the ground
reference.  Branch multiplicity ``w`` counts identical conductors wired in
parallel between the same pair of nodes.

Netlist text format (UTF-8, line oriented)::

    # comment, blank lines ignored
    .input a b
    .branch a b [w=K]
    .f D:alpha[,D:alpha...]        # optional, stored as metadata
    .mesh name s1 s2 ...           # optional mesh loop, signed 1-based
                                   # branch indices; "source" names the
                                   # loop closed through the input source

Circuits are immutable after construction and safe to share between
concurrent analyses.  Work that depends only on the topology (the integer
index, a passing validation report, and the solvers' networks) is done on
first use and kept on the circuit instance (``_kept``); results never are.
Two threads that first use a circuit at once may both do that work, and
keep equal copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Branch",
    "Circuit",
    "Mesh",
    "NetlistError",
    "ValidationReport",
    "parse_netlist",
    "render_netlist",
    "validate",
    "build_canonical",
    "CANONICAL_NAMES",
]


class Branch(NamedTuple):
    n1: str
    n2: str
    w: int = 1


class Mesh(NamedTuple):
    name: str
    # signed 1-based indices into Circuit.branches; negative = traversed
    # against the branch's stated n1->n2 direction
    branches: tuple[int, ...]


class _Index(NamedTuple):
    """A circuit in integer form: node ``names`` in sorted order, and per
    branch the codes ``n1``, ``n2`` of its ends (positions in ``names``) and
    its multiplicity ``w``; ``a`` and ``b`` are the port's codes."""

    names: list[str]
    n1: np.ndarray
    n2: np.ndarray
    w: np.ndarray
    a: int
    b: int


class NetlistError(ValueError):
    """Raised for malformed netlist text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Circuit:
    branches: tuple[Branch, ...]
    input_port: tuple[str, str]
    nodes: frozenset[str] = field(default=frozenset())
    f_text: str | None = None
    meshes: tuple[Mesh, ...] = ()

    def __post_init__(self):
        branches = tuple(Branch(str(b[0]), str(b[1]), int(b[2]) if len(b) > 2 else 1)
                         for b in self.branches)
        for b in branches:
            if b.w < 1:
                raise ValueError(f"branch {b.n1}-{b.n2}: multiplicity must be >= 1")
        port = (str(self.input_port[0]), str(self.input_port[1]))
        derived = {n for b in branches for n in (b.n1, b.n2)} | set(port)
        nodes = frozenset(self.nodes) | derived
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "input_port", port)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "meshes", tuple(Mesh(m[0], tuple(m[1])) for m in self.meshes))

    @property
    def a(self) -> str:
        return self.input_port[0]

    @property
    def b(self) -> str:
        return self.input_port[1]

    def internal_nodes(self) -> list[str]:
        """Non-port nodes in sorted order (the solver's unknowns)."""
        return sorted(self.nodes - set(self.input_port))

    @cached_property
    def _index(self) -> _Index:
        """The integer form that validation and the solvers read, built once."""
        names = sorted(self.nodes)
        code = dict(zip(names, range(len(names))))
        n_br = len(self.branches)
        n1 = np.fromiter(map(code.__getitem__, (br.n1 for br in self.branches)), np.intp, n_br)
        n2 = np.fromiter(map(code.__getitem__, (br.n2 for br in self.branches)), np.intp, n_br)
        w = np.fromiter((br.w for br in self.branches), float, n_br)
        return _Index(names, n1, n2, w, code[self.a], code[self.b])


def _kept(c: Circuit, name: str, build):
    """``build(c)``, done on the first request for ``name`` and then kept on
    ``c`` (as ``Circuit._index`` is); nothing is kept when ``build`` raises."""
    try:
        return c.__dict__[name]
    except KeyError:
        value = c.__dict__[name] = build(c)
        return value


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[tuple[str, str], ...]  # (severity, message), severity in {"error", "warning"}

    def errors(self) -> list[str]:
        return [msg for sev, msg in self.issues if sev == "error"]


def _neighbours(n: int, n1: np.ndarray, n2: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Adjacency lists of an n-node multigraph with branches ``n1``-``n2``.

    Node k's neighbours are ``nbr[start[k]:start[k + 1]]``, in branch
    order, reached through the branches ``via[start[k]:start[k + 1]]``.
    """
    ends = np.concatenate((n1, n2))
    order = np.argsort(ends, kind="stable")
    start = np.searchsorted(ends[order], np.arange(n + 1))
    return (start.tolist(), np.concatenate((n2, n1))[order].tolist(),
            (order % n1.size).tolist())


def _reachable(idx: _Index) -> np.ndarray:
    """Which nodes a breadth-first walk from terminal a reaches."""
    start, nbr, _ = _neighbours(len(idx.names), idx.n1, idx.n2)
    seen = bytearray(len(idx.names))
    seen[idx.a] = 1
    queue = [idx.a]
    for p in queue:
        for q in nbr[start[p]:start[p + 1]]:
            if not seen[q]:
                seen[q] = 1
                queue.append(q)
    return np.frombuffer(seen, dtype=np.uint8).astype(bool)


def validate(c: Circuit) -> ValidationReport:
    """Report structural problems instead of raising.

    Errors: degenerate port (a == b), self-loop branches, disconnected
    nodes, no a-b path.  Warnings: dangling non-port nodes (they carry no
    current but are solvable).  A report without errors is kept on the
    circuit, so a valid circuit is checked once; an invalid one is checked
    on every call.
    """
    rep = c.__dict__.get("_report")
    if rep is None:
        rep = _check(c)
        if rep.ok:
            c.__dict__["_report"] = rep
    return rep


def _require_valid(c: Circuit) -> None:
    """Raise ``ValueError`` listing the errors of an invalid circuit."""
    rep = validate(c)
    if not rep.ok:
        raise ValueError("invalid circuit: " + "; ".join(rep.errors()))


def _check(c: Circuit) -> ValidationReport:
    """The checks behind ``validate``, run every time."""
    issues: list[tuple[str, str]] = []
    idx = c._index
    names = idx.names
    a, b = c.input_port
    if a == b:
        issues.append(("error", f"degenerate port: both terminals are {a!r}"))
    loop = idx.n1 == idx.n2
    for i in np.flatnonzero(loop).tolist():
        issues.append(("error", f"branch {i + 1} is a self-loop on node {c.branches[i].n1!r}"))

    reached = _reachable(idx)
    for k in np.flatnonzero(~reached).tolist():
        issues.append(("error", f"disconnected node {names[k]!r} (unreachable from {a!r})"))
    if not reached[idx.b] and a != b:
        issues.append(("error", f"no path between input terminals {a!r} and {b!r}"))

    degree = np.bincount(np.concatenate((idx.n1[~loop], idx.n2[~loop])), minlength=len(names))
    degree[[idx.a, idx.b]] = 0
    for k in np.flatnonzero(degree == 1).tolist():
        issues.append(("warning", f"dangling node {names[k]!r} carries no current"))

    ok = not any(sev == "error" for sev, _ in issues)
    return ValidationReport(ok=ok, issues=tuple(issues))


def parse_netlist(text: str | Iterable[str]) -> Circuit:
    """Parse netlist text into a Circuit, preserving branch order."""
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [str(line).rstrip("\n") for line in text]

    port: tuple[str, str] | None = None
    branches: list[Branch] = []
    f_text: str | None = None
    mesh_specs: list[tuple[str, tuple[int, ...], int]] = []

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == ".input":
            if port is not None:
                raise NetlistError("duplicate .input directive", lineno)
            if len(tokens) != 3:
                raise NetlistError(".input expects exactly two node names", lineno)
            port = (tokens[1], tokens[2])
        elif directive == ".branch":
            args = tokens[1:]
            w = 1
            if args and args[-1].startswith("w="):
                wtext = args[-1][2:]
                try:
                    w = int(wtext)
                except ValueError:
                    raise NetlistError(f"bad multiplicity {wtext!r}", lineno) from None
                if w < 1:
                    raise NetlistError(f"multiplicity must be a positive integer, got {w}", lineno)
                args = args[:-1]
            if len(args) != 2:
                raise NetlistError(".branch expects two node names and optional w=K", lineno)
            if any("=" in tok for tok in args):
                raise NetlistError("unexpected key=value token in .branch", lineno)
            branches.append(Branch(args[0], args[1], w))
        elif directive == ".f":
            if len(tokens) != 2:
                raise NetlistError(".f expects one D:alpha[,D:alpha...] argument", lineno)
            if f_text is not None:
                raise NetlistError("duplicate .f directive", lineno)
            # validated eagerly so the error points at the right line
            from .characteristic import parse_characteristic

            try:
                parse_characteristic(tokens[1])
            except ValueError as exc:
                raise NetlistError(str(exc), lineno) from None
            f_text = tokens[1]
        elif directive == ".mesh":
            if len(tokens) < 3:
                raise NetlistError(".mesh expects a name and at least one branch index", lineno)
            try:
                idx = tuple(int(tok) for tok in tokens[2:])
            except ValueError:
                raise NetlistError("mesh branch indices must be integers", lineno) from None
            if any(i == 0 for i in idx):
                raise NetlistError("mesh branch indices are signed and 1-based; 0 is invalid", lineno)
            mesh_specs.append((tokens[1], idx, lineno))
        elif directive.startswith("."):
            raise NetlistError(f"unknown directive {directive!r}", lineno)
        else:
            raise NetlistError(f"expected a directive, got {directive!r}", lineno)

    if port is None:
        raise NetlistError("missing .input directive")
    for name, idx, lineno in mesh_specs:
        for i in idx:
            if abs(i) > len(branches):
                raise NetlistError(
                    f"mesh {name!r} references branch {abs(i)} but only "
                    f"{len(branches)} branches are declared", lineno)
    meshes = tuple(Mesh(name, idx) for name, idx, _ in mesh_specs)
    return Circuit(tuple(branches), port, f_text=f_text, meshes=meshes)


def render_netlist(c: Circuit) -> str:
    """Inverse of parse_netlist for circuits without isolated nodes."""
    out = [f".input {c.a} {c.b}"]
    if c.f_text is not None:
        out.append(f".f {c.f_text}")
    for br in c.branches:
        if br.w == 1:
            out.append(f".branch {br.n1} {br.n2}")
        else:
            out.append(f".branch {br.n1} {br.n2} w={br.w}")
    for m in c.meshes:
        out.append(f".mesh {m.name} " + " ".join(str(i) for i in m.branches))
    return "\n".join(out) + "\n"


CANONICAL_NAMES = ("fig_a1", "fig3", "fig4", "ladder", "fig_b1")

# The four-node reference one-port: a direct a-b conductor, a divider node
# o fed from a, and a two-conductor limb o-x-b in parallel with o-b.
_FIG_A1_BRANCHES = (
    Branch("a", "b"),
    Branch("a", "o"),
    Branch("o", "b"),
    Branch("o", "x"),
    Branch("x", "b"),
)

# Same graph, plus the loop basis used by the mesh-current (resistive)
# formulation: the source loop closes through the direct a-b conductor.
_FIG_B1_MESHES = (
    Mesh("source", (1,)),
    Mesh("m1", (-1, 2, 3)),
    Mesh("m2", (-3, 4, 5)),
)


def build_canonical(name: str, sections: int | None = None, central: bool = False) -> Circuit:
    """Construct one of the built-in reference topologies.

    fig_a1   four nodes {a, o, x, b}, five conductors (a-b, a-o, o-b, o-x, x-b)
    fig3     fig_a1's non-direct part "A" plus two separated parallel input
             branches: a single a-b conductor and a two-conductor chain a-p-b
    fig4     direct a-b conductor, two chains a-c-d-b and a-e-f-b, and
             cross conductors c-e, d-f; its node ratios are independent of
             the conductor law, so the structural superposition is exact
    ladder   ``sections`` repeated {top series, bottom series, shunt} cells
             truncated after the last shunt; ``central=True`` prepends a
             direct a-b conductor
    fig_b1   fig_a1's graph carrying the mesh basis for the resistive dual
    """
    if name == "fig_a1":
        return Circuit(_FIG_A1_BRANCHES, ("a", "b"))
    if name == "fig_b1":
        return Circuit(_FIG_A1_BRANCHES, ("a", "b"), meshes=_FIG_B1_MESHES)
    if name == "fig3":
        branches = (
            Branch("a", "b"),
            Branch("a", "p"),
            Branch("p", "b"),
            Branch("a", "o"),
            Branch("o", "b"),
            Branch("o", "x"),
            Branch("x", "b"),
        )
        return Circuit(branches, ("a", "b"))
    if name == "fig4":
        branches = (
            Branch("a", "b"),
            Branch("a", "c"),
            Branch("c", "d"),
            Branch("d", "b"),
            Branch("a", "e"),
            Branch("e", "f"),
            Branch("f", "b"),
            Branch("c", "e"),
            Branch("d", "f"),
        )
        return Circuit(branches, ("a", "b"))
    if name == "ladder":
        if sections is None:
            raise ValueError("ladder needs a sections count")
        n = int(sections)
        if n < 1:
            raise ValueError(f"ladder needs at least one section, got {n}")
        branches: list[Branch] = []
        if central:
            branches.append(Branch("a", "b"))
        top_prev, bot_prev = "a", "b"
        for i in range(1, n + 1):
            top, bot = f"c{i}", f"d{i}"
            branches.append(Branch(top_prev, top))
            branches.append(Branch(bot_prev, bot))
            branches.append(Branch(top, bot))
            top_prev, bot_prev = top, bot
        return Circuit(tuple(branches), ("a", "b"))
    raise ValueError(f"unknown canonical circuit {name!r}; expected one of {CANONICAL_NAMES}")
