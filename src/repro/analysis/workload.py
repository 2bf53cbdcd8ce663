"""Workload interference analysis (RP6xx) — the whole-workload layer.

The regions analysis (:mod:`repro.analysis.regions`) summarizes *one*
program as the global roots it may read or write.  This module lifts
those summaries to a **workload**: a set of named transaction programs
(registered procedures, or programs harvested from example files) whose
pairwise footprint overlap forms a **static conflict graph** — two
programs are connected exactly when no schedule interleaving them is
certainly serializable without validation:

* a *write-write* edge: both may write a common root;
* a *read-write* edge: one may read a root the other may write;
* a *⊤* edge: one program's write set is unbounded, so it conflicts
  with everything.

Anomaly detectors run over the graph and report through the normal
diagnostic machinery:

* **RP601** — a lost-update-prone pair: a read-modify-write program's
  read *and* write sets straddle another program's write set, the shape
  that loses an update under any non-validating scheduler (the OCC
  server retries it instead — at a throughput cost);
* **RP602** — a write-skew cycle: programs whose write sets are
  pairwise disjoint but who read each other's writes in a cycle, the
  classic snapshot-isolation anomaly — individually each pair looks
  harmless, only the cycle is not serializable;
* **RP603** — a ⊤-footprint program: it statically conflicts with every
  other program in the workload.

Edges are *root-name* level and purely static.  Distinct names can
still reach shared state at run time (``Emp``'s extent contains ``joe``);
when a live :class:`~repro.lang.api.Session` is supplied, every root is
additionally resolved to its reachable state atoms and programs whose
*resolved* footprints overlap get an **alias** edge — this is the form
the soundness property test pins against the :class:`SharingTracer`,
and the form :func:`repro.analysis.partition.partition_workload`
consumes before deriving shards.  The graph is a report: the server
does not read it, and runs every transaction under dynamic OCC.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .diagnostics import Diagnostic, DiagnosticSink
from .regions import (FootprintSummary, program_footprint, reachable_state,
                      resolve_footprint)

__all__ = [
    "WorkloadProgram", "ConflictEdge", "ConflictGraph", "ambient_names",
    "build_conflict_graph", "workload_anomalies", "render_conflict_graph",
]


def _fmt(names: Iterable[str]) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


_AMBIENT_CACHE: frozenset | None = None


def ambient_names(session=None) -> frozenset:
    """Names of the stateless standard environment.

    Every program's read set mentions the builtins and prelude
    functions it applies (``+``, ``map``, ...).  Those bindings reach no
    mutable state, so treating them as conflict roots would connect
    every pair of programs and force the whole catalog into one shard.
    With a ``session``, a name is ambient exactly when its *current*
    value reaches no state atoms (a rebound builtin stops being
    ambient); without one, the names of a fresh prelude-only session
    are used.
    """
    global _AMBIENT_CACHE
    if session is not None:
        out = set()
        for name, value in session._global_frame.items():
            locs, exts = reachable_state(value)
            if not locs and not exts:
                out.add(name)
        return frozenset(out)
    if _AMBIENT_CACHE is None:
        from ..lang.api import Session
        _AMBIENT_CACHE = frozenset(Session()._global_frame)
    return _AMBIENT_CACHE


class WorkloadProgram:
    """One named transaction program and its static footprint."""

    __slots__ = ("name", "src", "summary", "resolved", "ambient")

    def __init__(self, name: str, src: str, summary: FootprintSummary,
                 resolved=None, ambient: frozenset = frozenset()):
        self.name = name
        self.src = src
        self.summary = summary
        #: The live-session resolution (``ResolvedFootprint`` | None for
        #: ⊤/unresolvable), present only when the graph was built against
        #: a session.  ``()`` marks "no session": purely static.
        self.resolved = resolved
        self.ambient = ambient

    @property
    def bounded(self) -> bool:
        return self.summary.writes is not None

    @property
    def reads(self) -> frozenset:
        """Read roots, minus the ambient (stateless) environment."""
        return frozenset(self.summary.reads) - self.ambient

    @property
    def writes(self) -> Optional[frozenset]:
        """Write roots (never ambient-filtered: a written name holds state)."""
        return self.summary.writes

    @property
    def roots(self) -> frozenset:
        """Every root the program may touch (reads always cover writes)."""
        if self.summary.writes is None:
            return self.reads
        return self.reads | self.summary.writes


class ConflictEdge:
    """One undirected conflict-graph edge with its evidence."""

    __slots__ = ("a", "b", "kinds", "reasons")

    def __init__(self, a: str, b: str, kinds: tuple, reasons: tuple):
        self.a, self.b = sorted((a, b))
        self.kinds = tuple(kinds)      # subset of ("ww", "rw", "top", "alias")
        self.reasons = tuple(reasons)

    @property
    def key(self) -> tuple:
        return (self.a, self.b)

    def describe(self) -> str:
        return f"{self.a} ~ {self.b}: " + "; ".join(self.reasons)


class ConflictGraph:
    """The static conflict graph of one workload."""

    def __init__(self, programs: list[WorkloadProgram],
                 edges: list[ConflictEdge],
                 ambient: frozenset = frozenset()):
        self.programs = programs
        self.edges = edges
        #: The stateless names filtered out of every program's roots.
        self.ambient = ambient
        self._adjacent: dict[str, set[str]] = {p.name: set()
                                               for p in programs}
        for e in edges:
            self._adjacent[e.a].add(e.b)
            self._adjacent[e.b].add(e.a)

    def program(self, name: str) -> WorkloadProgram:
        for p in self.programs:
            if p.name == name:
                return p
        raise KeyError(name)

    def neighbors(self, name: str) -> set[str]:
        return set(self._adjacent[name])

    def edge(self, a: str, b: str) -> Optional[ConflictEdge]:
        key = tuple(sorted((a, b)))
        for e in self.edges:
            if e.key == key:
                return e
        return None

    def has_edge(self, a: str, b: str) -> bool:
        return b in self._adjacent.get(a, ())


def _pair_edge(pa: WorkloadProgram, pb: WorkloadProgram,
               with_alias: bool) -> Optional[ConflictEdge]:
    kinds: list[str] = []
    reasons: list[str] = []
    for p, q in ((pa, pb), (pb, pa)):
        if p.summary.writes is None:
            kinds.append("top")
            reasons.append(f"{p.name}'s footprint is not statically "
                           "bounded (⊤)")
    if "top" in kinds:
        return ConflictEdge(pa.name, pb.name, kinds, reasons)

    ww = pa.writes & pb.writes
    if ww:
        kinds.append("ww")
        reasons.append(f"both write {_fmt(ww)}")
    for p, q in ((pa, pb), (pb, pa)):
        rw = (p.reads - p.writes) & q.writes
        if rw:
            kinds.append("rw")
            reasons.append(f"{p.name} reads {_fmt(rw)}, "
                           f"which {q.name} writes")
    if not kinds and with_alias:
        # Name-disjoint, but the live heap may still share state below
        # distinct roots (a class extent containing a named object).
        ra, rb = pa.resolved, pb.resolved
        if ra is None or rb is None or ra.overlaps(rb):
            kinds.append("alias")
            reasons.append("roots resolve to shared state in the live "
                           "session" if ra is not None and rb is not None
                           else "a footprint did not resolve against the "
                                "live session")
    if not kinds:
        return None
    return ConflictEdge(pa.name, pb.name, kinds, reasons)


def build_conflict_graph(programs: Mapping[str, str],
                         latent_names: set[str] | None = None,
                         session=None) -> ConflictGraph:
    """Summarize every program and connect the statically conflicting pairs.

    ``programs`` maps program names to surface-language sources.  With a
    ``session``, summaries use the session's purity knowledge, roots are
    resolved against the live heap, and name-disjoint programs whose
    resolved footprints overlap (or fail to resolve) get ``alias`` edges
    — without one, edges are purely name-level.
    """
    if session is not None and latent_names is None:
        latent_names = session.purity.snapshot()
    ambient = ambient_names(session)
    nodes: list[WorkloadProgram] = []
    for name in programs:
        summary = program_footprint(programs[name], latent_names)
        resolved = ()
        if session is not None:
            resolved = resolve_footprint(summary, session)
        nodes.append(WorkloadProgram(name, programs[name], summary,
                                     resolved, ambient))
    edges: list[ConflictEdge] = []
    with_alias = session is not None
    for i, pa in enumerate(nodes):
        for pb in nodes[i + 1:]:
            edge = _pair_edge(pa, pb, with_alias)
            if edge is not None:
                edges.append(edge)
    edges.sort(key=lambda e: e.key)
    return ConflictGraph(nodes, edges, ambient)


# ---------------------------------------------------------------------------
# Anomaly detectors (RP601/RP602/RP603)
# ---------------------------------------------------------------------------

def _lost_update_pairs(graph: ConflictGraph) -> list[tuple]:
    """(a, b, roots): ``a`` read-modify-writes roots that ``b`` also
    writes — the lost-update shape."""
    out = []
    bounded = [p for p in graph.programs if p.bounded]
    for pa in bounded:
        rmw = pa.reads & pa.writes
        if not rmw:
            continue
        for pb in bounded:
            if pb.name == pa.name:
                continue
            shared = rmw & pb.writes
            if shared:
                out.append((pa.name, pb.name, frozenset(shared)))
    # Report each unordered pair once, merging both directions' roots.
    merged: dict[tuple, set] = {}
    for a, b, roots in out:
        merged.setdefault(tuple(sorted((a, b))), set()).update(roots)
    return [(a, b, frozenset(roots))
            for (a, b), roots in sorted(merged.items())]


def _write_skew_cycles(graph: ConflictGraph) -> list[tuple[str, ...]]:
    """Cycles of bounded programs reading each other's writes with
    pairwise-disjoint write sets (the write-skew shape).

    Returns each cycle once, rotated to start at its least name.
    """
    bounded = {p.name: p for p in graph.programs if p.bounded}
    succ: dict[str, list[str]] = {n: [] for n in bounded}
    for a in bounded.values():
        for b in bounded.values():
            if a.name == b.name or (a.writes & b.writes):
                continue  # a ww pair is RP601 territory, not write skew
            if (a.reads - a.writes) & b.writes:
                succ[a.name].append(b.name)

    cycles: set[tuple[str, ...]] = set()

    def canonical(path: tuple[str, ...]) -> tuple[str, ...]:
        i = path.index(min(path))
        return path[i:] + path[:i]

    # Bounded DFS: workloads are small (tens of programs), and write-skew
    # evidence beyond a handful of participants reads as noise anyway.
    def walk(start: str, node: str, path: tuple[str, ...]) -> None:
        for nxt in succ[node]:
            if nxt == start and len(path) >= 2:
                cycles.add(canonical(path))
            elif nxt not in path and len(path) < 5 and nxt > start:
                walk(start, nxt, path + (nxt,))

    for start in sorted(succ):
        walk(start, start, (start,))
    # Drop cycles that are a rotation-invariant superset of a reported
    # 2-cycle's participants only if identical; keep it simple: report
    # all distinct canonical cycles, shortest first.
    return sorted(cycles, key=lambda c: (len(c), c))


def workload_anomalies(graph: ConflictGraph,
                       sink: DiagnosticSink | None = None) -> DiagnosticSink:
    """Run the RP6xx detectors over a conflict graph."""
    if sink is None:
        sink = DiagnosticSink()
    for a, b, roots in _lost_update_pairs(graph):
        sink.emit(
            "RP601",
            f"programs '{a}' and '{b}' race on {_fmt(roots)}: a "
            "read-modify-write straddles the other's write set",
            notes=("under OCC the loser aborts and retries",))
    for cycle in _write_skew_cycles(graph):
        arrows = " -> ".join(cycle + (cycle[0],))
        detail = []
        for i, name in enumerate(cycle):
            nxt = graph.program(cycle[(i + 1) % len(cycle)])
            p = graph.program(name)
            shared = (p.reads - p.writes) & nxt.writes
            detail.append(f"{name} reads {_fmt(shared)} written by "
                          f"{nxt.name}")
        sink.emit(
            "RP602",
            f"write-skew cycle {arrows}: " + "; ".join(detail),
            notes=("write sets are pairwise disjoint, so no pair shares "
                   "a write — only the cycle is non-serializable without "
                   "read validation",))
    for p in graph.programs:
        if not p.bounded:
            why = "; ".join(p.summary.reasons) or "write set widened to ⊤"
            sink.emit(
                "RP603",
                f"program '{p.name}' has a ⊤ footprint ({why}): it "
                "statically conflicts with every program in the workload",
                notes=("its conflicts show only at run time, through OCC "
                       "validation",))
    return sink


# ---------------------------------------------------------------------------
# Rendering (the ``repro-lint --workload`` conflict-graph report)
# ---------------------------------------------------------------------------

def render_conflict_graph(graph: ConflictGraph) -> str:
    """The stable multi-line conflict-graph report (golden-tested)."""
    bounded = sum(1 for p in graph.programs if p.bounded)
    top = len(graph.programs) - bounded
    head = (f"workload: {len(graph.programs)} program(s) "
            f"({bounded} bounded, {top} ⊤), "
            f"{len(graph.edges)} conflict edge(s)")
    lines = [head, "", "conflict graph:"]
    if not graph.edges:
        lines.append("  (no statically conflicting pairs)")
    for e in graph.edges:
        lines.append("  " + e.describe())
    lines += ["", "footprints:"]
    for p in sorted(graph.programs, key=lambda p: p.name):
        lines.append(f"  {p.name}: " + p.summary.describe()
                     .replace("footprint: ", ""))
    return "\n".join(lines)


def graph_to_dict(graph: ConflictGraph,
                  anomalies: Iterable[Diagnostic] = ()) -> dict:
    """The machine-readable form (``repro-lint --workload --format=json``)."""
    return {
        "programs": [
            {"name": p.name,
             "bounded": p.bounded,
             "reads": sorted(p.summary.reads),
             "writes": (None if p.summary.writes is None
                        else sorted(p.summary.writes)),
             "extent_writes": sorted(p.summary.extent_writes)}
            for p in sorted(graph.programs, key=lambda p: p.name)],
        "edges": [
            {"a": e.a, "b": e.b, "kinds": sorted(set(e.kinds)),
             "reasons": list(e.reasons)}
            for e in graph.edges],
        "anomalies": [
            {"code": d.code, "severity": d.severity.value,
             "message": d.message, "reasons": list(d.notes)}
            for d in anomalies],
    }
