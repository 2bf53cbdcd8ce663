"""Footprint-partitioned shards: a conflict graph's parallelism report.

Given a :class:`~repro.analysis.workload.ConflictGraph`, derive a
**shard partition** of the workload's footprint roots (named objects,
class extents, session bindings) such that a maximal fraction of the
programs is *statically single-shard* — every root a program may touch
lives in one shard.  Single-shard programs of different shards are
provably disjoint, so the partition reports how much of a workload
could commit without ever conflicting (``repro-lint --workload``,
:meth:`repro.lang.api.Session.explain_workload`).  It is a report: the
server does not consume it, and runs every transaction under dynamic
OCC.

The derivation is two-phase:

1. **co-access components** — roots touched by one bounded program must
   share a shard (a program's roots form a clique), so the co-access
   graph's connected components are the finest partition with a 100%
   single-shard fraction.  With a live session, roots whose *resolved*
   state overlaps (``Emp``'s extent contains ``joe``) are unioned too.
2. **greedy packing / min-cut** — components are packed onto the
   requested shard count largest-first (LPT).  When there are *fewer*
   components than shards, the heaviest component is split by a greedy
   min-cut over program hyperedges: the split sacrifices the straddling
   programs (they become cross-shard) and is accepted only while it
   improves balance without cutting every program.

Roots that every program only *reads* (reference data: a rate table, a
lookup relation) would otherwise glue unrelated write components into
one shard — every program reads them.  The derivation instead marks a
read-only root read from two or more write components as **shared**:
excluded from every shard and ignored in read sets, while a program
that *writes* a shared root is cross-shard.
"""

from __future__ import annotations

from typing import Optional

from ..errors import PartitionError
from .regions import FootprintSummary
from .workload import ConflictGraph, WorkloadProgram

__all__ = ["PartitionPlan", "partition_workload", "render_partition"]


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class PartitionPlan:
    """A shard partition of footprint roots.

    ``shards`` is a tuple of disjoint, non-empty frozensets of root
    names; ``assignments`` records the derivation's program placement
    (name → shard index, or ``None`` for cross-shard/⊤ programs).
    ``ambient`` records the stateless environment names (builtins,
    prelude) whose *reads* :meth:`classify` ignores: every program reads
    ``+``, and a plan that counted that would place nothing.  ``shared``
    records workload-read-only roots (reference data) that classify
    likewise ignores in *read* sets only.
    """

    VERSION = 1

    __slots__ = ("shards", "assignments", "ambient", "shared",
                 "_root_shard")

    def __init__(self, shards, assignments: dict | None = None,
                 ambient=frozenset(), shared=frozenset()):
        shards = tuple(frozenset(s) for s in shards)
        self.ambient = frozenset(ambient)
        self.shared = frozenset(shared)
        root_shard: dict[str, int] = {}
        for i, shard in enumerate(shards):
            if not shard:
                raise PartitionError(f"shard {i} is empty")
            for root in shard:
                if root in root_shard:
                    raise PartitionError(
                        f"root '{root}' appears in shards "
                        f"{root_shard[root]} and {i}; shards must be "
                        "disjoint")
                if root in self.shared:
                    raise PartitionError(
                        f"root '{root}' is both shared and in shard {i}")
                root_shard[root] = i
        self.shards = shards
        self.assignments = dict(assignments or {})
        self._root_shard = root_shard

    def __len__(self) -> int:
        return len(self.shards)

    def shard_of(self, root: str) -> Optional[int]:
        return self._root_shard.get(root)

    def classify(self, summary: Optional[FootprintSummary]) -> Optional[int]:
        """The single shard every root of ``summary`` lives in, else None.

        ``None`` means the program is not statically single-shard: the
        summary is missing (opaque Python body), ⊤, touches a root
        outside every shard, straddles shards, or has no roots at all
        (trivially disjoint from everything).
        """
        if summary is None or summary.writes is None:
            return None
        roots = (summary.reads - self.ambient - self.shared) \
            | summary.writes
        shards = {self._root_shard.get(root) for root in roots}
        if len(shards) != 1 or None in shards:
            return None
        return shards.pop()

    # -- the ``repro-lint --workload --format=json`` payload ----------------

    def to_dict(self) -> dict:
        return {
            "version": self.VERSION,
            "shards": [sorted(s) for s in self.shards],
            "ambient": sorted(self.ambient),
            "shared": sorted(self.shared),
            "assignments": {name: shard for name, shard
                            in sorted(self.assignments.items())},
        }


# ---------------------------------------------------------------------------
# Derivation: components, packing, greedy min-cut
# ---------------------------------------------------------------------------

def _program_root_sets(graph: ConflictGraph) -> list[tuple[str, frozenset]]:
    return [(p.name, p.roots) for p in graph.programs
            if p.bounded and p.roots]


def _alias_groups(roots: set, session) -> list[frozenset]:
    """Partition ``roots`` into live-aliasing groups.

    Roots whose reachable state overlaps (``Emp``'s extent contains
    ``joe``) must never be separated — not by component formation and
    not by a later min-cut split — so the whole derivation treats each
    group as one atomic unit.  Without a session every root is its own
    group.
    """
    if session is None or not roots:
        return [frozenset([r]) for r in sorted(roots)]
    from .regions import reachable_state
    uf = _UnionFind()
    frame = session._global_frame
    atom_owner: dict = {}
    for root in sorted(roots):
        uf.find(root)
        value = frame.get(root)
        if value is None:
            continue
        locs, exts = reachable_state(value)
        for atom in [("loc", i) for i in locs] + [("ext", o) for o in exts]:
            if atom in atom_owner:
                uf.union(atom_owner[atom], root)
            else:
                atom_owner[atom] = root
    groups: dict[str, set] = {}
    for root in roots:
        groups.setdefault(uf.find(root), set()).add(root)
    return [frozenset(g) for g in groups.values()]


def _components(programs: list[tuple[str, frozenset]]) -> list[set]:
    """Co-access components: one program's units form a clique."""
    uf = _UnionFind()
    units: set = set()
    for _name, rs in programs:
        rs = sorted(rs)
        units.update(rs)
        for other in rs[1:]:
            uf.union(rs[0], other)
    comps: dict[str, set] = {}
    for unit in units:
        comps.setdefault(uf.find(unit), set()).add(unit)
    return list(comps.values())


def _component_weight(comp: set, programs: list[tuple[str, frozenset]]) -> int:
    return sum(1 for _name, rs in programs if rs & comp)


def _min_cut_split(comp: set,
                   programs: list[tuple[str, frozenset]]
                   ) -> Optional[tuple[set, set, list[str]]]:
    """Greedily 2-partition ``comp``, minimizing straddling programs.

    Returns ``(left, right, cut_program_names)`` or None when no split
    keeps at least one program single-shard on each side's worth of
    work (cutting *every* program buys nothing).
    """
    inside = [(name, rs & comp) for name, rs in programs if rs & comp]
    roots = sorted(comp)
    if len(roots) < 2:
        return None
    touch = {r: sum(1 for _n, rs in inside if r in rs) for r in roots}
    # Seed the sides with the two heaviest roots that no program
    # co-accesses (else the two heaviest overall).
    ordered = sorted(roots, key=lambda r: (-touch[r], r))
    seed_a = ordered[0]
    seed_b = next((r for r in ordered[1:]
                   if not any(seed_a in rs and r in rs for _n, rs in inside)),
                  ordered[1])
    side = {seed_a: 0, seed_b: 1}
    for r in ordered:
        if r in side:
            continue
        # Affinity: programs linking r to roots already on each side.
        aff = [0, 0]
        for _n, rs in inside:
            if r not in rs:
                continue
            for s in rs:
                if s in side and s != r:
                    aff[side[s]] += 1
        if aff[0] != aff[1]:
            side[r] = 0 if aff[0] > aff[1] else 1
        else:  # tie: balance by touch weight
            w0 = sum(touch[s] for s in side if side[s] == 0)
            w1 = sum(touch[s] for s in side if side[s] == 1)
            side[r] = 0 if w0 <= w1 else 1

    def cut_programs() -> list[str]:
        out = []
        for name, rs in inside:
            sides = {side[r] for r in rs}
            if len(sides) > 1:
                out.append(name)
        return out

    # One refinement sweep: move a root across if it reduces the cut.
    for r in ordered:
        before = len(cut_programs())
        side[r] ^= 1
        if len(cut_programs()) >= before or \
                not any(s == 0 for s in side.values()) or \
                not any(s == 1 for s in side.values()):
            side[r] ^= 1
    left = {r for r in roots if side[r] == 0}
    right = {r for r in roots if side[r] == 1}
    cut = cut_programs()
    if not left or not right or len(cut) >= len(inside):
        return None
    return left, right, sorted(cut)


def partition_workload(graph: ConflictGraph, shards: int = 4,
                       session=None) -> PartitionPlan:
    """Derive a :class:`PartitionPlan` with at most ``shards`` shards.

    The plan never has *more* than ``shards`` shards and may have fewer
    (a workload whose roots all co-occur cannot be split without
    sacrificing every program).  With a ``session``, roots that reach
    shared live state are forced into one shard, so no two shards (nor a
    shared root and a shard) alias on that session's heap.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    programs = _program_root_sets(graph)
    all_roots: set = set()
    for _name, rs in programs:
        all_roots |= rs
    written: set = set()
    for p in graph.programs:
        if p.bounded:
            written |= p.writes
    # Contract live-aliasing groups into atomic units: no later step
    # (component formation, splitting, packing) can then separate roots
    # that reach shared state.
    groups = _alias_groups(all_roots, session)
    rep = {root: min(g) for g in groups for root in g}
    members = {min(g): set(g) for g in groups}
    unit_written = {u for u, mem in members.items() if mem & written}
    call = [(name, frozenset(rep[r] for r in rs)) for name, rs in programs]
    # Workload-read-only units read from two or more *write* components
    # are reference data: gluing those components into one shard would
    # cost real parallelism, so mark the unit shared instead (readable
    # from every shard; any writer is cross-shard).
    uf = _UnionFind()
    for _name, units in call:
        w = sorted(u for u in units if u in unit_written)
        for u in w:
            uf.find(u)
        for other in w[1:]:
            uf.union(w[0], other)
    shared_units: set = set()
    for u in sorted({u for _n, us in call for u in us} - unit_written):
        comps_reading = {uf.find(w) for _name, units in call if u in units
                        for w in units if w in unit_written}
        if len(comps_reading) >= 2:
            shared_units.add(u)
    cprograms = [(name, frozenset(units - shared_units))
                 for name, units in call]
    cprograms = [(name, units) for name, units in cprograms if units]
    comps = _components(cprograms)
    if not comps:
        raise PartitionError(
            "workload has no bounded program with roots: nothing to "
            "partition")
    parts = sorted(comps, key=lambda c: (-_component_weight(c, cprograms),
                                         sorted(c)))
    # Split the heaviest part while we are short of the target and a
    # beneficial (not-everything-cut) split exists.
    while len(parts) < shards:
        parts.sort(key=lambda c: (-_component_weight(c, cprograms),
                                  sorted(c)))
        split = None
        for i, part in enumerate(parts):
            split = _min_cut_split(part, cprograms)
            if split is not None:
                left, right, _cut = split
                parts[i:i + 1] = [left, right]
                break
        if split is None:
            break
    # Pack largest-first onto the target shard count (LPT).
    bins: list[set] = [set() for _ in range(min(shards, len(parts)))]
    weights = [0] * len(bins)
    for part in sorted(parts, key=lambda c: (-_component_weight(c, cprograms),
                                             sorted(c))):
        i = weights.index(min(weights))
        bins[i].update(part)
        weights[i] += _component_weight(part, cprograms)
    bins = [b for b in bins if b]
    # Deterministic shard order: by least root name.
    bins.sort(key=lambda b: sorted(b))
    plan = PartitionPlan(
        [set().union(*(members[u] for u in b)) for b in bins],
        ambient=graph.ambient,
        shared=set().union(*(members[u] for u in shared_units))
        if shared_units else frozenset())
    assignments: dict[str, Optional[int]] = {}
    for p in graph.programs:
        assignments[p.name] = plan.classify(p.summary)
    plan.assignments.update(assignments)
    return plan


# ---------------------------------------------------------------------------
# Rendering (the ``repro-lint --workload`` partition report)
# ---------------------------------------------------------------------------

def _fmt(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def render_partition(plan: PartitionPlan, graph: ConflictGraph) -> str:
    """The stable partition report (golden-tested)."""
    by_shard: dict[int, list[str]] = {i: [] for i in range(len(plan))}
    cross: list[WorkloadProgram] = []
    unbounded: list[WorkloadProgram] = []
    pure: list[WorkloadProgram] = []
    for p in sorted(graph.programs, key=lambda p: p.name):
        shard = plan.classify(p.summary)
        if shard is not None:
            by_shard[shard].append(p.name)
        elif not p.bounded:
            unbounded.append(p)
        elif not p.roots:
            pure.append(p)
        else:
            cross.append(p)
    single = sum(len(v) for v in by_shard.values())
    total = len(graph.programs)
    pct = (100 * single // total) if total else 0
    lines = [f"partition: {len(plan)} shard(s), {single}/{total} "
             f"program(s) single-shard ({pct}%)"]
    for i, shard in enumerate(plan.shards):
        progs = ", ".join(by_shard[i]) or "(none)"
        lines.append(f"  shard {i}: roots {_fmt(shard)} — "
                     f"programs: {progs}")
    if plan.shared:
        lines.append(f"  shared (read-only): roots {_fmt(plan.shared)} — "
                     "readable from every shard")
    for p in cross:
        touched = sorted({plan.shard_of(r) for r in p.roots
                         if plan.shard_of(r) is not None})
        if touched:
            where = ("straddle shards "
                     + ", ".join(str(s) for s in touched))
        else:
            where = "are outside every shard"
        lines.append(f"  cross-shard: {p.name} "
                     f"(roots {_fmt(p.roots)} {where})")
    for p in pure:
        lines.append(f"  rootless: {p.name} (touches no named state — "
                     "conflicts with nothing)")
    for p in unbounded:
        lines.append(f"  unbounded: {p.name} (⊤ — conflicts with every "
                     "program)")
    return "\n".join(lines)
