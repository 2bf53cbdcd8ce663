"""The materialized-view cache with delta maintenance.

A cache entry remembers the *result set* of a recognized pipeline, keyed
by a structural fingerprint (the rendered plan plus the identities of the
source classes).  Validity is governed by three mechanisms, checked at
every serve:

* **global-binding identity** — the stage terms' free names must still be
  bound to the very values they had at build time (a session-level
  ``val`` rebinding silently changes what the query means, and no store
  stamp moves);
* **version stamps** — every class extent and store location read during
  the build (recorded by :class:`~repro.query.tracking.DepTracker`) must
  still carry its recorded version.  Stamps are monotonic and never
  reused, so once the walk runs it also catches transaction rollbacks,
  which restore values and stamps *without* notifications;
* **the store watermark** — when the store's stamp counter has not moved
  since the entry was last validated, nothing anywhere was written and
  the version walk is skipped entirely.  A rollback restores old stamps,
  so it also draws one fresh stamp to move the counter.

Maintenance is incremental where it can be proven local.  For a pipeline
over a single include-free extent whose stages are element-wise
(filter / re-view / select, plus at most a trailing map — the shapes
where per-element processing provably equals the staged fold, because no
intermediate stage can manufacture duplicates), the entry keeps
``(source key, outputs)`` pairs: an ``insert`` appends pairs by running
the stages on just the new elements, a ``delete`` drops pairs.  Deltas
are queued by the store notification and applied lazily at the next
serve, gated on a contiguous version chain.  Every other write the entry
depends on — a mutable-field write a predicate read, an insert into an
included source class — cannot be localized and drops the entry, falling
back to recomputation (which re-caches).

One semantic note: a cache hit serves the *same* result values as the
previous execution — database-view memoization.  For queries whose
result elements come from the source extent (every delta-maintained
shape) this is indistinguishable from re-evaluation; for queries that
allocate fresh object identities per run (``relation`` bodies, views
that build new objects) the served identities are those of the cached
run rather than fresh ones, so optimized evaluation is equivalent to
naive evaluation *up to the renaming of freshly allocated oids* — the
same equivalence that relates any two naive runs to each other.
"""

from __future__ import annotations

from ..errors import EvalError
from ..eval.equality import value_key
from ..eval.store import Location
from ..eval.values import VBool, VClass, VObject, Value
from .ir import FilterStage, MapStage, SelectStage, Stage, ViewStage
from .tracking import DepTracker, recording_reads

__all__ = ["MatView", "ViewCache", "build_stage_plan", "run_element"]


def build_stage_plan(machine, stages: list[Stage], env) -> list | None:
    """Evaluate stage terms to closures for per-element execution.

    Returns ``None`` when the stage sequence is not element-wise (see the
    module docstring) — such plans are cached without delta maintenance.
    """
    ops: list[tuple] = []
    last = len(stages) - 1
    for i, stage in enumerate(stages):
        if isinstance(stage, FilterStage):
            ops.append(("filter", machine.eval(stage.pred, env)))
        elif isinstance(stage, SelectStage):
            ops.append(("select", machine.eval(stage.view, env),
                        machine.eval(stage.pred, env)))
        elif isinstance(stage, ViewStage):
            ops.append(("view", [machine.eval(v, env) for v in stage.views]))
        elif isinstance(stage, MapStage) and i == last:
            ops.append(("map", machine.eval(stage.fn, env)))
        else:
            return None
    return ops


def run_element(machine, stage_plan: list, elem: Value) -> list[Value]:
    """Run one source element through an element-wise stage plan."""
    current = [elem]
    for op in stage_plan:
        kind = op[0]
        nxt: list[Value] = []
        for e in current:
            if kind == "filter":
                verdict = machine.apply(op[1], e)
                if not isinstance(verdict, VBool):
                    raise EvalError("if condition must be a bool")
                if verdict.value:
                    nxt.append(e)
            elif kind == "select":
                verdict = machine.apply(op[2], e)
                if not isinstance(verdict, VBool):
                    raise EvalError("if condition must be a bool")
                if verdict.value:
                    if not isinstance(e, VObject):
                        raise EvalError("'as' expects an object")
                    nxt.append(machine.compose_view(op[1], e))
            elif kind == "view":
                if not isinstance(e, VObject):
                    raise EvalError("'as' expects an object")
                obj = e
                for vv in op[1]:
                    obj = machine.compose_view(vv, obj)
                nxt.append(obj)
            else:  # map
                nxt.append(machine.apply(op[1], e))
        current = nxt
    return current


class MatView:
    """One cached result set and everything that gates its validity."""

    __slots__ = ("fingerprint", "source_cls", "stage_plan", "pairs",
                 "results", "deps", "globals_snapshot", "pending",
                 "watermark")

    def __init__(self, fingerprint: str, deps: DepTracker,
                 globals_snapshot: dict[str, Value], watermark: int,
                 source_cls: VClass | None = None,
                 stage_plan: list | None = None,
                 pairs: list[tuple[tuple, list[Value]]] | None = None,
                 results: list[Value] | None = None) -> None:
        self.fingerprint = fingerprint
        self.deps = deps
        self.globals_snapshot = globals_snapshot
        self.watermark = watermark
        #: Set for delta-capable entries (single include-free extent,
        #: element-wise stages); None otherwise.
        self.source_cls = source_cls
        self.stage_plan = stage_plan
        self.pairs = pairs
        #: Flat result elements for entries without delta maintenance.
        self.results = results
        #: Queued (added, removed_src_keys, old_version, new_version).
        self.pending: list[tuple[list, frozenset, int, int]] = []

    def elements(self) -> list[Value]:
        if self.pairs is not None:
            return [v for _key, outs in self.pairs for v in outs]
        return list(self.results or [])


class ViewCache:
    """All cached views of one session's store."""

    __slots__ = ("machine", "seen", "entries", "hits", "builds", "deltas",
                 "invalidations")

    def __init__(self, machine) -> None:
        self.machine = machine
        #: fingerprint -> times requested (drives the materialize gate)
        self.seen: dict[str, int] = {}
        self.entries: dict[str, MatView] = {}
        self.hits = 0
        self.builds = 0
        self.deltas = 0
        self.invalidations = 0

    def note_seen(self, fingerprint: str) -> int:
        count = self.seen.get(fingerprint, 0) + 1
        self.seen[fingerprint] = count
        return count

    def put(self, entry: MatView) -> None:
        self.entries[entry.fingerprint] = entry
        self.builds += 1

    def lookup(self, fingerprint: str,
               globals_now: dict[str, Value]) -> MatView | None:
        """A validated entry ready to serve, or None (dropping it stale)."""
        entry = self.entries.get(fingerprint)
        if entry is None:
            return None
        for name, val in entry.globals_snapshot.items():
            if globals_now.get(name) is not val:
                self._drop(fingerprint)
                return None
        if not self._refresh(entry):
            self._drop(fingerprint)
            return None
        entry.watermark = self.machine.store._stamp
        self.hits += 1
        return entry

    def register_reads(self, entry: MatView) -> None:
        """Serving from cache must register the same reads the
        recomputation would — the OCC read set cannot shrink."""
        t = self.machine.store.tracker
        if t is None:
            return
        for cls, _version in entry.deps.extents.values():
            t.did_read_extent(cls)
        for loc, _version in entry.deps.locations.values():
            t.did_read(loc)

    # -- store notifications ------------------------------------------------

    def extent_replaced(self, cls: VClass, old_own, old_version: int) -> None:
        for fp, entry in list(self.entries.items()):
            if cls.oid not in entry.deps.extents:
                continue
            if (entry.pairs is not None and cls is entry.source_cls
                    and not cls.includes and len(entry.deps.extents) == 1):
                added = [e for e in cls.own.elems
                         if value_key(e) not in old_own.keys]
                removed = frozenset(old_own.keys - cls.own.keys)
                entry.pending.append((added, removed, old_version,
                                      cls.version))
            else:
                self._drop(fp)

    def location_written(self, loc: Location) -> None:
        for fp, entry in list(self.entries.items()):
            if loc.id in entry.deps.locations:
                self._drop(fp)

    # -- internals ----------------------------------------------------------

    def _drop(self, fingerprint: str) -> None:
        if self.entries.pop(fingerprint, None) is not None:
            self.invalidations += 1

    def _refresh(self, entry: MatView) -> bool:
        store = self.machine.store
        if store._stamp == entry.watermark and not entry.pending:
            # Nothing anywhere was written since the last validation.
            return True
        for added, removed, old_version, new_version in entry.pending:
            cls = entry.source_cls
            dep = entry.deps.extents.get(cls.oid)
            if dep is None or dep[1] != old_version:
                return False
            if removed:
                entry.pairs = [p for p in entry.pairs
                               if p[0] not in removed]
            for elem in added:
                with recording_reads(store) as new_deps:
                    outs = run_element(self.machine, entry.stage_plan, elem)
                for lid, pair in new_deps.locations.items():
                    entry.deps.locations.setdefault(lid, pair)
                entry.pairs.append((value_key(elem), outs))
            entry.deps.extents[cls.oid] = (cls, new_version)
            self.deltas += 1
        entry.pending.clear()
        for cls, version in entry.deps.extents.values():
            if cls.version != version:
                return False
        for loc, version in entry.deps.locations.values():
            if loc.version != version:
                return False
        return True
