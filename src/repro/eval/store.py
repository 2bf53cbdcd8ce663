"""The store of mutable record fields, with an undo journal.

The paper's operational semantics implements records by references; mutable
fields denote *L-values* that can be shared between records via ``extract``.
Here an L-value is a :class:`Location` — a first-class mutable cell.  The
:class:`Store` is the allocator; it exists (rather than bare cells) so that
allocation metrics are observable by the benchmark harness, and so that
mutation can be made *transactional*: inside a savepoint every write and
allocation is journaled, and :meth:`Store.rollback` restores the exact
pre-savepoint state — including the location-id counter, so a rolled-back
and retried program allocates the same ids (deterministic replay).

Location ids are per-:class:`Store`: two sessions running the same program
observe the same ids.  Constructing a :class:`Location` directly (outside
any store) falls back to a module-level counter and is not transactional.

Concurrency (``repro.server``): every location carries a **version stamp**
drawn from the store's monotonic stamp counter.  A write in place draws a
fresh stamp; rolling a savepoint back restores the location's previous
stamp, but the counter itself never rewinds, so a stamp value is never
reused for a *different* value of the same location (no ABA).  While a
server transaction runs, :attr:`Store.staging` holds it: writes and
own-extent replacements are then staged in the transaction instead of
the heap, and :meth:`Store.install` / :meth:`Store.install_own` write
them at commit — so the heap only ever holds committed state.  The
optional :attr:`Store.tracker` lets that transaction observe reads (and
answer them from its staging); with no tracker installed the cost is one
``None`` check.  The store itself is not thread-safe — the server
serializes statements on the catalog lock.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Callable

from ..runtime.faults import fire

if TYPE_CHECKING:  # pragma: no cover
    from .values import VClass, VSet

__all__ = ["Location", "Store", "Savepoint"]

# Fallback ids for Locations constructed outside a Store (tests, ad-hoc
# values).  Store-allocated locations use the store's own counter.
_fallback_ids = itertools.count(1)


class Location:
    """A mutable cell holding the current value of a mutable field.

    Two records that share a location (via ``extract``) observe each other's
    updates — the joe/Doe/john example of Section 2.  ``version`` is the
    store stamp of the last write (0 for a location never written through a
    store); the server's optimistic concurrency control validates read
    versions at commit.
    """

    __slots__ = ("id", "value", "version")

    def __init__(self, value: Any, loc_id: int | None = None,
                 version: int = 0):
        self.id = next(_fallback_ids) if loc_id is None else loc_id
        self.value = value
        self.version = version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<loc {self.id} v{self.version}>"


class Savepoint:
    """A point in a store's journal that :meth:`Store.rollback` returns to."""

    __slots__ = ("depth", "index")

    def __init__(self, depth: int, index: int):
        self.depth = depth
        self.index = index


# Journal entry tags.
_WRITE = 0   # (tag, location, previous value, previous version)
_ALLOC = 1   # (tag,) — undone by rewinding counters
_UNDO = 2    # (tag, zero-argument callback)


class Store:
    """Allocator for :class:`Location` cells with journaled mutation.

    Outside a savepoint, writes and allocations are direct (no journal is
    kept; overhead is a ``None`` check).  :meth:`savepoint` opens a journal;
    every subsequent :meth:`write`, :meth:`alloc` and :meth:`note_undo` is
    recorded until the matching :meth:`commit`/:meth:`rollback`.  Savepoints
    nest: an inner commit keeps its entries so an outer rollback still
    undoes them.
    """

    __slots__ = ("allocations", "tracker", "staging", "observer",
                 "_next_id", "_journal", "_depth", "_stamp")

    def __init__(self) -> None:
        self.allocations = 0
        self._next_id = 1
        self._journal: list | None = None
        self._depth = 0
        #: Monotonic version-stamp counter.  Never rewound — not even by
        #: rollback — so (location, stamp) pairs uniquely identify a value.
        #: Every version change draws a fresh stamp, so an unchanged
        #: counter means no version changed (the planner's view
        #: watermarks and the server's validation skip rely on this).
        self._stamp = 0
        #: Optional read/write observer (must provide ``did_read``/
        #: ``will_write`` and the ``_extent`` variants); ``did_read`` may
        #: return a staged value, which then answers the read.
        self.tracker = None
        #: The running server transaction, whose ``writes`` and
        #: ``extents`` receive writes instead of the heap; else None.
        self.staging = None
        #: Optional *change* observer (the query engine's index/view
        #: maintenance).  Unlike ``tracker`` it is permanent once
        #: installed, sees heap mutations *after* they happen, and must
        #: never raise.  Rollbacks are deliberately not notified: the
        #: engine detects them through version stamps, which rollback
        #: restores while drawing one fresh stamp.
        self.observer = None

    def next_stamp(self) -> int:
        """Draw a fresh, never-reused version stamp."""
        self._stamp += 1
        return self._stamp

    # -- allocation and mutation -------------------------------------------

    def alloc(self, value: Any) -> Location:
        # Fresh allocations are stamped too: a rolled-back allocation's id
        # is reused (deterministic replay) but its stamp never is, so a
        # reader of the rolled-back location cannot validate against the
        # reborn one.
        loc = Location(value, self._next_id, self.next_stamp())
        self._next_id += 1
        self.allocations += 1
        j = self._journal
        if j is not None:
            fire("journal.append")
            j.append((_ALLOC,))
        return loc

    def read(self, location: Location) -> Any:
        """``location``'s value as the running statement sees it: its
        transaction's staged write, else the heap's (a tracked read when
        a tracker is installed)."""
        t = self.tracker
        if t is not None:
            staged = t.did_read(location)
            if staged is not None:
                return staged
        return location.value

    def write(self, location: Location, value: Any) -> None:
        """Mutate ``location`` — the single choke point for field updates."""
        fire("store.write")
        t = self.tracker
        if t is not None:
            t.will_write(location)
        s = self.staging
        if s is not None:
            self._stage(s.writes, location, value)
            return
        j = self._journal
        if j is not None:
            fire("journal.append")
            j.append((_WRITE, location, location.value, location.version))
        self.install(location, value)

    def install(self, location: Location, value: Any) -> None:
        """Write ``location`` in the heap under a fresh stamp and tell the
        observer.  Fires no fault point."""
        location.version = self.next_stamp()
        location.value = value
        obs = self.observer
        if obs is not None:
            obs.location_written(location)

    def own(self, cls: "VClass") -> "VSet":
        """``cls``'s own extent: the staged one, else the heap's."""
        s = self.staging
        if s is not None:
            staged = s.extents.get(cls)
            if staged is not None:
                return staged
        return cls.own

    def replace_own(self, cls: "VClass", new_own: "VSet") -> None:
        """Replace ``cls``'s own extent — ``insert``/``delete``'s choke
        point."""
        t = self.tracker
        if t is not None:
            t.will_write_extent(cls)
        s = self.staging
        if s is not None:
            self._stage(s.extents, cls, new_own)
            return
        def undo(c=cls, o=cls.own, v=cls.version):
            c.own = o
            c.version = v
        self.note_undo(undo)
        self.install_own(cls, new_own)

    def install_own(self, cls: "VClass", new_own: "VSet") -> None:
        """:meth:`install` for an own extent."""
        old_own, old_version = cls.own, cls.version
        cls.version = self.next_stamp()
        cls.own = new_own
        obs = self.observer
        if obs is not None:
            obs.extent_replaced(cls, old_own, old_version)

    def _stage(self, table: dict, key, value) -> None:
        """``table[key] = value``, journaling the inverse: a failing
        statement un-stages its writes."""
        if key in table:
            old = table[key]
            self.note_undo(lambda: table.__setitem__(key, old))
        else:
            self.note_undo(lambda: table.pop(key))
        table[key] = value

    @property
    def journaling(self) -> bool:
        """True while at least one savepoint is open."""
        return self._journal is not None

    def note_undo(self, undo: Callable[[], None]) -> None:
        """Journal a generic undo action (e.g. a class-extent replacement).

        A no-op outside a savepoint; inside, ``undo()`` runs (in reverse
        journal order) when the savepoint is rolled back.
        """
        j = self._journal
        if j is not None:
            fire("journal.append")
            j.append((_UNDO, undo))

    # -- savepoints ---------------------------------------------------------

    def savepoint(self) -> Savepoint:
        """Open a (nestable) savepoint and start journaling."""
        if self._journal is None:
            self._journal = []
        self._depth += 1
        return Savepoint(self._depth, len(self._journal))

    def commit(self, sp: Savepoint) -> None:
        """Close ``sp``, keeping its effects.

        Entries are retained while an outer savepoint is still open so that
        the outer rollback can undo them; the journal is dropped when the
        outermost savepoint closes.
        """
        self._close(sp)

    def rollback(self, sp: Savepoint) -> None:
        """Undo every journaled effect since ``sp`` and close it."""
        j = self._journal
        if j is None:
            raise RuntimeError("rollback without an open savepoint")
        while len(j) > sp.index:
            entry = j.pop()
            tag = entry[0]
            if tag == _WRITE:
                entry[1].value = entry[2]
                entry[1].version = entry[3]
            elif tag == _ALLOC:
                self.allocations -= 1
                self._next_id -= 1
            else:
                entry[1]()
        # Restored stamps are old ones: draw a fresh one so a reader that
        # watches the counter (the planner's watermark) sees the change.
        self.next_stamp()
        self._close(sp)

    def _close(self, sp: Savepoint) -> None:
        if sp.depth != self._depth:
            raise RuntimeError(
                f"savepoint closed out of order (depth {sp.depth}, "
                f"store at {self._depth})")
        self._depth -= 1
        if self._depth == 0:
            self._journal = None
