"""Read-dependency recording for index and materialized-view builds.

An index or cached view is valid exactly as long as everything it *read*
while being built is unchanged.  :class:`DepTracker` poses as a store
tracker during a build and records the read set as ``(thing, version)``
pairs — class extents via ``did_read_extent`` and mutable-field locations
via ``did_read`` — which later validate by comparing versions (the store's
stamps are monotonic and never reused, so a matching version *is* the same
value; see :mod:`repro.eval.store`).

Builds can happen inside a server transaction that has staged no write
yet (the planner declines one that has), where the store already has an
OCC tracker installed.  :class:`TeeTracker` forwards every callback to
both, so the transaction's read set still sees everything the build read
(an indexed read must conflict with a concurrent write exactly like the
scan it replaced).
"""

from __future__ import annotations

from ..eval.store import Location
from ..eval.values import VClass

__all__ = ["DepTracker", "TeeTracker", "ReadRecorder", "recording_reads"]


class DepTracker:
    """Record every read's ``(identity, version)`` during a build."""

    __slots__ = ("extents", "locations")

    def __init__(self) -> None:
        #: class oid -> (VClass, version at read time)
        self.extents: dict[int, tuple[VClass, int]] = {}
        #: location id -> (Location, version at read time)
        self.locations: dict[int, tuple[Location, int]] = {}

    def did_read(self, loc: Location) -> None:
        if loc.id not in self.locations:
            self.locations[loc.id] = (loc, loc.version)

    def did_read_extent(self, cls: VClass) -> None:
        if cls.oid not in self.extents:
            self.extents[cls.oid] = (cls, cls.version)

    def will_write(self, loc: Location) -> None:
        # A build is purity-gated; a write here means the gate was wrong.
        raise AssertionError("write during a pure query-plan build")

    def will_write_extent(self, cls: VClass) -> None:
        raise AssertionError("extent write during a pure query-plan build")


class TeeTracker:
    """Forward every tracker callback to two trackers."""

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def did_read(self, loc: Location) -> None:
        self.first.did_read(loc)
        self.second.did_read(loc)

    def did_read_extent(self, cls: VClass) -> None:
        self.first.did_read_extent(cls)
        self.second.did_read_extent(cls)

    def will_write(self, loc: Location) -> None:
        self.first.will_write(loc)
        self.second.will_write(loc)

    def will_write_extent(self, cls: VClass) -> None:
        self.first.will_write_extent(cls)
        self.second.will_write_extent(cls)


class ReadRecorder:
    """Context manager installing a :class:`DepTracker` on a store.

    The recorder tees onto any tracker already installed (an OCC
    transaction), so the enclosing transaction's read set is a superset of
    the recorded dependencies.
    """

    __slots__ = ("store", "deps", "_saved")

    def __init__(self, store) -> None:
        self.store = store
        self.deps = DepTracker()
        self._saved = None

    def __enter__(self) -> DepTracker:
        self._saved = self.store.tracker
        if self._saved is None:
            self.store.tracker = self.deps
        else:
            self.store.tracker = TeeTracker(self._saved, self.deps)
        return self.deps

    def __exit__(self, *exc) -> None:
        self.store.tracker = self._saved


def recording_reads(store) -> ReadRecorder:
    """Record the read set of a block: ``with recording_reads(store) as deps``."""
    return ReadRecorder(store)
