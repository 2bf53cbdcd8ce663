"""Optimistic concurrency control over the store's version stamps.

The paper's object model makes *sharing* first-class: one location can be
read through many views and classes at once (Section 2's joe/Doe/john).
Under interleaved transactions that sharing becomes dangerous — a
transaction that read ``joe.Salary`` through one view must not commit if
another transaction updated the shared location through a different view
in the meantime.  Per-location version stamps (:mod:`repro.eval.store`)
make the interference observable; this module turns them into the read,
validation and write phases of Kung and Robinson (TODS 1981):

* **reads are optimistic** — :meth:`OCCTransaction.did_read` records the
  *first* version seen per location (and per class extent);
* **writes are private** — the store stages them here (location → value,
  class → own extent) instead of writing the heap, and the transaction's
  own reads see the staging first.  Keyed by location, it keeps Section
  2's sharing inside the transaction, and no other statement ever sees
  an uncommitted value: there is nothing to latch and nothing to undo;
* **validation at commit** — :meth:`OCCTransaction.validate` checks every
  read version against the current stamp.  A blind write needs no check
  (commit order orders it), but an own-extent write is a
  read-modify-write: its first staging records the extent's version;
* **install** — :meth:`OCCTransaction.install` writes the staging under
  fresh stamps, which never rewind (so validation is ABA-free).  Abort
  just drops the staging.

Every method here except :meth:`OCCTransaction.rollback` runs under the
server's statement lock (the catalog lock).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from ..errors import ConflictError

if TYPE_CHECKING:  # pragma: no cover
    from ..eval.store import Location, Store
    from ..eval.values import VClass, VSet, Value

__all__ = ["OCCTransaction"]

_txn_ids = itertools.count(1)


class OCCTransaction:
    """The read set and the staged writes of one server transaction.

    Installed as the store's ``tracker`` and ``staging`` while the
    transaction's statements execute; the evaluator reports reads and
    writes of locations and class extents through the four ``did_``/
    ``will_`` callbacks below, and the store stages writes in
    :attr:`writes` and :attr:`extents`.
    """

    __slots__ = ("txn_id", "reads", "extent_reads", "writes", "extents")

    #: Always False; kept because benchmarks/e2e/tracing.py reads it.
    fast = False

    def __init__(self) -> None:
        self.txn_id = next(_txn_ids)
        #: Location -> its version at the first read.
        self.reads: dict["Location", int] = {}
        #: Class -> its extent version at the first read or write.
        self.extent_reads: dict["VClass", int] = {}
        #: The staging: location -> value, class -> own extent.
        self.writes: dict["Location", "Value"] = {}
        self.extents: dict["VClass", "VSet"] = {}

    # -- tracker callbacks (store/machine/pyconv) ---------------------------

    def did_read(self, loc: "Location") -> "Value | None":
        """Record a read; returns the staged value, or None when this
        transaction has not written ``loc`` (stored values are never
        None).  Reading one's own write depends on no committed state."""
        staged = self.writes.get(loc)
        if staged is None:
            self.reads.setdefault(loc, loc.version)
        return staged

    def did_read_extent(self, cls: "VClass") -> None:
        self.extent_reads.setdefault(cls, cls.version)

    def will_write(self, loc: "Location") -> None:
        """A blind write needs no bookkeeping: it is staged, and the
        order of commits orders it."""

    def will_write_extent(self, cls: "VClass") -> None:
        # An own-extent write replaces the whole extent it was computed
        # from, so it is a read-modify-write: two inserts into one class
        # cannot both commit, or the second install erases the first.
        self.extent_reads.setdefault(cls, cls.version)

    @property
    def staged(self) -> bool:
        """True once this transaction has staged a write."""
        return bool(self.writes or self.extents)

    # -- the commit protocol ------------------------------------------------

    def validate(self) -> None:
        """Check the read set against current versions (backward
        validation)."""
        for loc, version in self.reads.items():
            if loc.version != version:
                raise ConflictError(
                    f"stale read: location {loc.id} was version {version} "
                    f"when transaction #{self.txn_id} read it, is now "
                    f"{loc.version}")
        for cls, version in self.extent_reads.items():
            if cls.version != version:
                raise ConflictError(
                    f"stale read: extent of class #{cls.oid} changed "
                    f"(version {version} -> {cls.version}) under "
                    f"transaction #{self.txn_id}")

    def install(self, store: "Store") -> None:
        """Write the staging to the heap, each write under a fresh stamp
        and reported to the store's observer.  Fires no fault point, so
        a commit already in the log is never half-applied."""
        for loc, value in self.writes.items():
            store.install(loc, value)
        if self.extents:
            for cls, own in self.extents.items():
                store.install_own(cls, own)

    def rollback(self) -> None:
        """Drop the staging: nothing outside this transaction saw it."""
        self.writes = {}
        self.extents = {}
