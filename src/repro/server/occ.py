"""Optimistic concurrency control over the store's version stamps.

The paper's object model makes *sharing* first-class: one location can be
read through many views and classes at once (Section 2's joe/Doe/john).
Under interleaved transactions that sharing becomes dangerous — a
transaction that read ``joe.Salary`` through one view must not commit if
another transaction updated the shared location through a different view
in the meantime.  Per-location version stamps (:mod:`repro.eval.store`)
make the interference observable; this module turns them into a
serializable commit protocol:

* **reads are optimistic** — :meth:`OCCTransaction.did_read` records the
  *first* version seen per location (and per class extent); nothing is
  locked;
* **writes are claimed** — :meth:`OCCTransaction.will_write` takes the
  location's latch in the shared :class:`LatchTable` for the rest of the
  transaction, so at most one uncommitted writer exists per location (a
  second writer gets an immediate :class:`~repro.errors.ConflictError`,
  never a deadlock) and undo information stays single-writer-safe;
* **validation at commit** — :meth:`OCCTransaction.validate` checks every
  read version against the location's current stamp; a mismatch means a
  concurrent commit (or an aborted writer's restored stamp) invalidated
  the read, and the transaction must roll back and retry;
* **no dirty reads** — validation also refuses a read of a location or
  extent whose latch another live transaction holds: that writer may
  still abort, and a reader committing first would keep a value that
  never committed.  Like the latches this never waits, so it cannot
  deadlock; the reader retries once the writer has finished.  A re-read
  that sees another version than the first read dooms the transaction:
  a writer that aborted in between restored the first stamp.

Stamps are drawn from a monotonic counter that never rewinds, and a
rollback restores a location's *previous* stamp together with its previous
value, so validation is ABA-free: a stamp can only ever re-appear on a
location alongside the exact value it stamped.

Every method here runs under the server's statement lock (the catalog
lock), so the bookkeeping itself needs no further synchronization.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from ..errors import ConflictError

if TYPE_CHECKING:  # pragma: no cover
    from ..eval.store import Location
    from ..eval.values import VClass

__all__ = ["LatchTable", "OCCTransaction"]

_txn_ids = itertools.count(1)


class LatchTable:
    """Write latches keyed by object identity, shared by all transactions.

    A latch is held from first write to commit/rollback.  Acquisition
    never blocks: a latch owned by another live transaction raises
    :class:`~repro.errors.ConflictError` immediately, which the retry
    policy treats like any other conflict — this is what rules out
    deadlock by construction.
    """

    __slots__ = ("_owners",)

    def __init__(self) -> None:
        self._owners: dict[int, "OCCTransaction"] = {}

    def acquire(self, obj, txn: "OCCTransaction", kind: str) -> None:
        owner = self._owners.setdefault(id(obj), txn)
        if owner is not txn:
            raise ConflictError(
                f"write-write conflict: {kind} is being written by "
                f"transaction #{owner.txn_id} (this is transaction "
                f"#{txn.txn_id}); retry after it finishes")

    def check_reads(self, txn: "OCCTransaction") -> None:
        """Refuse ``txn``'s reads of anything another live transaction
        has latched: that writer may still abort (no dirty reads).  The
        loop runs over the few latches, not over the read set."""
        for k, owner in self._owners.items():
            if owner is not txn and (k in txn.reads or k in txn.extent_reads):
                raise ConflictError(
                    f"dirty read: transaction #{txn.txn_id} read state "
                    f"that transaction #{owner.txn_id} is writing and has "
                    "not committed; retry after it finishes")

    def release_all(self, txn: "OCCTransaction") -> None:
        self._owners = {k: o for k, o in self._owners.items()
                        if o is not txn}


class OCCTransaction:
    """The read/write bookkeeping of one server transaction.

    Installed as the store's ``tracker`` while the transaction's
    statements execute; the evaluator reports reads and writes of
    locations and class extents through the four ``did_``/``will_``
    callbacks below.
    """

    __slots__ = ("txn_id", "latches", "reads", "extent_reads", "writes",
                 "extent_writes", "doomed")

    #: Always False; kept because benchmarks/e2e/tracing.py reads it.
    fast = False

    def __init__(self, latches: LatchTable):
        self.txn_id = next(_txn_ids)
        self.latches = latches
        # id(loc) -> (loc, first version seen); id() keys are safe because
        # the tuple keeps the object alive for the transaction's lifetime.
        self.reads: dict[int, tuple["Location", int]] = {}
        self.extent_reads: dict[int, tuple["VClass", int]] = {}
        # id(loc) -> (loc, pre-transaction value, pre-transaction version)
        self.writes: dict[int, tuple["Location", object, int]] = {}
        self.extent_writes: dict[int, tuple["VClass", object, int]] = {}
        #: Why a re-read saw another version than the first read (a
        #: stale or uncommitted value); ``validate`` raises it.
        self.doomed: str | None = None

    # -- tracker callbacks (store/machine/pyconv) ---------------------------

    def did_read(self, loc: "Location") -> None:
        k = id(loc)
        seen = self.reads.get(k)
        if seen is None:
            self.reads[k] = (loc, loc.version)
        elif seen[1] != loc.version and k not in self.writes:
            self.doomed = (f"non-repeatable read: location {loc.id} was "
                           f"version {seen[1]}, then {loc.version}")

    def will_write(self, loc: "Location") -> None:
        k = id(loc)
        self.latches.acquire(loc, self, f"location {loc.id}")
        if k not in self.writes:
            # Read-then-write upgrade: the latch only protects from *now*
            # on, so a commit that landed between our read and this write
            # must fail here — commit-time validation exempts self-written
            # locations precisely because this check already ran.
            seen = self.reads.get(k)
            if seen is not None and loc.version != seen[1]:
                raise ConflictError(
                    f"stale read-modify-write: location {loc.id} was "
                    f"version {seen[1]} when transaction #{self.txn_id} "
                    f"read it, is {loc.version} at write time")
            self.writes[k] = (loc, loc.value, loc.version)

    def did_read_extent(self, cls: "VClass") -> None:
        k = id(cls)
        seen = self.extent_reads.get(k)
        if seen is None:
            self.extent_reads[k] = (cls, cls.version)
        elif seen[1] != cls.version and k not in self.extent_writes:
            self.doomed = (f"non-repeatable read: extent of class "
                           f"#{cls.oid} was version {seen[1]}, then "
                           f"{cls.version}")

    def will_write_extent(self, cls: "VClass") -> None:
        k = id(cls)
        self.latches.acquire(cls, self, f"class extent #{cls.oid}")
        if k not in self.extent_writes:
            seen = self.extent_reads.get(k)
            if seen is not None and cls.version != seen[1]:
                raise ConflictError(
                    f"stale read-modify-write: extent of class #{cls.oid} "
                    f"changed (version {seen[1]} -> {cls.version}) before "
                    f"transaction #{self.txn_id} wrote it")
            self.extent_writes[k] = (cls, cls.own, cls.version)

    # -- the commit protocol ------------------------------------------------

    def validate(self) -> None:
        """Check the read set against current versions (backward
        validation) and against other transactions' latches (no dirty
        reads).  Locations this transaction itself wrote are exempt:
        their latch guarantees nobody else touched them."""
        if self.doomed is not None:
            raise ConflictError(f"{self.doomed} in transaction "
                                f"#{self.txn_id}")
        self.latches.check_reads(self)
        for k, (loc, version) in self.reads.items():
            if k in self.writes:
                continue
            if loc.version != version:
                raise ConflictError(
                    f"stale read: location {loc.id} was version {version} "
                    f"when transaction #{self.txn_id} read it, is now "
                    f"{loc.version}")
        for k, (cls, version) in self.extent_reads.items():
            if k in self.extent_writes:
                continue
            if cls.version != version:
                raise ConflictError(
                    f"stale read: extent of class #{cls.oid} changed "
                    f"(version {version} -> {cls.version}) under "
                    f"transaction #{self.txn_id}")

    def finalize(self) -> None:
        """Publish: drop undo information and release every latch."""
        self.latches.release_all(self)
        self.writes.clear()
        self.extent_writes.clear()

    def rollback(self) -> None:
        """Restore every written location/extent to its pre-transaction
        value *and version*, then release the latches.

        Restoring the old version (rather than stamping a new one) makes
        the aborted transaction invisible: a reader that saw only
        pre-transaction state still validates, and a reader that saw a
        doomed write holds a stamp that no longer matches — or, if it
        validates before this rollback, meets the latch instead.
        """
        for loc, value, version in self.writes.values():
            loc.value = value
            loc.version = version
        for cls, own, version in self.extent_writes.values():
            cls.own = own
            cls.version = version
        self.finalize()
