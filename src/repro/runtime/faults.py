"""Named fault-injection points for the robustness test harness.

Crash-safety claims are only as good as the faults they were tested
against.  This module gives every dangerous step in the runtime a *named
injection point*; the property suite (``tests/runtime/test_faults.py``)
iterates over :data:`POINTS` and asserts that a fault injected at each one
leaves the session/catalog observably consistent and the WAL replayable.

Injection sites call :func:`fire` with their point name.  With no faults
armed this is a single dict lookup, cheap enough to leave in production
code paths.  Tests arm a point with :func:`inject`::

    with faults.inject("wal.append"):
        with pytest.raises(InjectedFault):
            catalog.insert("Staff", "zoe")

The registered points, and where they fire:

``store.write``
    :meth:`repro.eval.store.Store.write`, before the location mutates.
``journal.append``
    :class:`~repro.eval.store.Store`, before a journal entry is recorded
    (writes, allocations and generic undo notes inside a savepoint).
``wal.append``
    :meth:`repro.db.wal.WriteAheadLog.append`, before the record is
    written.
``wal.fsync``
    :meth:`repro.db.wal.WriteAheadLog.append`, after the record bytes are
    written but before they are durable — the classic torn-tail window.
``snapshot.rename``
    :func:`repro.db.persist.dump_json`, after the temp file is written and
    fsynced but before it atomically replaces the target.
``budget.tick``
    :meth:`repro.runtime.budget.Budget.tick`'s periodic slow path.
``persist.dirsync``
    :func:`repro.db.fsutil.fsync_dir`, before the containing directory is
    fsynced — the window in which a rename or truncation is complete in
    the file but not yet durable in the directory.
``server.conflict``
    :meth:`repro.server.service.Server._commit`, before read-set
    validation — an injected :class:`~repro.errors.ConflictError` here
    forces the conflict/retry path at commit time.
``server.queue``
    :meth:`repro.server.admission.AdmissionQueue.put`, before a request is
    admitted — an injected :class:`~repro.errors.OverloadedError`
    simulates a full queue (load shedding).
``server.worker``
    the server worker loop, after a request is dequeued but before it
    executes — an injected fault kills the worker thread (worker death);
    the pool must respawn and the request must survive.
``proto.frame``
    :mod:`repro.server.protocol`, after a complete frame is decoded but
    before its request dispatches — an injected fault must surface as a
    *structured* error reply on a connection that stays usable, with no
    catalog effect.
``proto.reply``
    :mod:`repro.server.protocol`, before a reply frame's bytes are
    written — an injected fault models the client disconnecting between
    a commit and its acknowledgement; the commit must stay durable and a
    same-id retry must observe it exactly once (dedup replay).
"""

from __future__ import annotations

from contextlib import contextmanager

from ..errors import ReproError

__all__ = ["InjectedFault", "POINTS", "fire", "inject", "reset",
           "registered_points"]


class InjectedFault(ReproError):
    """A deliberate fault raised by an armed injection point."""


#: Every injection point wired into the runtime.  The fault-matrix test
#: derives its parametrization from this tuple, so adding a point here
#: without a matching consistency scenario fails CI.
POINTS = (
    "store.write",
    "journal.append",
    "wal.append",
    "wal.fsync",
    "snapshot.rename",
    "budget.tick",
    "persist.dirsync",
    "server.conflict",
    "server.queue",
    "server.worker",
    "proto.frame",
    "proto.reply",
)


class _Plan:
    """An armed fault: raise ``exc_type`` on the ``at``-th firing."""

    __slots__ = ("point", "at", "exc_type", "count")

    def __init__(self, point: str, at: int, exc_type: type):
        self.point = point
        self.at = at
        self.exc_type = exc_type
        self.count = 0


_active: dict[str, _Plan] = {}


def fire(point: str) -> None:
    """Raise the armed fault for ``point``, if any (hot-path no-op)."""
    plan = _active.get(point)
    if plan is None:
        return
    plan.count += 1
    if plan.count == plan.at:
        raise plan.exc_type(f"injected fault at '{point}' "
                            f"(firing #{plan.count})")


@contextmanager
def inject(point: str, at: int = 1, exc_type: type = InjectedFault):
    """Arm ``point`` to raise on its ``at``-th firing, for the duration.

    ``exc_type`` lets tests simulate non-Repro failures (e.g. ``OSError``
    at ``wal.fsync``).  Unknown point names are rejected so a typo cannot
    silently test nothing.
    """
    if point not in POINTS:
        raise ValueError(f"unknown fault-injection point '{point}'; "
                         f"known points: {', '.join(POINTS)}")
    plan = _Plan(point, at, exc_type)
    _active[point] = plan
    try:
        yield plan
    finally:
        if _active.get(point) is plan:
            del _active[point]


def reset() -> None:
    """Disarm every injection point (test teardown safety net)."""
    _active.clear()


def registered_points() -> tuple[str, ...]:
    """The tuple of all named injection points."""
    return POINTS
