"""An append-only write-ahead log of catalog mutations.

Snapshots (:mod:`repro.db.persist`) are cheap but coarse: everything or
nothing.  The WAL records each :class:`~repro.db.catalog.Catalog` mutation
as one self-checksummed JSON line, so the catalog can be rebuilt after a
crash by replaying the log from an empty session — or from the last
snapshot, replaying only the records after the LSN it covers
(:func:`repro.db.persist.recover`).

Record format (one per line)::

    {"lsn": 3, "op": "insert", "args": {...}, "crc": "9a2f11b0"}

``crc`` is the CRC-32 of the record serialized canonically *without* the
``crc`` field.  Recovery (:func:`read_wal`) tolerates exactly one torn
record at the *tail* — the window a crash mid-append can produce — and
refuses (:class:`~repro.errors.PersistenceError`) corruption anywhere
earlier, which indicates real damage rather than a crash.

LSNs never restart.  A checkpoint (:meth:`WriteAheadLog.truncate`)
replaces the log with one ``{"op": "checkpoint"}`` marker carrying the
current LSN, so a log starts either at LSN 1 or with that marker, and
its records are contiguous from there.

Fault-injection points: ``wal.append`` fires before any bytes are
written; ``wal.fsync`` fires after the bytes are written but before they
are durable (the torn-tail window).
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Iterator

from ..errors import PersistenceError
from ..runtime.faults import fire
from .fsutil import fsync_dir

__all__ = ["WriteAheadLog", "read_wal"]


def _checksum(payload: str) -> str:
    return format(zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF, "08x")


def _encode(record: dict[str, Any]) -> str:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    record = dict(record, crc=_checksum(payload))
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _decode(line: str) -> dict[str, Any] | None:
    """Parse and verify one WAL line; None means torn/corrupt."""
    try:
        record = json.loads(line)
    except ValueError:
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    crc = record.pop("crc")
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if _checksum(payload) != crc:
        return None
    return record


def read_wal(path: str) -> tuple[list[dict[str, Any]], bool]:
    """Read every complete record of a WAL file.

    Returns ``(records, torn)`` where ``torn`` reports whether a single
    incomplete/corrupt record was found at the tail (tolerated — the
    crash window).  Corruption *before* the last record, or a first
    record that is neither LSN 1 nor a checkpoint marker, or a gap in
    the LSNs, raises :class:`~repro.errors.PersistenceError`: that is
    damage, not a crash.  A missing file is an empty log.
    """
    if not os.path.exists(path):
        return [], False
    records: list[dict[str, Any]] = []
    torn = False
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().split("\n")
    # A well-formed log ends with "\n", so the final split element is "".
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        record = _decode(line)
        if record is None:
            if i != len(lines) - 1:
                raise PersistenceError(
                    f"WAL '{path}' is corrupt at record {i + 1} "
                    f"(of {len(lines)}): damage before the tail cannot "
                    "be a torn append")
            torn = True
            break
        if records:
            expected = records[-1]["lsn"] + 1
        elif record.get("op") == "checkpoint":
            expected = record.get("lsn")
        else:
            expected = 1
        if not isinstance(expected, int) or record.get("lsn") != expected:
            raise PersistenceError(
                f"WAL '{path}' has record with lsn {record.get('lsn')!r} "
                f"where {expected} was expected (missing or reordered "
                "records)")
        records.append(record)
    return records, torn


class WriteAheadLog:
    """An append-only, fsync-on-append log bound to one file.

    Opening an existing log scans it, continues from the LSN of its last
    complete record and *truncates* a torn tail record so subsequent
    appends produce a clean log.  ``fsync=False`` trades durability for
    speed (tests, benchmarks).
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self.fsync = fsync
        records, torn = read_wal(path)
        self.lsn = records[-1]["lsn"] if records else 0
        if torn:
            # Keep only the complete prefix.
            with open(path, "r", encoding="utf-8") as f:
                lines = f.read().split("\n")
            keep = "".join(line + "\n" for line in lines[:len(records)])
            with open(path, "w", encoding="utf-8") as f:
                f.write(keep)
                f.flush()
                os.fsync(f.fileno())
            fsync_dir(path)
        self._file = open(path, "a", encoding="utf-8")

    def append(self, op: str, args: dict[str, Any]) -> int:
        """Durably append one mutation record; returns its LSN."""
        fire("wal.append")
        lsn = self.lsn + 1
        line = _encode({"lsn": lsn, "op": op, "args": args})
        self._file.write(line + "\n")
        self._file.flush()
        # The record is in the file from here on, even if the fsync below
        # fails: the next append must follow it, not reuse its LSN.
        self.lsn = lsn
        fire("wal.fsync")
        if self.fsync:
            os.fsync(self._file.fileno())
        return lsn

    def records(self) -> Iterator[dict[str, Any]]:
        """Iterate the complete records currently on disk."""
        records, _torn = read_wal(self.path)
        return iter(records)

    def truncate(self) -> None:
        """Replace every record with one checkpoint marker at the current
        LSN (after a snapshot covering that LSN), atomically."""
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(_encode({"lsn": self.lsn, "op": "checkpoint"}) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)
        self._file.close()
        self._file = open(self.path, "a", encoding="utf-8")
        # The rename must itself survive power loss, or the old log could
        # come back without the records appended after the marker.
        fsync_dir(self.path)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
