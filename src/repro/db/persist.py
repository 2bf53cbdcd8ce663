"""Crash-safe, best-effort persistence for catalogs.

The paper explicitly leaves persistent data to future work (Section 1 and 5:
it "requires some form of dynamic typing", pointing to Connor et al.'s
existential-type mechanism).  This module therefore persists *definitions*,
not arbitrary runtime values: a snapshot records every named object's ground
field data (reading through the store, so it captures current mutable-field
values) and every class definition's source text.  Restoring replays the
definitions through a fully type-checked session.

What is *not* captured are bindings made behind the catalog's back and
objects reachable only through closures, and they are dropped
**silently**: a ``val`` bound with ``session.exec`` and an anonymous object
inserted into a class extent with ``exec`` are both gone after
:func:`dump_json` → :func:`load_json`, with no error.  Refusing or keeping
such state needs a checkpoint of the session's heap, not of the catalog's
definitions (the heap-checkpoint item in ``ROADMAP.md``).

Durability: :func:`dump_json` writes atomically (temp file + fsync +
rename), wraps the snapshot in a checksummed, versioned envelope, and
:func:`load_json` verifies the checksum before replaying anything — a torn
or bit-flipped snapshot raises :class:`~repro.errors.PersistenceError`
instead of silently rebuilding a wrong catalog.  :func:`restore` into an
existing catalog is all-or-nothing.  Snapshots pair with the
:mod:`repro.db.wal` log by LSN, as in ARIES (Mohan et al., TODS 1992):
:func:`dump_json` records the last LSN a snapshot reflects,
:func:`checkpoint` shortens the log to a marker at that LSN, and
:func:`recover`, the one recovery entry point, replays exactly the
records after it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..errors import PersistenceError, ReproError
from ..runtime.faults import fire
from .catalog import Catalog, ClassSpec, IncludeSpec
from .fsutil import fsync_dir
from .wal import WriteAheadLog, read_wal

__all__ = ["snapshot", "restore", "dump_json", "load_json", "checkpoint",
           "recover", "RecoveryReport"]

_FORMAT_VERSION = 1
#: Envelope version for the on-disk file (checksummed wrapper around the
#: version-1 snapshot payload).  Version-1 files (bare payload) still load.
_ENVELOPE_VERSION = 2


def snapshot(catalog: Catalog) -> dict[str, Any]:
    """A JSON-able snapshot of a catalog's objects and class definitions."""
    objects = []
    for name, spec in catalog.objects.items():
        # Read current field values through the session so mutable-field
        # updates made after creation are captured.
        current = catalog.session.eval_py(f"query(fn x => x, {name})")
        fields = []
        for label, _original, mutable in spec.fields:
            if label not in current:
                raise ReproError(
                    f"object '{name}' lost field '{label}'")  # pragma: no cover
            fields.append([label, current[label], mutable])
        objects.append({"name": name, "fields": fields})
    classes = []
    for name, spec in catalog.classes.items():
        classes.append({
            "name": name,
            "own": [[m, v] for m, v in spec.own],
            "includes": [
                {"sources": inc.sources, "view": inc.view, "pred": inc.pred}
                for inc in spec.includes],
            "group": spec.group,
        })
    return {"version": _FORMAT_VERSION, "objects": objects,
            "classes": classes}


def restore(data: dict[str, Any], catalog: Catalog | None = None) -> Catalog:
    """Rebuild a catalog (typed, from scratch) from a snapshot.

    Restoring *into* an existing catalog is all-or-nothing: a failure
    midway (bad snapshot data, injected fault) rolls the catalog and its
    session back to the pre-restore state.
    """
    if data.get("version") != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported snapshot version {data.get('version')!r}")
    cat = catalog if catalog is not None else Catalog()
    with cat._atomic():
        for obj in data["objects"]:
            immutable = {label: value
                         for label, value, mutable in obj["fields"]
                         if not mutable}
            mutable = {label: value for label, value, mutable in obj["fields"]
                       if mutable}
            cat.new_object(obj["name"], mutable=mutable, **immutable)
        # Recursive groups must be defined together, exactly once.
        done: set[str] = set()
        by_name = {c["name"]: c for c in data["classes"]}
        for cls in data["classes"]:
            if cls["name"] in done:
                continue
            group = cls["group"] or [cls["name"]]
            specs: dict[str, ClassSpec] = {}
            for member in group:
                raw = by_name[member]
                specs[member] = ClassSpec(
                    member,
                    [(m, v) for m, v in raw["own"]],
                    [IncludeSpec(i["sources"], i["view"], i["pred"])
                     for i in raw["includes"]],
                    group=list(group) if cls["group"] else [])
            if cls["group"]:
                cat.define_classes(specs)
            else:
                # define_class takes one view per member, so from the first
                # member inserted again (under another view) on, re-insert.
                own, seen = cls["own"], set()
                cut = len(own)
                for i, (member, _) in enumerate(own):
                    if member in seen:
                        cut = i
                        break
                    seen.add(member)
                cat.define_class(
                    cls["name"], own=[m for m, _ in own[:cut]],
                    includes=specs[cls["name"]].includes,
                    own_views={m: v for m, v in own[:cut] if v is not None})
                for member, view in own[cut:]:
                    cat.insert(cls["name"], member, view=view)
            done.update(group)
    return cat


def _canonical(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dump_json(catalog: Catalog, path: str) -> None:
    """Snapshot a catalog to a JSON file, atomically.

    The snapshot is written to ``<path>.tmp``, fsynced, then renamed over
    the target — a crash at any point leaves either the old complete file
    or the new complete file, never a torn one.  The payload is wrapped in
    a checksummed envelope that :func:`load_json` verifies, and records
    the LSN of the catalog's WAL it reflects (0 without a WAL), read
    under ``catalog.lock`` with the snapshot so no commit falls between.
    """
    with catalog.lock:
        payload = snapshot(catalog)
        payload["lsn"] = catalog.wal.lsn if catalog.wal is not None else 0
    envelope = {
        "format": _ENVELOPE_VERSION,
        "checksum": hashlib.sha256(
            _canonical(payload).encode("utf-8")).hexdigest(),
        "snapshot": payload,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(envelope, f, indent=2)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    fire("snapshot.rename")
    os.replace(tmp, path)
    # Make the rename itself durable: fsync the containing directory, so
    # power loss after the replace cannot resurrect the old file (or lose
    # the new one).  See repro.db.fsutil.
    fsync_dir(path)


def load_json(path: str) -> Catalog:
    """Restore a catalog from a JSON file, verifying its checksum.

    Accepts both the current checksummed envelope and the bare version-1
    payload written by earlier releases.
    """
    return restore(_read_snapshot(path))


def _read_snapshot(path: str) -> dict[str, Any]:
    """The verified snapshot payload of a file :func:`dump_json` wrote."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except ValueError as exc:
        raise PersistenceError(
            f"snapshot '{path}' is not valid JSON ({exc}); the file is "
            "torn or corrupt") from None
    if isinstance(data, dict) and "snapshot" in data:
        if data.get("format") != _ENVELOPE_VERSION:
            raise PersistenceError(
                f"unsupported snapshot envelope format "
                f"{data.get('format')!r}")
        payload = data["snapshot"]
        digest = hashlib.sha256(
            _canonical(payload).encode("utf-8")).hexdigest()
        if digest != data.get("checksum"):
            raise PersistenceError(
                f"snapshot '{path}' failed checksum verification; "
                "refusing to restore from a corrupt file")
        data = payload
    return data


def checkpoint(catalog: Catalog, path: str) -> None:
    """Snapshot the catalog, then shorten its WAL to a marker at the
    snapshot's LSN, under ``catalog.lock`` so no append falls between.

    A crash between the two steps leaves the whole log beside the new
    snapshot, and :func:`recover` skips the records the snapshot covers.
    """
    with catalog.lock:
        dump_json(catalog, path)
        if catalog.wal is not None:
            catalog.wal.truncate()


@dataclass
class RecoveryReport:
    """What :func:`recover` restored, replayed and dropped."""

    wal_path: str
    snapshot_path: str | None = None
    snapshot_loaded: bool = False
    snapshot_lsn: int = 0  # the last LSN the snapshot reflects
    wal_records: int = 0   # complete records after snapshot_lsn
    replayed: int = 0
    rolled_back: list[str] = field(default_factory=list)
    torn_tail: bool = False

    def summary(self) -> str:
        parts = [
            f"recovered from {self.wal_path}"
            + (f" + snapshot {self.snapshot_path} through lsn "
               f"{self.snapshot_lsn}" if self.snapshot_loaded else ""),
            f"{self.replayed}/{self.wal_records} WAL records replayed",
        ]
        if self.rolled_back:
            parts.append(f"{len(self.rolled_back)} rolled back: "
                         + "; ".join(self.rolled_back))
        return ", ".join(parts)


def recover(wal_path: str, snapshot_path: str | None = None,
            fsync: bool = True) -> tuple[Catalog, RecoveryReport]:
    """Restore the snapshot (if the file exists), then replay the WAL
    records whose LSN is above the snapshot's.

    A group ``txn`` record applies whole or not at all.  A torn tail and
    records that fail to re-apply are listed in ``rolled_back``, never
    applied halfway.  A log missing records the snapshot does not cover
    (checkpointed, then recovered without that snapshot) raises
    :class:`~repro.errors.PersistenceError`.  Returns the catalog,
    re-armed with the log, and the report.
    """
    report = RecoveryReport(wal_path=wal_path, snapshot_path=snapshot_path)
    data = None
    if snapshot_path is not None and os.path.exists(snapshot_path):
        data = _read_snapshot(snapshot_path)
        report.snapshot_loaded = True
        report.snapshot_lsn = data.get("lsn", 0)
    covered = report.snapshot_lsn
    records, report.torn_tail = read_wal(wal_path)
    # A log starts at LSN 1 or with a marker standing for the records up
    # to its LSN, which the snapshot must cover.
    if records and records[0].get("op") == "checkpoint":
        start = records[0]["lsn"]
        if start > covered:
            held = (f"the snapshot covers only lsn {covered}"
                    if report.snapshot_loaded else "no snapshot was found")
            raise PersistenceError(
                f"WAL '{wal_path}' was checkpointed at lsn {start}, but "
                f"{held}: records {covered + 1}..{start} are missing")
    cat = restore(data) if data is not None else Catalog()
    if report.torn_tail:
        report.rolled_back.append(
            "torn tail record (crash mid-append) truncated")
    redo = [r for r in records if r["lsn"] > covered]
    report.wal_records = len(redo)
    cat._replaying = True
    try:
        for record in redo:
            try:
                cat._apply(record)
                report.replayed += 1
            except ReproError as exc:
                report.rolled_back.append(
                    f"lsn {record['lsn']} ({record.get('op')}) could not "
                    f"re-apply: {exc}")
    finally:
        cat._replaying = False
    # Re-arm with the same log (truncating the torn tail durably), and
    # never let a new record reuse an LSN the snapshot covers.
    cat.wal = WriteAheadLog(wal_path, fsync=fsync)
    if cat.wal.lsn < covered:
        cat.wal.lsn = covered
        cat.wal.truncate()
    return cat, report
