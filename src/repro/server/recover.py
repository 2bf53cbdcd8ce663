"""Startup crash recovery: snapshot + WAL replay with reconciliation.

A crash can leave the persistence pair (checksummed snapshot + WAL) in
several in-between states, all of which this doctor reconciles into one
consistent catalog:

* **crash mid-append** — the WAL's torn tail record is dropped (and
  truncated on re-arm), reported as rolled back;
* **crash between checkpoint snapshot and WAL truncation** — the log
  still holds records the snapshot already absorbed; blind replay would
  double-apply them, so each record is checked against the catalog first
  and skipped as *reconciled* when its effect is already present;
* **crash after a server transaction's WAL flush but before its
  acknowledgement** — redo semantics: the records replay, the
  transaction's effects survive (the log never runs *behind* memory).
  A transaction touching several objects is one group ``txn`` record, so
  it replays whole or (torn) not at all.

Recovery is **idempotent**: running it twice over the same files produces
the same catalog, because reconciliation turns every already-applied
record into a no-op and torn-tail truncation only ever removes the same
tail once.  Records that fail to re-apply for any other reason are
skipped and reported (never silently) rather than aborting recovery — a
doctor's job is to salvage the consistent prefix, and the report is the
surgeon's note of what was lost.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..db.catalog import Catalog
from ..db.persist import load_json
from ..db.wal import WriteAheadLog, read_wal
from ..errors import ReproError
from ..lang.api import Session

__all__ = ["RecoveryReport", "recover"]


@dataclass
class RecoveryReport:
    """What startup recovery found, replayed, reconciled and dropped."""

    wal_path: str
    snapshot_path: str | None = None
    snapshot_loaded: bool = False
    wal_records: int = 0
    replayed: int = 0
    reconciled: list[str] = field(default_factory=list)
    rolled_back: list[str] = field(default_factory=list)
    torn_tail: bool = False

    def summary(self) -> str:
        parts = [
            f"recovered from {self.wal_path}"
            + (f" + snapshot {self.snapshot_path}" if self.snapshot_loaded
               else ""),
            f"{self.replayed}/{self.wal_records} WAL records replayed",
        ]
        if self.reconciled:
            parts.append(f"{len(self.reconciled)} already applied "
                         "(reconciled)")
        if self.rolled_back:
            parts.append(f"{len(self.rolled_back)} rolled back: "
                         + "; ".join(self.rolled_back))
        return ", ".join(parts)


def _flatten(records: list[dict]) -> list[dict]:
    """Expand grouped ``txn`` records into their sub-operations so each
    can be reconciled independently (a checkpoint can land mid-log)."""
    flat: list[dict] = []
    for record in records:
        if record.get("op") == "txn":
            for sub in record.get("args", {}).get("ops", []):
                flat.append({"op": sub.get("op"), "args": sub.get("args"),
                             "lsn": record.get("lsn")})
        else:
            flat.append(record)
    return flat


def _already_applied(cat: Catalog, op: str, args: dict) -> bool:
    """Is this record's effect already present in the catalog?

    Conservative per-op checks: when in doubt, answer False and let the
    record re-apply (re-application failures are reported, not fatal).
    """
    if op == "new_object":
        return args["name"] in cat.objects
    if op == "define_class":
        return args["name"] in cat.classes
    if op == "define_classes":
        return all(spec["name"] in cat.classes for spec in args["specs"])
    if op == "insert":
        spec = cat.classes.get(args["class"])
        return (spec is not None and
                (args["object"], args["view"]) in
                [tuple(m) for m in spec.own])
    if op == "delete":
        spec = cat.classes.get(args["class"])
        return (spec is not None and
                args["object"] not in [m for m, _v in spec.own])
    if op == "update_object":
        if args["object"] not in cat.objects:
            return False
        try:
            current = cat.session.eval_py(
                f'query(fn x => x.{args["label"]}, {args["object"]})')
        except ReproError:
            return False
        return current == args["value"]
    return False


def recover(wal_path: str, snapshot_path: str | None = None,
            session: Session | None = None,
            fsync: bool = True) -> tuple[Catalog, RecoveryReport]:
    """Rebuild a catalog from its snapshot and WAL, doctoring torn state.

    Returns the recovered catalog (re-armed with the WAL so subsequent
    mutations keep appending) and a :class:`RecoveryReport`.  See the
    module docstring for the crash windows handled.
    """
    report = RecoveryReport(wal_path=wal_path, snapshot_path=snapshot_path)
    if snapshot_path is not None and os.path.exists(snapshot_path):
        cat = load_json(snapshot_path)
        report.snapshot_loaded = True
    else:
        cat = Catalog(session=session)
    records, torn = read_wal(wal_path)
    report.torn_tail = torn
    if torn:
        report.rolled_back.append(
            "torn tail record (crash mid-append) truncated")
    flat = _flatten(records)
    report.wal_records = len(flat)
    cat._replaying = True
    try:
        for record in flat:
            op, args = record.get("op"), record.get("args", {})
            if _already_applied(cat, op, args):
                report.reconciled.append(
                    f"lsn {record.get('lsn')} ({op}) already applied")
                continue
            try:
                cat._apply(record)
                report.replayed += 1
            except ReproError as exc:
                report.rolled_back.append(
                    f"lsn {record.get('lsn')} ({op}) could not re-apply: "
                    f"{exc}")
    finally:
        cat._replaying = False
    # Re-arm with the same log (truncating the torn tail durably).
    cat.wal = WriteAheadLog(wal_path, fsync=fsync)
    return cat, report
