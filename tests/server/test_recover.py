"""Crash recovery: snapshot + replay by LSN, torn tails, idempotence."""

import json
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import persist
from repro.db.catalog import Catalog
from repro.db.persist import checkpoint, dump_json
from repro.db.wal import read_wal
from repro.errors import PersistenceError
from repro.runtime import faults
from repro.server import Server, recover


def _seed(wal_path):
    cat = Catalog(wal=str(wal_path))
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("amy", Name="Amy", mutable={"Salary": 200})
    cat.define_class("Emp", own=["joe"])
    cat.insert("Emp", "amy")
    cat.update_object("joe", "Salary", 111)
    return cat


def _observe(cat):
    return {
        "classes": {name: list(spec.own) for name, spec in
                    cat.classes.items()},
        "extent": sorted((r["Name"], r["Salary"])
                         for r in cat.extent("Emp")),
    }


def test_plain_wal_replay(tmp_path):
    wal = tmp_path / "db.wal"
    expected = _observe(_seed(wal))
    cat, report = recover(str(wal))
    assert _observe(cat) == expected
    assert report.replayed == report.wal_records == 5
    assert not report.torn_tail
    assert report.rolled_back == []


def test_recover_is_idempotent(tmp_path):
    wal = tmp_path / "db.wal"
    _seed(wal)
    first, r1 = recover(str(wal))
    second, r2 = recover(str(wal))
    assert _observe(first) == _observe(second)
    assert r1.wal_records == r2.wal_records


def test_snapshot_overlap_is_not_double_applied(tmp_path):
    # Crash window: checkpoint snapshot written, WAL *not yet* truncated.
    # Blind replay would re-insert amy (duplicating the membership) and
    # re-run every definition; the snapshot's LSN says it holds them all.
    wal = tmp_path / "db.wal"
    snap = tmp_path / "db.json"
    cat = _seed(wal)
    dump_json(cat, str(snap))
    expected = _observe(cat)
    recovered, report = recover(str(wal), snapshot_path=str(snap))
    assert _observe(recovered) == expected
    assert report.snapshot_loaded
    assert report.snapshot_lsn == 5
    assert report.replayed == report.wal_records == 0
    # In particular: exactly one amy membership, not two.
    assert [m for m, _v in recovered.classes["Emp"].own] == ["joe", "amy"]


def test_snapshot_plus_wal_suffix(tmp_path):
    # Checkpoint mid-history: the snapshot holds a prefix, the WAL the
    # whole history; only the records after the snapshot's LSN replay.
    wal = tmp_path / "db.wal"
    snap = tmp_path / "db.json"
    cat = Catalog(wal=str(wal))
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.define_class("Emp", own=["joe"])
    dump_json(cat, str(snap))
    cat.update_object("joe", "Salary", 555)  # after the checkpoint
    recovered, report = recover(str(wal), snapshot_path=str(snap))
    assert recovered.extent("Emp") == [{"Name": "Joe", "Salary": 555}]
    assert report.snapshot_lsn == 2
    assert report.replayed == report.wal_records == 1


def test_rebinding_after_a_snapshot_is_replayed(tmp_path):
    # A rebinding the snapshot does not hold must replay, even though
    # the name it binds already exists in the snapshot.
    wal = tmp_path / "db.wal"
    snap = tmp_path / "db.json"
    cat = _seed(wal)
    dump_json(cat, str(snap))
    cat.new_object("joe", Name="Joseph", mutable={"Salary": 5})
    recovered, report = recover(str(wal), snapshot_path=str(snap))
    assert recovered.session.eval_py("query(fn x => x.Name, joe)") == "Joseph"
    assert _observe(recovered) == _observe(cat)
    assert report.replayed == report.wal_records == 1


def test_a_commit_racing_a_snapshot_is_not_skipped(tmp_path, monkeypatch):
    # A commit from another thread lands in the snapshot or after the LSN
    # it records, never in between: that record would be skipped.
    wal = tmp_path / "db.wal"
    snap = tmp_path / "db.json"
    cat = _seed(wal)
    real, writers = persist.snapshot, []

    def racing(catalog):
        data = real(catalog)
        writer = threading.Thread(
            target=cat.update_object, args=("joe", "Salary", 999))
        writers.append(writer)
        writer.start()
        writer.join(timeout=0.5)  # blocks on catalog.lock until the dump
        return data

    monkeypatch.setattr(persist, "snapshot", racing)
    dump_json(cat, str(snap))
    writers[0].join()
    recovered, _report = recover(str(wal), snapshot_path=str(snap))
    assert _observe(recovered) == _observe(cat)
    assert ("Joe", 999) in _observe(recovered)["extent"]


def test_checkpoint_during_an_open_transaction_keeps_only_committed_state(
        tmp_path):
    # A transaction's writes stay private until it commits, so a
    # checkpoint taken while it is open captures none of them, and its
    # abort leaves nothing behind in the snapshot.
    wal = tmp_path / "db.wal"
    snap = tmp_path / "db.json"
    cat = Catalog(wal=str(wal))
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("ann", Name="Ann", mutable={"Salary": 300})
    cat.define_class("Emp", own=["joe"])
    staged, checkpointed = threading.Event(), threading.Event()

    class Abort(Exception):
        pass

    def aborted(txn):
        txn.update_object("joe", "Salary", 999)
        txn.insert("Emp", "ann")
        staged.set()
        checkpointed.wait(10)
        raise Abort()

    with Server(cat) as server:
        req = server.submit(aborted)
        assert staged.wait(10)
        checkpoint(cat, str(snap))
        checkpointed.set()
        with pytest.raises(Abort):
            server.wait(req, timeout=10)
    cat.wal.close()
    recovered, _report = recover(str(wal), snapshot_path=str(snap))
    assert recovered.session.eval_py("query(fn x => x.Salary, joe)") == 100
    assert recovered.extent("Emp") == [{"Name": "Joe", "Salary": 100}]
    assert recovered.classes["Emp"].own == [("joe", None)]
    assert _observe(recovered) == _observe(cat)
    recovered.wal.close()


def test_checkpoint_close_reopen_numbers_after_the_snapshot(tmp_path):
    wal = tmp_path / "db.wal"
    snap = tmp_path / "db.json"
    cat = _seed(wal)
    checkpoint(cat, str(snap))
    cat.wal.close()
    reopened, report = recover(str(wal), snapshot_path=str(snap))
    assert (report.snapshot_lsn, report.wal_records) == (5, 0)
    reopened.update_object("joe", "Salary", 7)
    reopened.update_object("amy", "Salary", 8)
    reopened.wal.close()
    records, _torn = read_wal(str(wal))
    assert [r["lsn"] for r in records] == [5, 6, 7]
    back, report = recover(str(wal), snapshot_path=str(snap))
    assert report.replayed == report.wal_records == 2
    assert _observe(back) == _observe(reopened)
    back.wal.close()


def test_fresh_log_beside_a_snapshot_numbers_after_it(tmp_path):
    snap = tmp_path / "db.json"
    dump_json(_seed(tmp_path / "old.wal"), str(snap))
    wal = tmp_path / "db.wal"
    cat, _report = recover(str(wal), snapshot_path=str(snap))
    cat.update_object("joe", "Salary", 8)
    cat.wal.close()
    assert [r["lsn"] for r in read_wal(str(wal))[0]] == [5, 6]
    back, report = recover(str(wal), snapshot_path=str(snap))
    assert report.replayed == 1
    assert _observe(back) == _observe(cat)
    back.wal.close()


def test_checkpointed_log_needs_its_snapshot(tmp_path):
    wal = tmp_path / "db.wal"
    old = tmp_path / "old.json"
    snap = tmp_path / "db.json"
    cat = _seed(wal)
    dump_json(cat, str(old))                 # covers lsn 5
    cat.update_object("amy", "Salary", 222)  # lsn 6
    checkpoint(cat, str(snap))               # covers lsn 6; log: marker 6
    cat.update_object("joe", "Salary", 333)  # lsn 7
    cat.wal.close()
    with pytest.raises(PersistenceError, match="records 1..6"):
        recover(str(wal))
    with pytest.raises(PersistenceError, match="records 6..6"):
        recover(str(wal), snapshot_path=str(old))
    back, report = recover(str(wal), snapshot_path=str(snap))
    assert report.replayed == 1
    assert _observe(back) == _observe(cat)
    back.wal.close()


def test_txn_record_with_a_failing_sub_op_applies_nothing(tmp_path):
    wal = tmp_path / "db.wal"
    cat = _seed(wal)
    expected = _observe(cat)
    cat.wal.append("txn", {"ops": [
        {"op": "update_object",
         "args": {"object": "joe", "label": "Salary", "value": 1000}},
        {"op": "update_object",
         "args": {"object": "nobody", "label": "Salary", "value": 1}}]})
    cat.wal.close()
    recovered, report = recover(str(wal))
    assert [note.split(" could not re-apply")[0]
            for note in report.rolled_back] == ["lsn 6 (txn)"]
    assert _observe(recovered) == expected


def test_torn_tail_is_truncated_and_reported(tmp_path):
    wal = tmp_path / "db.wal"
    expected = _observe(_seed(wal))
    with open(wal, "ab") as fh:
        fh.write(b'{"op": "update_object", "args"')  # crash mid-append
    recovered, report = recover(str(wal))
    assert report.torn_tail
    assert any("torn tail" in note for note in report.rolled_back)
    assert _observe(recovered) == expected
    # Idempotent: the truncation was durable, a second pass is clean.
    again, report2 = recover(str(wal))
    assert not report2.torn_tail
    assert _observe(again) == expected


def test_group_commit_txn_records_replay_atomically(tmp_path):
    wal = tmp_path / "db.wal"
    cat = _seed(wal)
    with Server(cat) as server:

        def two_updates(txn):
            txn.update_object("joe", "Salary", 1000)
            txn.update_object("amy", "Salary", 2000)

        server.connect().run(two_updates)
        expected = _observe(cat)
    # The transaction went to disk as ONE record...
    with open(wal) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    txn_records = [r for r in records if r["op"] == "txn"]
    assert len(txn_records) == 1
    assert [sub["op"] for sub in txn_records[0]["args"]["ops"]] == [
        "update_object", "update_object"]
    # ...and replays back as both updates.
    recovered, report = recover(str(wal))
    assert _observe(recovered) == expected


def _salaries(cat):
    return tuple(cat.session.eval_py(f"query(fn x => x.Salary, {n})")
                 for n in ("joe", "amy"))


def _both(txn):
    txn.update_object("joe", "Salary", 1000)
    txn.update_object("amy", "Salary", 2000)


@pytest.mark.parametrize("point,logged", [("wal.append", False),
                                          ("wal.fsync", True)])
def test_commit_fault_keeps_two_object_update_atomic(tmp_path, point,
                                                     logged):
    # One commit writing two objects is one group record appended under
    # the catalog lock: a WAL fault during Server._commit must leave both
    # updates or neither, in memory and after recovery.
    wal = tmp_path / "db.wal"
    cat = _seed(wal)
    before = _salaries(cat)
    with Server(cat) as server:
        client = server.connect()
        with faults.inject(point, exc_type=OSError):
            with pytest.raises(OSError):
                client.run(_both)
        assert _salaries(cat) == before
        # The failed commit left the server and its log usable.
        client.update_object("joe", "Salary", 7)
    cat.wal.close()
    recovered, report = recover(str(wal))
    assert report.rolled_back == []
    # wal.append fails before any byte is written; wal.fsync fails after
    # the whole record is written, so replay applies it (the log may run
    # ahead of memory by that one record, never split it).
    joe, amy = _salaries(recovered)
    assert (joe, amy) == ((7, 2000) if logged else (7, before[1]))


def _prepare_decide_ack_log(wal_path):
    """A committed two-object transaction as builds with in-process
    two-phase commit logged it: ``txn.prepare``, ``txn.decide``,
    ``txn.ack``."""
    cat = _seed(wal_path)
    ops = [{"op": "update_object",
            "args": {"object": n, "label": "Salary", "value": 999}}
           for n in ("joe", "amy")]
    tid = cat.wal.append("txn.prepare", {
        "shards": [0, 1], "ops": ops,
        "staged": {"locations": 2, "extents": 0}})
    cat.wal.append("txn.decide", {"tid": tid, "outcome": "commit"})
    cat.wal.append("txn.ack", {"tid": tid})
    cat.wal.close()
    return _observe(cat)


def test_prepare_decide_ack_records_are_never_applied_silently(tmp_path):
    wal = tmp_path / "db.wal"
    expected = _prepare_decide_ack_log(wal)
    cat, report = recover(str(wal))
    assert [note.split(" could not re-apply")[0]
            for note in report.rolled_back] == [
        "lsn 6 (txn.prepare)", "lsn 7 (txn.decide)", "lsn 8 (txn.ack)"]
    assert all("unknown op" in note for note in report.rolled_back)
    # Nothing half-applied: neither salary took the staged 999.
    assert _observe(cat) == expected
    assert _salaries(cat) == (111, 200)


def test_recovered_catalog_keeps_logging(tmp_path):
    wal = tmp_path / "db.wal"
    _seed(wal)
    cat, _report = recover(str(wal))
    cat.update_object("joe", "Salary", 42)
    cat2, _ = recover(str(wal))
    assert cat2.extent("Emp")[0]["Salary"] in (42, 111)
    assert any(r["Salary"] == 42 for r in cat2.extent("Emp"))


def test_report_summary_is_human_readable(tmp_path):
    wal = tmp_path / "db.wal"
    _seed(wal)
    _cat, report = recover(str(wal))
    text = report.summary()
    assert "5/5 WAL records replayed" in text
    assert str(wal) in text


_who = st.sampled_from(["joe", "amy"])
_history = st.lists(st.one_of(
    st.tuples(st.just("update"), _who, st.integers(0, 999)),
    st.tuples(st.just("insert"), _who),
    st.tuples(st.just("delete"), _who),
    st.just(("checkpoint",)),  # snapshot, then shorten the log
    st.just(("snapshot",)),    # crash window: snapshot, log not shortened
    st.just(("restart",))), max_size=12)


@settings(max_examples=25, deadline=None)
@given(history=_history)
def test_recovery_matches_live_state_at_any_checkpoint(history):
    with tempfile.TemporaryDirectory() as work:
        wal, snap = str(Path(work) / "db.wal"), str(Path(work) / "db.json")
        cat = _seed(wal)
        for op, *args in history:
            if op == "update":
                cat.update_object(args[0], "Salary", args[1])
            elif op == "insert":
                cat.insert("Emp", args[0])
            elif op == "delete":
                cat.delete("Emp", args[0])
            elif op == "checkpoint":
                checkpoint(cat, snap)
            elif op == "snapshot":
                dump_json(cat, snap)
            else:
                cat.wal.close()
                cat, report = recover(wal, snapshot_path=snap)
                assert report.rolled_back == []
        cat.wal.close()
        back, report = recover(wal, snapshot_path=snap)
        back.wal.close()
        assert report.rolled_back == []
        assert (_observe(back), _salaries(back)) == (_observe(cat),
                                                      _salaries(cat))
