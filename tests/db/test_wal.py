"""The write-ahead log: append, replay, torn tails and recovery."""

import pytest

from repro.db.catalog import Catalog
from repro.db.persist import recover
from repro.db.wal import WriteAheadLog, read_wal
from repro.errors import PersistenceError


@pytest.fixture()
def wal_path(tmp_path):
    return str(tmp_path / "test.wal")


def test_append_and_replay(wal_path):
    with WriteAheadLog(wal_path) as wal:
        assert wal.append("new_object", {"name": "a"}) == 1
        assert wal.append("insert", {"class": "C", "object": "a"}) == 2
    records, torn = read_wal(wal_path)
    assert not torn
    assert [(r["lsn"], r["op"]) for r in records] == [
        (1, "new_object"), (2, "insert")]
    assert records[1]["args"] == {"class": "C", "object": "a"}


def test_missing_file_is_empty_log(wal_path):
    assert read_wal(wal_path) == ([], False)


def test_torn_tail_is_tolerated(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("new_object", {"name": "a"})
        wal.append("insert", {"class": "C", "object": "a"})
    with open(wal_path, "a") as f:
        f.write('{"lsn": 3, "op": "delete", "ar')  # crash mid-append
    records, torn = read_wal(wal_path)
    assert torn
    assert len(records) == 2


def test_reopen_truncates_torn_tail(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("new_object", {"name": "a"})
    with open(wal_path, "a") as f:
        f.write('{"half":')
    with WriteAheadLog(wal_path) as wal:
        assert wal.lsn == 1
        assert wal.append("delete", {"class": "C", "object": "a"}) == 2
    records, torn = read_wal(wal_path)
    assert not torn and len(records) == 2


def test_corruption_before_tail_is_refused(wal_path):
    with WriteAheadLog(wal_path) as wal:
        for i in range(3):
            wal.append("new_object", {"name": f"o{i}"})
    lines = open(wal_path).read().splitlines()
    lines[1] = lines[1][:-5] + 'XXX"}'  # flip bytes in the middle record
    with open(wal_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(PersistenceError, match="corrupt at record 2"):
        read_wal(wal_path)


def test_checksum_detects_value_tampering(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("update_object",
                   {"object": "a", "label": "Salary", "value": 100})
        wal.append("delete", {"class": "C", "object": "a"})
    text = open(wal_path).read().replace('"value":100', '"value":999')
    with open(wal_path, "w") as f:
        f.write(text)
    with pytest.raises(PersistenceError):
        read_wal(wal_path)


def test_lsn_gap_is_refused(wal_path):
    with WriteAheadLog(wal_path) as wal:
        wal.append("new_object", {"name": "a"})
        wal.append("new_object", {"name": "b"})
        wal.append("new_object", {"name": "c"})
    lines = open(wal_path).read().splitlines()
    # Without the middle record the LSNs have a gap; without the first,
    # the log starts neither at LSN 1 nor with a checkpoint marker.
    for dropped, expected in ((1, 2), (0, 1)):
        with open(wal_path, "w") as f:
            f.writelines(line + "\n" for i, line in enumerate(lines)
                         if i != dropped)
        with pytest.raises(PersistenceError,
                           match=f"where {expected} was expected"):
            read_wal(wal_path)


def test_truncate_keeps_lsn_numbering(wal_path):
    wal = WriteAheadLog(wal_path)
    wal.append("new_object", {"name": "a"})
    wal.append("new_object", {"name": "b"})
    wal.truncate()
    assert wal.lsn == 2
    assert read_wal(wal_path) == ([{"lsn": 2, "op": "checkpoint"}], False)
    assert wal.append("new_object", {"name": "c"}) == 3
    wal.close()
    # Reopening continues from the last record, not from the record count.
    with WriteAheadLog(wal_path) as again:
        assert again.lsn == 3
        assert again.append("new_object", {"name": "d"}) == 4
    records, torn = read_wal(wal_path)
    assert not torn
    assert [(r["lsn"], r["op"]) for r in records] == [
        (2, "checkpoint"), (3, "new_object"), (4, "new_object")]


def test_catalog_recovery_end_to_end(tmp_path):
    wal_path = str(tmp_path / "cat.wal")
    cat = Catalog(wal=wal_path)
    cat.new_object("alice", Name="Alice", Sex="female",
                   mutable={"Salary": 3000})
    cat.new_object("bob", Name="Bob", Sex="male", mutable={"Salary": 4000})
    cat.define_class("Staff", own=["alice", "bob"])
    cat.update_object("alice", "Salary", 1234)
    cat.delete("Staff", "bob")

    recovered, _report = recover(wal_path)
    assert recovered.extent("Staff") == cat.extent("Staff")
    assert sorted(recovered.objects) == sorted(cat.objects)
    # The recovered catalog keeps logging to the same WAL.
    recovered.insert("Staff", "bob")
    assert recover(wal_path)[0].extent("Staff") == \
        recovered.extent("Staff")


def test_recovery_with_torn_tail_replays_complete_prefix(tmp_path):
    wal_path = str(tmp_path / "cat.wal")
    cat = Catalog(wal=wal_path)
    cat.new_object("alice", Name="Alice", mutable={"Salary": 3000})
    cat.define_class("Staff", own=["alice"])
    cat.update_object("alice", "Salary", 777)
    with open(wal_path, "a") as f:
        f.write('{"lsn": 4, "op": "upd')  # crash mid-append
    recovered, _report = recover(wal_path)
    assert recovered.extent("Staff")[0]["Salary"] == 777


def test_recovery_of_recursive_group(tmp_path):
    from repro.db.catalog import ClassSpec, IncludeSpec
    wal_path = str(tmp_path / "cat.wal")
    cat = Catalog(wal=wal_path)
    cat.new_object("eve", Name="Eve", Category="staff")
    cat.define_classes({
        "S": ClassSpec("S", [], [IncludeSpec(
            ["F"], 'fn f => [Name = f.Name, Sex = "female"]',
            'fn f => query(fn x => x.Category = "staff", f)')]),
        "F": ClassSpec("F", [("eve", None)], [IncludeSpec(
            ["S"], 'fn s => [Name = s.Name, Category = "staff"]',
            'fn s => query(fn x => x.Sex = "female", s)')]),
    })
    recovered, _report = recover(wal_path)
    assert [r["Name"] for r in recovered.extent("S")] == ["Eve"]
    assert recovered.classes["F"].group == ["S", "F"]


def test_checkpoint_truncates_wal(tmp_path):
    from repro.db.persist import checkpoint, load_json
    wal_path = str(tmp_path / "cat.wal")
    snap_path = str(tmp_path / "snap.json")
    cat = Catalog(wal=wal_path)
    cat.new_object("alice", Name="Alice", mutable={"Salary": 3000})
    cat.define_class("Staff", own=["alice"])
    checkpoint(cat, snap_path)
    # Only a marker at the snapshot's LSN is left.
    assert read_wal(wal_path) == ([{"lsn": 2, "op": "checkpoint"}], False)
    # Post-checkpoint mutations land in the fresh log; recovery is
    # snapshot + short replay.
    cat.update_object("alice", "Salary", 55)
    restored = load_json(snap_path)
    for record in cat.wal.records():
        restored._apply(record)
    assert restored.extent("Staff")[0]["Salary"] == 55
