"""Snapshot/restore of catalogs (repro.db.persist)."""

import json

import pytest

from repro.db.catalog import Catalog, ClassSpec, IncludeSpec
from repro.db.persist import (dump_json, load_json, recover, restore,
                               snapshot)
from repro.errors import ReproError


@pytest.fixture()
def cat():
    c = Catalog()
    c.new_object("alice", Name="Alice", Sex="female",
                 mutable={"Salary": 3000})
    c.new_object("bob", Name="Bob", Sex="male", mutable={"Salary": 4000})
    c.define_class("Staff", own=["alice", "bob"])
    c.define_class("Women", includes=[IncludeSpec(
        ["Staff"], "fn x => [Name = x.Name, Salary := extract(x, Salary)]",
        'fn o => query(fn x => x.Sex = "female", o)')])
    return c


def test_snapshot_shape(cat):
    snap = snapshot(cat)
    assert snap["version"] == 1
    assert {o["name"] for o in snap["objects"]} == {"alice", "bob"}
    assert {c["name"] for c in snap["classes"]} == {"Staff", "Women"}


def test_snapshot_is_json_serializable(cat):
    json.dumps(snapshot(cat))


def test_snapshot_captures_current_mutable_values(cat):
    cat.update_object("alice", "Salary", 1234)
    snap = snapshot(cat)
    alice = next(o for o in snap["objects"] if o["name"] == "alice")
    fields = {label: value for label, value, _m in alice["fields"]}
    assert fields["Salary"] == 1234


def test_restore_round_trip(cat):
    snap = snapshot(cat)
    cat2 = restore(snap)
    assert cat2.extent("Women") == cat.extent("Women")
    assert cat2.extent("Staff") == cat.extent("Staff")


def test_restored_catalog_is_live(cat):
    cat2 = restore(snapshot(cat))
    cat2.update_object("alice", "Salary", 777)
    assert cat2.extent("Women")[0]["Salary"] == 777
    # the original is untouched (separate sessions)
    assert cat.extent("Women")[0]["Salary"] == 3000


def test_restore_recursive_group():
    c = Catalog()
    c.new_object("eve", Name="Eve", Category="staff")
    c.define_classes({
        "S": ClassSpec("S", [], [IncludeSpec(
            ["F"], 'fn f => [Name = f.Name, Sex = "female"]',
            'fn f => query(fn x => x.Category = "staff", f)')]),
        "F": ClassSpec("F", [("eve", None)], [IncludeSpec(
            ["S"], 'fn s => [Name = s.Name, Category = "staff"]',
            'fn s => query(fn x => x.Sex = "female", s)')]),
    })
    c2 = restore(snapshot(c))
    assert [r["Name"] for r in c2.extent("S")] == ["Eve"]
    assert c2.classes["F"].group == ["S", "F"]


def test_restore_rejects_unknown_version():
    with pytest.raises(ReproError):
        restore({"version": 99, "objects": [], "classes": []})


def test_file_round_trip(cat, tmp_path):
    path = str(tmp_path / "db.json")
    dump_json(cat, path)
    cat2 = load_json(path)
    assert cat2.extent("Women") == cat.extent("Women")


def test_inserted_members_survive(cat):
    cat.new_object("zoe", Name="Zoe", Sex="female",
                   mutable={"Salary": 50})
    cat.insert("Staff", "zoe")
    cat2 = restore(snapshot(cat))
    assert "Zoe" in [r["Name"] for r in cat2.extent("Staff")]


def test_deleted_members_stay_deleted(cat):
    cat.delete("Staff", "bob")
    cat2 = restore(snapshot(cat))
    assert "Bob" not in [r["Name"] for r in cat2.extent("Staff")]


def test_restore_into_wal_backed_catalog_survives_recovery(cat, tmp_path):
    # Every class a restore defines is logged like any other definition,
    # so the WAL alone rebuilds what was restored — including a member
    # inserted a second time under another view.
    cat.define_class("Payroll", own=["alice"], own_views={
        "alice": "fn x => [Name = x.Name, Sex = x.Sex, "
                 "Salary := extract(x, Salary)]"})
    cat.insert("Payroll", "alice")
    snap = snapshot(cat)
    wal = str(tmp_path / "db.wal")
    target = Catalog(wal=wal)
    assert snapshot(restore(snap, target)) == snap
    target.wal.close()
    back, _report = recover(wal)
    assert snapshot(back) == snap
    for name in ("Staff", "Women", "Payroll"):
        assert back.extent(name) == cat.extent(name)
    back.wal.close()
