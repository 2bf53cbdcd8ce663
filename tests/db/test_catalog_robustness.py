"""Catalog robustness: atomic operations and up-front update validation."""

import copy

import pytest

from repro.db.catalog import Catalog, ClassSpec, IncludeSpec
from repro.db.persist import restore, snapshot
from repro.errors import ReproError
from repro.runtime.faults import InjectedFault, inject


@pytest.fixture()
def cat():
    c = Catalog()
    c.new_object("alice", Name="Alice", Sex="female",
                 mutable={"Salary": 3000})
    c.define_class("Staff", own=["alice"])
    return c


# -- update_object validation (names the field, no downstream errors) -----

def test_update_unknown_object(cat):
    with pytest.raises(ReproError, match="unknown object 'ghost'"):
        cat.update_object("ghost", "Salary", 1)


def test_update_unknown_field_names_field_and_candidates(cat):
    with pytest.raises(ReproError, match=r"no field 'Wage'.*Salary"):
        cat.update_object("alice", "Wage", 1)


def test_update_immutable_field_names_field(cat):
    with pytest.raises(ReproError, match="field 'Name'.*immutable"):
        cat.update_object("alice", "Name", "Eve")
    # Nothing changed.
    assert cat.extent("Staff")[0]["Name"] == "Alice"


# -- all-or-nothing catalog operations ------------------------------------

def _observe(cat):
    return (sorted(cat.objects), sorted(cat.classes),
            sorted(cat.session._global_frame), cat.extent("Staff"))


def test_failed_define_class_leaves_no_trace(cat):
    before = _observe(cat)
    with pytest.raises(ReproError):
        cat.define_class("Bad", own=["alice"],
                         element_type="[Name = int]")  # schema mismatch
    assert _observe(cat) == before
    assert "Bad" not in cat.session._global_frame


def test_failed_new_object_leaves_no_trace(cat):
    before = _observe(cat)
    with pytest.raises(ReproError):
        cat.new_object("weird", Value=3.14159)  # floats not embeddable
    assert _observe(cat) == before


def test_failed_insert_leaves_no_trace(cat):
    before = _observe(cat)
    with pytest.raises(ReproError):
        cat.insert("Staff", "ghost")  # unbound object name
    assert _observe(cat) == before


def test_failed_include_class_leaves_no_trace(cat):
    before = _observe(cat)
    with pytest.raises(ReproError):
        cat.define_class("Broken", includes=[IncludeSpec(
            ["Staff"], "fn x => [Name = x.NoSuchField]")])
    assert _observe(cat) == before


def test_failed_restore_into_catalog_rolls_back(cat):
    snap = snapshot(cat)
    # Corrupt one class definition so the replay fails midway, after the
    # objects were already recreated.
    snap["classes"][0]["own"] = [["ghost", None]]
    target = Catalog()
    target.new_object("keep", Tag="original")
    before = (sorted(target.objects), sorted(target.classes),
              sorted(target.session._global_frame))
    with pytest.raises(ReproError):
        restore(snap, target)
    assert (sorted(target.objects), sorted(target.classes),
            sorted(target.session._global_frame)) == before
    # The target session still answers queries.
    assert target.session.eval_py("query(fn x => x.Tag, keep)") == "original"


def test_catalog_usable_after_failures(cat):
    for _ in range(2):
        with pytest.raises(ReproError):
            cat.define_class("Bad", own=["ghost"])
    cat.define_class("Fine", own=["alice"])
    assert [r["Name"] for r in cat.extent("Fine")] == ["Alice"]


# -- the registry journal: a failure after the registry write -------------

@pytest.fixture()
def logged(tmp_path):
    """A WAL-backed catalog, so ``wal.append`` fails *after* each
    operation has already written its registry entry."""
    c = Catalog(wal=str(tmp_path / "db.wal"))
    c.new_object("alice", Name="Alice", Sex="female",
                 mutable={"Salary": 3000})
    c.new_object("bob", Name="Bob", Sex="male", mutable={"Salary": 2000})
    c.define_class("Staff", own=["alice", "bob"])
    yield c
    c.wal.close()


def _group():
    """A recursive pair (Section 4.4) over ``alice``."""
    slim = "fn x => [Name = x.Name, Sex = x.Sex]"
    women = 'fn o => query(fn x => x.Sex = "female", o)'
    return {
        "S2": ClassSpec("S2", [], [IncludeSpec(["F2"], slim, women)]),
        "F2": ClassSpec("F2", [("alice", slim)],
                        [IncludeSpec(["S2"], slim, women)]),
    }


def test_failed_rebind_restores_the_old_object_spec(logged):
    old = logged.objects["alice"]
    with inject("wal.append"), pytest.raises(InjectedFault):
        logged.new_object("alice", Name="Eve")
    assert logged.objects["alice"] is old
    assert logged.session.eval_py("query(fn x => x.Name, alice)") == "Alice"


def test_failed_redefinition_restores_the_old_class_spec(logged):
    old = logged.classes["Staff"]
    with inject("wal.append"), pytest.raises(InjectedFault):
        logged.define_class("Staff", own=["bob"])
    assert logged.classes["Staff"] is old
    assert [r["Name"] for r in logged.extent("Staff")] == ["Alice", "Bob"]


def test_failed_define_classes_leaves_no_group_member(logged):
    before = _observe(logged)
    with inject("wal.append"), pytest.raises(InjectedFault):
        logged.define_classes(_group())
    assert _observe(logged) == before
    assert "S2" not in logged.classes and "F2" not in logged.classes


def test_failed_insert_and_delete_restore_the_member_list(logged):
    logged.new_object("zoe", Name="Zoe", Sex="female",
                      mutable={"Salary": 1})
    own = logged.classes["Staff"].own
    members = list(own)
    with inject("wal.append"), pytest.raises(InjectedFault):
        logged.insert("Staff", "zoe")
    with inject("wal.append"), pytest.raises(InjectedFault):
        logged.delete("Staff", "alice")
    assert logged.classes["Staff"].own is own
    assert own == members
    assert [r["Name"] for r in logged.extent("Staff")] == ["Alice", "Bob"]


def test_registries_roll_back_with_an_enclosing_session_transaction(cat):
    # The inverses live in the session transaction's store journal, so an
    # enclosing transaction that fails takes the registry writes of the
    # catalog operations it contains down with their bindings.
    before = _observe(cat)
    with pytest.raises(RuntimeError):
        with cat.session.transaction():
            cat.new_object("bob", Name="Bob", Sex="male",
                           mutable={"Salary": 1})
            cat.insert("Staff", "bob")
            raise RuntimeError("abort the enclosing transaction")
    assert _observe(cat) == before
    assert cat.classes["Staff"].own == [("alice", None)]


def test_catalog_operations_never_deep_copy(monkeypatch):
    # Undo is journaled per write, so no operation copies the registries
    # (a whole-registry copy per operation makes population quadratic).
    def refuse(*_args, **_kwargs):
        raise AssertionError("a catalog operation deep-copied its state")

    monkeypatch.setattr(copy, "deepcopy", refuse)
    cat = Catalog()
    for name in ("alice", "bob", "carol"):
        cat.new_object(name, Name=name.title(), Sex="female",
                       mutable={"Salary": 1})
    cat.define_class("Staff", own=["alice"])
    cat.define_classes(_group())
    cat.insert("Staff", "bob")
    cat.delete("Staff", "alice")
    cat.update_object("bob", "Salary", 2)
    back = restore(snapshot(cat))
    assert sorted(back.objects) == ["alice", "bob", "carol"]
    assert back.extent("Staff") == cat.extent("Staff") == [
        {"Name": "Bob", "Sex": "female", "Salary": 2}]
    assert back.extent("S2") == cat.extent("S2")
