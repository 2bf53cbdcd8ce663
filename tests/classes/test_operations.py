"""The paper's alternative delete semantics (Section 4.1), as derived ops."""

import pytest

from repro import Session
from repro.classes.operations import (block_object, blocking_class_source,
                                      cascade_delete, unblock_object)

NAMES = "fn S => map(fn o => query(fn v => v.Name, o), S)"


def _build(optimize=False):
    sess = Session(optimize=optimize)
    sess.exec('val o1 = IDView([Name = "o1", Sex = "f"])')
    sess.exec('val o2 = IDView([Name = "o2", Sex = "f"])')
    sess.exec("val Base = class {o1, o2} end")
    sess.exec("val Derived = class {} includes Base "
              "as fn x => [Name = x.Name, Sex = x.Sex] "
              "where fn i => true end")
    return sess


@pytest.fixture()
def s():
    return _build()


def _val(s, name):
    return s.runtime_env.lookup(name)


def test_plain_delete_does_not_cascade(s):
    # the paper's chosen semantics, for contrast
    s.eval("delete((o1 as fn x => [Name = x.Name, Sex = x.Sex]), Derived)")
    assert s.eval_py(f"c-query({NAMES}, Derived)") == ["o1", "o2"]


def test_cascade_delete_removes_from_source(s):
    removed = cascade_delete(s.machine, _val(s, "Derived"), _val(s, "o1"))
    assert removed == 1  # only Base's own extent held o1
    assert s.eval_py(f"c-query({NAMES}, Derived)") == ["o2"]
    assert s.eval_py(f"c-query({NAMES}, Base)") == ["o2"]


def test_cascade_delete_through_chain(s):
    s.exec("val Top = class {} includes Derived "
           "as fn x => [Name = x.Name, Sex = x.Sex] "
           "where fn i => true end")
    cascade_delete(s.machine, _val(s, "Top"), _val(s, "o2"))
    assert s.eval_py(f"c-query({NAMES}, Top)") == ["o1"]
    assert s.eval_py(f"c-query({NAMES}, Base)") == ["o1"]


def test_cascade_delete_handles_cycles(s):
    s.exec('val seed = IDView([Name = "seed"])')
    s.exec("val A = class {seed} includes B as fn x => [Name = x.Name] "
           "where fn i => true end "
           "and B = class {} includes A as fn x => [Name = x.Name] "
           "where fn i => true end")
    removed = cascade_delete(s.machine, _val(s, "B"), _val(s, "seed"))
    assert removed == 1
    assert s.eval_py(f"c-query({NAMES}, A)") == []


def test_cascade_delete_counts_multiple_extents(s):
    # the object sits in two own extents (Derived's own + Base's own)
    s.eval("insert((o1 as fn x => [Name = x.Name, Sex = x.Sex]), Derived)")
    removed = cascade_delete(s.machine, _val(s, "Derived"), _val(s, "o1"))
    assert removed == 2


def test_blocking_class_in_language(s):
    decl = blocking_class_source(
        "Visible", "Base", "fn x => [Name = x.Name, Sex = x.Sex]")
    s.exec(decl)
    assert s.eval_py(f"c-query({NAMES}, Visible)") == ["o1", "o2"]
    # blocking delete: insert into the exclusion class
    s.eval("insert((o1 as fn x => [Name = x.Name, Sex = x.Sex]), "
           "Visible_blocked)")
    assert s.eval_py(f"c-query({NAMES}, Visible)") == ["o2"]
    # the source class is untouched (unlike cascading delete)
    assert s.eval_py(f"c-query({NAMES}, Base)") == ["o1", "o2"]
    # unblock by deleting from the exclusion class
    s.eval("delete((o1 as fn x => [Name = x.Name, Sex = x.Sex]), "
           "Visible_blocked)")
    assert s.eval_py(f"c-query({NAMES}, Visible)") == ["o1", "o2"]


def test_blocking_class_with_predicate(s):
    decl = blocking_class_source(
        "Fs", "Base", "fn x => [Name = x.Name]",
        'fn o => query(fn v => v.Sex = "f", o)')
    s.exec(decl)
    assert s.eval_py(f"c-query({NAMES}, Fs)") == ["o1", "o2"]


def test_block_object_runtime_helpers(s):
    decl = blocking_class_source(
        "V2", "Base", "fn x => [Name = x.Name, Sex = x.Sex]")
    s.exec(decl)
    blocked = _val(s, "V2_blocked")
    block_object(s.machine, blocked, _val(s, "o2"))
    assert s.eval_py(f"c-query({NAMES}, V2)") == ["o1"]
    unblock_object(s.machine, blocked, _val(s, "o2"))
    assert s.eval_py(f"c-query({NAMES}, V2)") == ["o1", "o2"]


def test_blocking_respects_objeq(s):
    # blocking any view of the object blocks the object
    decl = blocking_class_source(
        "V3", "Base", "fn x => [Name = x.Name, Sex = x.Sex]")
    s.exec(decl)
    s.eval("insert((o1 as fn x => [Name = \"alias\", Sex = x.Sex]), "
           "V3_blocked)")
    assert s.eval_py(f"c-query({NAMES}, V3)") == ["o2"]


# -- every helper writes extents through the machine's choke point ----------

def _with_blocking(sess):
    sess.exec(blocking_class_source(
        "V", "Base", "fn x => [Name = x.Name, Sex = x.Sex]"))
    block_object(sess.machine, _val(sess, "V_blocked"), _val(sess, "o2"))
    return sess


HELPERS = {
    "cascade_delete": lambda s: cascade_delete(
        s.machine, _val(s, "Derived"), _val(s, "o1")),
    "block_object": lambda s: block_object(
        s.machine, _val(s, "V_blocked"), _val(s, "o1")),
    "unblock_object": lambda s: unblock_object(
        s.machine, _val(s, "V_blocked"), _val(s, "o2")),
}


def _names(s):
    return {c: s.eval_py(f"c-query({NAMES}, {c})")
            for c in ("Base", "Derived", "V")}


class _Abort(Exception):
    pass


@pytest.mark.parametrize("helper", sorted(HELPERS))
def test_helper_rolls_back_with_its_transaction(helper):
    s = _with_blocking(_build())
    before = _names(s)
    with pytest.raises(_Abort):
        with s.transaction():
            HELPERS[helper](s)
            assert _names(s) != before
            raise _Abort()
    assert _names(s) == before


@pytest.mark.parametrize("helper", sorted(HELPERS))
def test_planner_sees_helper_writes(helper):
    naive, opt = _with_blocking(_build()), _with_blocking(_build(True))
    for _ in range(3):  # the repeats materialize every query's view
        assert _names(opt) == _names(naive)
    for sess in (naive, opt):
        HELPERS[helper](sess)
    assert _names(opt) == _names(naive)
