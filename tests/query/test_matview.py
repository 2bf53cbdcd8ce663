"""Materialized views: build, serve, delta maintenance, invalidation."""

from __future__ import annotations

from repro import Session
from repro.query import bulk_insert
from repro.query.matview import CAPACITY

from .helpers import SETUP, make_sessions, norm

_QUERY = ('c-query(fn S => filter('
          'fn o => query(fn v => v.Dept = "eng", o), S), A)')


def _stats(session):
    return session._ensure_planner().stats


def _same(naive, opt, src: str) -> None:
    assert norm(opt.eval(src)) == norm(naive.eval(src))


def test_scan_then_build_then_hit():
    naive, opt = make_sessions()
    for _ in range(3):
        _same(naive, opt, _QUERY)
    st = _stats(opt)
    assert st.scans == 1
    assert st.mv_builds == 1
    assert st.mv_hits == 1
    views = opt.planner.views
    assert views.builds == 1 and views.hits == 1


def test_watermark_short_circuits_validation():
    _naive, opt = make_sessions()
    for _ in range(4):
        opt.eval(_QUERY)
    # Hits 3 and 4 happen with an unmoved store stamp: the version walk
    # is skipped but the entry still serves.
    assert _stats(opt).mv_hits == 2


def test_delta_on_insert_and_delete():
    naive, opt = make_sessions()
    for _ in range(3):
        _same(naive, opt, _QUERY)
    for s in (naive, opt):
        s.exec('val d0 = IDView([Name = "Dee", Dept = "eng", Salary := 3])')
        s.exec("insert(d0, A)")
    _same(naive, opt, _QUERY)
    for s in (naive, opt):
        s.exec("delete(a0, A)")
    _same(naive, opt, _QUERY)
    views = opt.planner.views
    assert views.builds == 1            # never recomputed from scratch
    assert views.deltas >= 2
    names = {o.raw.read("Name").value for o in opt.eval(_QUERY).elems}
    assert names == {"Cyd", "Dee"}


def test_mutable_write_read_by_predicate_invalidates():
    naive, opt = make_sessions()
    src = ('c-query(fn S => filter('
           'fn o => query(fn v => v.Salary = 10, o), S), A)')
    for _ in range(3):
        _same(naive, opt, src)
    assert _stats(opt).mv_hits == 1
    # The predicate read every Salary location; writing one cannot be
    # localized and must drop the entry.
    for s in (naive, opt):
        s.exec("query(fn v => update(v, Salary, 12), a1)")
    _same(naive, opt, src)
    views = opt.planner.views
    assert views.invalidations >= 1
    _same(naive, opt, src)              # re-cached after recomputation
    assert views.builds >= 2


def test_global_rebinding_invalidates():
    naive, opt = make_sessions()
    src = "c-query(fn S => map(fn x => x as v2, S), A)"
    for _ in range(3):
        _same(naive, opt, src)
    assert _stats(opt).mv_hits == 1
    # Rebinding the view changes what the query means without touching
    # the store; the globals-identity check catches it.
    for s in (naive, opt):
        s.exec("val v2 = fn x => [Dept = x.Dept]")
    _same(naive, opt, src)
    views = opt.planner.views
    assert views.invalidations >= 1
    # The query re-caches under the new binding and serves again.
    _same(naive, opt, src)
    _same(naive, opt, src)
    assert views.builds >= 2 and views.hits >= 2
    first = opt.eval(src).elems[0]
    dept = opt.machine.apply(first.view, first.raw)
    assert sorted(dept.labels()) == ["Dept"]


def test_rollback_invalidates_cached_view():
    naive, opt = make_sessions()
    for _ in range(3):
        _same(naive, opt, _QUERY)

    class Boom(Exception):
        pass

    for s in (naive, opt):
        s.exec('val d1 = IDView([Name = "Doom", Dept = "eng", Salary := 0])')
        try:
            with s.transaction():
                s.exec("insert(d1, A)")
                raise Boom()
        except Boom:
            pass
    _same(naive, opt, _QUERY)
    names = {o.raw.read("Name").value for o in opt.eval(_QUERY).elems}
    assert "Doom" not in names


def test_relation_results_cached_without_delta_plan():
    # A relation stage allocates fresh records per run: cacheable, but
    # not element-wise, so the entry has no delta plan and any source
    # write drops it.
    naive, opt = make_sessions()
    src = ('c-query(fn S => c-query(fn D => '
           'relation [l = x, r = d] from x in S, d in D '
           'where query(fn v => v.Dept = "eng", x), B), A)')
    for _ in range(3):
        _same(naive, opt, src)
    views = opt.planner.views
    assert views.builds == 1 and views.hits == 1
    entry = next(iter(views.entries.values()))
    assert entry.pairs is None and entry.results is not None
    for s in (naive, opt):
        s.exec('val d2 = IDView([Name = "New", Dept = "eng", Salary := 1])')
        s.exec("insert(d2, B)")
    _same(naive, opt, src)
    assert views.invalidations >= 1


def test_bulk_insert_replaces_extent_once():
    s = Session(optimize=True)
    s.exec(SETUP)
    for _ in range(3):
        s.eval(_QUERY)
    n = bulk_insert(s, "A",
                    [{"Name": f"b{i}", "Dept": "eng", "Salary": i}
                     for i in range(10)], mutable=("Salary",))
    assert n == 10
    out = s.eval(_QUERY)
    assert len(out.elems) == 12         # Ada, Cyd + ten bulk rows
    views = s.planner.views
    assert views.builds == 1 and views.deltas >= 1


def _emp_session(n: int = 40) -> Session:
    """``e<k>`` has ``Salary = 2000 + 10k``; class ``Emp`` holds them."""
    s = Session(optimize=True)
    s.exec('val seed = IDView([Name = "seed", Salary := 0])\n'
           "val Emp = class {seed} end")
    bulk_insert(s, "Emp", [{"Name": f"e{k}", "Salary": 2000 + 10 * k}
                           for k in range(n)], mutable=("Salary",))
    return s


_SCAN = ("c-query(fn S => size(filter(fn o => query(fn v => v.Salary > {t},"
         " o), S)), Emp)")


def _above(t: int, n: int = 40) -> int:
    return sum(2000 + 10 * k > t for k in range(n))


def test_the_view_cache_is_bounded():
    # Each parameter value of a planned scan is a fingerprint of its own:
    # 1,000 thresholds, each run twice (a scan, then a build), leave at
    # most CAPACITY views and request counts.
    s = _emp_session()
    views = s._ensure_planner().views
    for t in range(2000, 3000):
        for _ in range(2):
            assert s.eval_py(_SCAN.format(t=t)) == _above(t)
    assert views.builds == 1000
    assert len(views.entries) <= CAPACITY and len(views.seen) <= CAPACITY
    assert len(views.wasted) <= CAPACITY
    # The newest view still serves.
    hits = views.hits
    assert s.eval_py(_SCAN.format(t=2999)) == _above(2999)
    assert views.hits == hits + 1
    # The oldest was evicted: it is scanned and built again, and right.
    for _ in range(3):
        assert s.eval_py(_SCAN.format(t=2000)) == _above(2000)
    assert views.builds == 1001 and views.hits == hits + 2


def _staff_session(n: int) -> Session:
    """``FemaleMember`` includes ``Staff`` (half of whose ``n`` members
    are female) with a view and a predicate, as in §4.2."""
    s = Session(optimize=True)
    s.exec('val seed = IDView([Name = "seed", Sex = "female", Salary := 0])'
           "\nval Staff = class {seed} end")
    bulk_insert(s, "Staff", [{"Name": f"p{i}",
                              "Sex": "female" if i % 2 else "male",
                              "Salary": i} for i in range(n - 1)],
                mutable=("Salary",))
    s.exec("val FemaleMember = class {} includes Staff "
           'as fn st => [Name = st.Name, Category = "staff"] '
           'where fn o => query(fn x => x.Sex = "female", o) end')
    return s


def test_an_include_class_view_dropped_unused_is_not_rebuilt():
    # A view over an include class is dropped by every insert into a
    # source class.  When each query follows such an insert, a view built
    # on the second request is dropped before it serves, and the query is
    # then scanned until two requests in a row see nothing change.
    s = _staff_session(100)
    src = "c-query(fn S => size(S), FemaleMember)"
    views = s._ensure_planner().views
    for r in range(20):
        s.exec(f'val n{r} = IDView([Name = "n{r}", Sex = "female", '
               f"Salary := {r}])")
        s.exec(f"insert(n{r}, Staff)")
        assert s.eval_py(src) == 51 + r
    assert views.builds <= 2 and views.hits == 0
    # The read-only repeat still builds a view and serves it.
    for _ in range(20):
        assert s.eval_py(src) == 70
    assert views.builds <= 2 and views.hits >= 18
