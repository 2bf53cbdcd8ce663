"""The planner plans each statement shape once and keeps the plan.

A statement's first run recognizes its shape, checks its purity and
rewrites it; the plan (or the mark that the planner declines the shape)
is kept with the statement-cache entry or the prepared query, so later
runs, whatever their literals, skip all three.
"""

from __future__ import annotations

from repro import Session
from repro.lang.statements import DECLINED
from repro.query import engine

from .helpers import SETUP, make_sessions, norm

_SCAN = ("c-query(fn S => size(filter(fn o => query(fn v => v.Salary > {t},"
         " o), S)), A)")


def _counting_recognize(monkeypatch) -> list:
    calls = []
    recognize = engine.recognize

    def counted(term):
        calls.append(term)
        return recognize(term)

    monkeypatch.setattr(engine, "recognize", counted)
    return calls


def test_one_scan_shape_is_recognized_once(monkeypatch):
    naive, opt = make_sessions()
    calls = _counting_recognize(monkeypatch)
    for t in range(100):
        src = _SCAN.format(t=t)
        assert opt.eval_py(src) == naive.eval_py(src)
    assert len(calls) == 1
    stats = opt.planner.stats.snapshot()
    assert stats["planned"] == 100 and stats["fallbacks"] == 0


def test_a_point_read_is_planned_once_then_skipped(monkeypatch):
    s = Session(optimize=True)
    s.exec(SETUP)
    calls = _counting_recognize(monkeypatch)
    for k in range(20):
        assert s.eval_py(f"query(fn v => v.Salary + {k}, a0)") == 10 + k
    assert len(calls) == 1
    stmt, _key, _literals = s._lookup("query(fn v => v.Salary + 1, a0)",
                                      expression=True)
    assert stmt.plan is DECLINED
    stats = s.planner.stats.snapshot()
    assert stats["fallbacks"] == 1 and stats["planned"] == 0


def test_a_prepared_query_is_replanned_after_a_rebinding():
    # A prepared query pins nothing, so its kept plan is checked against
    # the globals it read: rebinding the predicate to an impure function
    # must take the query off the planner, and its effect must happen.
    naive, opt = make_sessions()
    for s in (naive, opt):
        s.exec('val p = fn o => query(fn v => v.Dept = "eng", o)')
    queries = [s.prepare("c-query(fn S => filter(p, S), A)")
               for s in (naive, opt)]
    for _ in range(3):
        assert norm(queries[1]()) == norm(queries[0]())
    assert opt.planner.stats.mv_hits == 1
    for s in (naive, opt):
        s.exec("val p = fn o => let u = query(fn v => "
               "update(v, Salary, 0), a1) in "
               'query(fn v => v.Dept = "eng", o) end')
    assert norm(queries[1]()) == norm(queries[0]())
    for s in (naive, opt):
        assert s.eval_py("query(fn v => v.Salary, a1)") == 0
    assert opt.planner.stats.planned == 3
    assert queries[1].plan is DECLINED
