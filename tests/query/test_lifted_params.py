"""The planner serves statements whose literals are lifted parameters.

A statement-cache hit runs its template with the literals bound as
parameters, a fresh value on every run.  The materialized-view cache keys
a view on those parameter values and pins only real globals by identity,
so a repeated scan keeps its view hits, and each threshold gets a view of
its own.
"""

from repro import Session

_SCAN = ("c-query(fn S => size(filter(fn o => query(fn v => v.Salary > {t},"
         " o), S)), Emp)")


def _session():
    s = Session(optimize=True)
    s.exec("val Emp = class {} end")
    for k in range(40):
        s.exec(f'val e{k} = IDView([Name = "e{k}", Salary := {2000 + 10 * k}])')
        s.exec(f"insert(e{k}, Emp)")
    return s


def test_a_lifted_scan_keeps_its_view_hits():
    s = _session()
    assert {s.eval_py(_SCAN.format(t=2100)) for _ in range(50)} == {29}
    stats = s.planner.stats.snapshot()
    assert (stats["planned"], stats["scans"], stats["mv_builds"],
            stats["mv_hits"]) == (50, 1, 1, 48)


def test_each_threshold_gets_its_own_view():
    s = _session()
    for t, want in ((2100, 29), (2050, 34), (2300, 9), (2100, 29)):
        assert {s.eval_py(_SCAN.format(t=t)) for _ in range(10)} == {want}
    stats = s.planner.stats.snapshot()
    # 2100's view, built on its second run, still serves its last ten.
    assert (stats["scans"], stats["mv_builds"], stats["mv_hits"]) == (
        3, 3, 3 * 8 + 10)


def test_a_write_between_runs_is_seen():
    s = _session()
    for _ in range(3):
        assert s.eval_py(_SCAN.format(t=2380)) == 1
    s.exec("query(fn v => update(v, Salary, 9999), e0)")
    assert s.eval_py(_SCAN.format(t=2380)) == 2
    assert s.eval_py(_SCAN.format(t=9000)) == 1
