"""The prepared-query API (parse/typecheck once, run many)."""

import pytest

from repro import Session
from repro.errors import TypeInferenceError, UnificationError


@pytest.fixture()
def s():
    return Session()


def test_prepare_runs_repeatedly(s):
    s.exec("val r = [n := 0]")
    bump = s.prepare("update(r, n, (r.n) + 1)")
    read = s.prepare("r.n")
    for _ in range(5):
        bump()
    assert read.run_py() == 5


def test_prepare_reports_type(s):
    q = s.prepare("fn x => x.a")
    assert q.type_str() == "forall t1::U. forall t2::[[a = t1]]. t2 -> t1"


def test_prepare_rejects_ill_typed(s):
    with pytest.raises(UnificationError):
        s.prepare("1 + true")


def test_prepare_requires_bindings_at_prepare_time(s):
    with pytest.raises(TypeInferenceError):
        s.prepare("missing + 1")


def test_prepared_query_sees_later_mutations(s):
    s.exec("val C = class {} end")
    size = s.prepare("c-query(fn S => size(S), C)")
    assert size.run_py() == 0
    s.eval("insert(IDView([N = 1]), C)")
    assert size.run_py() == 1


def test_prepare_respects_pure_views():
    from repro.analysis.effects import ImpureViewError
    s = Session(pure_views=True)
    s.exec("val o = IDView([A := 1])")
    with pytest.raises(ImpureViewError):
        s.prepare("(o as fn x => let u = update(x, A, 0) in x end)")


def test_prepare_skips_reinference(s, monkeypatch):
    q = s.prepare("1 + 1")
    import repro.lang.api as api
    monkeypatch.setattr(api, "infer_scheme",
                        lambda *a, **k: pytest.fail("re-inferred"))
    assert q.run_py() == 2
