"""The compile engine: cache, invalidation, stats, explain, server wiring."""

import pytest

from repro import Session
from repro.db.catalog import Catalog
from repro.server import Server, ServerConfig


# -- session surface --------------------------------------------------------

def test_compile_kwarg_is_validated():
    with pytest.raises(ValueError):
        Session(compile="jit")
    assert Session(compile="off").compile_mode == "off"
    assert Session().compile_mode == "auto"


def test_stats_are_empty_before_any_evaluation():
    s = Session()
    assert s.compile_stats == {
        "programs_compiled": 0, "fallbacks": 0, "cache_hits": 0,
        "invalidations": 0, "compiled_runs": 0}


def test_compile_off_never_compiles():
    s = Session(compile="off")
    assert s.eval_py("1 + 2") == 3
    assert s.compile_stats["compiled_runs"] == 0
    assert s.compile_stats["programs_compiled"] == 0


def test_repeat_evaluation_hits_the_program_cache():
    s = Session()
    assert s.eval_py("1 + 2 * 3") == 7
    base = s.compile_stats
    assert base["programs_compiled"] >= 1
    assert s.eval_py("1 + 2 * 3") == 7
    after = s.compile_stats
    assert after["cache_hits"] == base["cache_hits"] + 1
    # The hit served the cached program: nothing new was compiled.
    assert after["programs_compiled"] == base["programs_compiled"]
    assert after["compiled_runs"] == base["compiled_runs"] + 1


def test_rebinding_a_global_invalidates_cached_programs():
    # The regression this guards: a cached program embeds the *value* a
    # free name had at compile time; rebinding the name must force a
    # recompile, never serve the stale embedding.
    s = Session()
    s.exec("fun inc x = x + 1")
    assert s.eval_py("inc 41") == 42
    assert s.eval_py("inc 41") == 42  # cached
    before = s.compile_stats
    s.exec("fun inc x = x + 100")
    assert s.eval_py("inc 41") == 141
    after = s.compile_stats
    assert after["invalidations"] == before["invalidations"] + 1
    assert after["programs_compiled"] == before["programs_compiled"] + 1


def test_rebinding_a_builtin_invalidates_specializations():
    # Specialized arithmetic pins the pristine builtin; shadowing '+'
    # with a session binding must reach the new definition.
    s = Session()
    assert s.eval_py("1 + 2") == 3
    s.exec("val fortytwo = fn a => fn b => 42")
    s.exec("val x = 5")
    assert s.eval_py("fortytwo 1 2") == 42


def test_structural_fallback_is_cached_with_its_reason():
    s = Session()
    src = "relobj(a = IDView([N = 1]), b = IDView([M = 2]))"
    s.eval(src)
    s.eval(src)
    stats = s.compile_stats
    # One compile attempt, cached as a fallback; the second run pays
    # nothing and compiles nothing.
    assert stats["fallbacks"] == 1
    assert stats["compiled_runs"] == 0
    decision = s.compile_engine.last_decision
    assert decision is not None and not decision.compiled
    assert "relobj" in decision.reason


# -- explain ----------------------------------------------------------------

def test_explain_plan_reports_compiled():
    s = Session()
    report = s.explain_plan("1 + 2")
    assert "execution: compiled" in report


def test_explain_plan_compiles_a_statement_shape_once():
    s = Session()
    before = s.compile_stats["programs_compiled"]
    for src in ("1 + 2", "1 + 2", "3 + 4"):
        assert "execution: compiled" in s.explain_plan(src)
    assert s.eval_py("5 + 6") == 11  # the explain warmed the program
    stats = s.compile_stats
    assert stats["programs_compiled"] == before + 1
    assert stats["cache_hits"] == 3


def test_explain_plan_reports_fallback_reason():
    s = Session()
    report = s.explain_plan(
        "relobj(a = IDView([N = 1]), b = IDView([M = 2]))")
    assert ("execution: interpreted — relation-object construction "
            "(relobj) is not compiled yet" in report)


def test_explain_plan_reports_compilation_disabled():
    s = Session(compile="off")
    report = s.explain_plan("1 + 2")
    assert "execution: interpreted — compilation disabled" in report


def test_repl_explain_shows_the_decision():
    from repro.lang.repl import run_line
    s = Session(optimize=True)
    out = run_line(s, ":explain 1 + 2")
    assert out is not None and "execution: compiled" in out


# -- server wiring ----------------------------------------------------------

def _catalog():
    cat = Catalog()
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("amy", Name="Amy", mutable={"Salary": 200})
    cat.define_class("Emp", own=["joe"])
    return cat


def test_server_worker_path_runs_compiled_programs():
    with Server(_catalog(), config=ServerConfig(workers=2)) as server:
        client = server.connect()
        for _ in range(3):
            client.exec(
                "query(fn x => update(x, Salary, x.Salary + 1), joe)")
        assert client.eval_py("query(fn x => x.Salary, joe)") == 103
        snap = server.compile_snapshot()
        assert snap["compiled_programs"] > 0
        assert snap["compiled_runs"] > 0
        assert snap["compile_fallbacks"] >= 0
        assert set(snap) == {"compiled_programs", "compile_fallbacks",
                             "compile_cache_hits", "compile_invalidations",
                             "compiled_runs"}
        # The repeated statement was served from the program cache.
        assert snap["compile_cache_hits"] > 0


def test_stats_wire_op_carries_compile_counters():
    from repro.client import Client
    from repro.server.protocol import ProtocolServer
    with Server(_catalog(), config=ServerConfig(workers=2)) as server:
        with ProtocolServer(server) as front:
            client = Client(*front.address)
            try:
                client.exec(
                    "query(fn x => update(x, Salary, 7), joe)")
                st = client.stats()
                assert st["compile"]["compiled_programs"] > 0
                assert st["compile"] == server.compile_snapshot()
            finally:
                client.close()
