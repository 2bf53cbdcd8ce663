"""Unit tests for the footprint analysis (repro.analysis.regions)."""

import pytest

from repro.analysis.diagnostics import DiagnosticSink
from repro.analysis.engine import lint_source
from repro.analysis.regions import (FootprintSummary, ResolvedFootprint,
                                    SharingTracer, class_extent_is_pure,
                                    program_footprint, reachable_state,
                                    resolve_footprint, term_footprint,
                                    value_may_mutate)
from repro.db.catalog import Catalog
from repro.lang.api import Session
from repro.syntax.parser import parse_expression


def fp(src, latent=None):
    return program_footprint(src, latent)


# ---------------------------------------------------------------------------
# Precise summaries
# ---------------------------------------------------------------------------

def test_pure_read_has_empty_write_set():
    s = fp("query(fn x => x.Salary, joe)")
    assert s.bounded
    assert s.writes == frozenset()
    assert s.reads == frozenset(["joe"])


def test_direct_update_writes_the_named_root():
    s = fp("query(fn x => update(x, Salary, 900), joe)")
    assert s.writes == frozenset(["joe"])
    assert s.extent_writes == frozenset()


def test_alias_through_val_resolves_to_original_root():
    s = fp("val x = joe; query(fn v => update(v, Salary, 1), x)")
    assert s.writes == frozenset(["joe"])


def test_bound_lambda_applied_to_named_object():
    s = fp("val bump = fn o => query(fn v => update(v, Salary, 1), o); "
           "bump joe; "
           "bump amy")
    assert s.writes == frozenset(["joe", "amy"])


def test_insert_and_delete_are_extent_writes():
    s = fp("insert(joe, Emp)")
    assert s.writes == frozenset(["Emp"])
    assert s.extent_writes == frozenset(["Emp"])
    s = fp("delete(joe, Emp)")
    assert s.extent_writes == frozenset(["Emp"])


def test_expression_statement_binds_it():
    s = fp("joe; query(fn v => update(v, Salary, 1), it)")
    assert s.writes == frozenset(["joe"])


def test_if_joins_both_branch_roots():
    s = fp("query(fn v => update(v, Salary, 1), "
           "if true then joe else amy)")
    assert s.writes == frozenset(["joe", "amy"])


def test_rec_class_decl_reads_constituents_writes_nothing():
    s = fp("val Names = class {} includes Emp "
           "as fn x => [Name = x.Name] where fn o => true end; "
           "c-query(fn S => size(S), Names)")
    assert s.bounded
    assert s.writes == frozenset()
    assert "Emp" in s.reads


def test_term_footprint_matches_program_footprint():
    term = parse_expression("query(fn x => update(x, Salary, 0), joe)")
    s = term_footprint(term)
    assert s.writes == frozenset(["joe"])


# ---------------------------------------------------------------------------
# ⊤ widening
# ---------------------------------------------------------------------------

def test_parse_error_is_top():
    s = fp("val = = =")
    assert not s.bounded
    assert "program does not parse" in s.reasons


def test_latent_name_application_is_top():
    s = fp("f joe", latent={"f"})
    assert not s.bounded
    assert any("not statically known" in r for r in s.reasons)


def test_pure_unknown_application_stays_bounded():
    # An unknown function that the purity environment says is pure
    # cannot write: the footprint stays bounded.
    s = fp("f joe", latent=set())
    assert s.bounded
    assert s.writes == frozenset()
    assert {"f", "joe"} <= s.reads


def test_builtin_hof_with_mutating_lambda_is_top():
    s = fp("c-query(fn S => map(fn x => "
           "query(fn v => update(v, Salary, 0), x), S), Emp)")
    assert not s.bounded


def test_update_through_unresolvable_target_is_top():
    # The RMW target comes out of an unknown function's result.
    s = fp("query(fn v => update(v, Salary, 1), f joe)", latent=set())
    assert not s.bounded
    assert any("update target" in r for r in s.reasons)


def test_top_still_reports_reads():
    s = fp("f joe", latent={"f"})
    assert "joe" in s.reads and "f" in s.reads


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_describe_one_line_format():
    s = FootprintSummary(frozenset(["b", "a"]), frozenset(["c"]),
                         frozenset(["D"]))
    assert s.describe() == ("footprint: reads {a, b}; writes {c}; "
                            "extent writes {D}")
    top = FootprintSummary(frozenset(["a"]), None)
    assert top.describe() == "footprint: reads {a}; writes ⊤"


def test_render_multiline_format():
    s = FootprintSummary(frozenset(["joe"]), frozenset())
    out = s.render()
    assert "reads:         joe" in out
    assert "writes:        (nothing)" in out
    assert "extent writes: (nothing)" in out
    top = FootprintSummary(frozenset(), None, reasons=("why",))
    out = top.render()
    assert "reads:         (nothing)" in out
    assert "⊤" in out and "  - why" in out


def test_regions_pass_emits_rp501_and_rp502():
    diags = lint_source("query(fn x => update(x, Salary, 1), joe)",
                        passes=["regions"]).diagnostics
    assert [d.code for d in diags] == ["RP501"]
    assert "writes {joe}" in diags[0].message

    diags = lint_source("f joe", latent_names={"f"},
                        passes=["regions"]).diagnostics
    assert [d.code for d in diags] == ["RP502"]
    assert "not statically bounded" in diags[0].message
    assert any("conflicting with every other program" in n
               for n in diags[0].notes)


def test_session_explain_footprint():
    cat = Catalog()
    cat.new_object("joe", Name="Joe", mutable={"Salary": 1})
    out = cat.session.explain_footprint(
        "query(fn x => update(x, Salary, 2), joe)")
    assert "writes:        joe" in out


# ---------------------------------------------------------------------------
# reachable_state / value purity
# ---------------------------------------------------------------------------

def test_reachable_state_walks_objects_and_classes():
    cat = Catalog()
    cat.new_object("joe", Name="Joe", mutable={"Salary": 1})
    cat.define_class("Emp", own=["joe"])
    session = cat.session
    locs, exts = reachable_state(session._global_frame["Emp"])
    jlocs, _ = reachable_state(session._global_frame["joe"])
    assert jlocs  # the mutable Salary cell
    assert jlocs <= locs  # the class reaches its members' cells
    assert session._global_frame["Emp"].oid in exts


def test_reachable_state_handles_cycles():
    cat = Catalog()
    cat.session.exec("val Loop = class {} includes Loop "
                     "as fn x => x where fn o => false end")
    locs, exts = reachable_state(cat.session._global_frame["Loop"])
    assert cat.session._global_frame["Loop"].oid in exts


def test_value_may_mutate():
    session = Session()
    pure = session.eval("fn x => x.Salary")
    impure = session.eval("fn x => update(x, Salary, 0)")
    assert not value_may_mutate(pure)
    assert value_may_mutate(impure)
    # Structural: a record carrying an impure closure may mutate.
    session.exec("val r = [F = fn x => update(x, A, 1)]")
    assert value_may_mutate(session._global_frame["r"])


def test_class_extent_is_pure():
    cat = Catalog()
    cat.new_object("a", Name="A", mutable={"N": 1})
    cat.define_class("B", own=["a"])
    s = cat.session
    s.exec("val Ok = class {} includes B as fn x => x "
           "where fn o => true end")
    s.exec("val Bad = class {} includes B as fn x => x "
           "where fn o => (fn u => true) "
           "(query(fn v => update(v, N, 0), o)) end")
    assert class_extent_is_pure(s._global_frame["Ok"], {})
    assert not class_extent_is_pure(s._global_frame["Bad"], {})


# ---------------------------------------------------------------------------
# Resolution against the live heap (the workload alias edges)
# ---------------------------------------------------------------------------

def _fp(reads=(), writes=()):
    w = frozenset(writes)
    return ResolvedFootprint(frozenset(reads) | w, w)


def test_overlap_semantics():
    a = _fp(reads=[("loc", 1)], writes=[("loc", 2)])
    b = _fp(reads=[("loc", 2)])            # reads what a writes
    c = _fp(reads=[("loc", 9)], writes=[("loc", 1)])  # writes what a reads
    d = _fp(reads=[("loc", 7)], writes=[("loc", 8)])  # disjoint
    assert a.overlaps(b) and b.overlaps(a)
    assert a.overlaps(c) and c.overlaps(a)
    assert not a.overlaps(d) and not d.overlaps(a)
    # ⊤ overlaps everything; the empty footprint overlaps nothing.
    assert a.overlaps(None)
    empty = _fp()
    assert not empty.overlaps(a) and not a.overlaps(empty)
    assert not empty.overlaps(empty)


def test_resolve_footprint_against_live_session():
    cat = Catalog()
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("amy", Name="Amy", mutable={"Salary": 200})
    session = cat.session

    joe = resolve_footprint(
        FootprintSummary(frozenset(["joe"]), frozenset(["joe"])), session)
    assert joe is not None and joe.writes and joe.writes <= joe.reads

    disjoint = resolve_footprint(
        FootprintSummary(frozenset(["amy"]), frozenset(["amy"])), session)
    assert disjoint is not None and not joe.overlaps(disjoint)

    # ⊤ write set, missing summary, unbound root: all resolve to None.
    assert resolve_footprint(
        FootprintSummary(frozenset(["joe"]), None), session) is None
    assert resolve_footprint(None, session) is None
    assert resolve_footprint(
        FootprintSummary(frozenset(["nope"]), frozenset()), session) is None

    pure = resolve_footprint(
        FootprintSummary(frozenset(), frozenset()), session)
    assert pure is not None and not pure.overlaps(joe)


# ---------------------------------------------------------------------------
# The machine's dead-include skip shrinks the traced read set
# ---------------------------------------------------------------------------

def test_dead_include_skips_source_extent_reads():
    cat = Catalog()
    cat.new_object("a0", Name="A0", mutable={"N": 1})
    cat.new_object("b0", Name="B0", mutable={"N": 2})
    cat.define_class("B", own=["b0"])
    session = cat.session
    session.exec("val Dead = class {a0} includes B "
                 "as fn x => x where fn o => false end")
    session.exec("val Live = class {a0} includes B "
                 "as fn x => x where fn o => true end")
    b_oid = session._global_frame["B"].oid

    def traced_extent(name):
        tracer = SharingTracer()
        store = session.machine.store
        store.tracker = tracer
        try:
            session.eval_py(f"c-query(fn S => size(S), {name})")
        finally:
            store.tracker = None
        return tracer

    dead = traced_extent("Dead")
    live = traced_extent("Live")
    # The dead clause is skipped outright: B's extent is never consulted.
    assert b_oid not in dead.read_extents
    assert b_oid in live.read_extents
    assert len(dead.read_extents) < len(live.read_extents)
