"""The RP4xx effect pass and its agreement with the pure_views check."""

import pytest

from repro.analysis.diagnostics import DiagnosticSink
from repro.analysis.effects import (ImpureViewError, check_views_pure,
                                   effect_pass)
from repro.syntax.parser import parse_expression


def codes(src, latent=None):
    sink = DiagnosticSink()
    effect_pass(parse_expression(src), sink, latent)
    return [d.code for d in sink]


IMPURE_AS = "(o as fn x => let u = update(x, A, 0) in x end)"
IMPURE_INCLUDE = ("class {} include B as "
                  "fn x => let u = update(x, A, 0) in x end "
                  "where fn x => true end")
IMPURE_PRED = ("class {} include B as fn x => x "
               "where fn x => let u = update(x, A, 0) in true end end")


def test_rp401_impure_as_view():
    assert codes(IMPURE_AS) == ["RP401"]


def test_rp402_impure_include_view():
    assert codes(IMPURE_INCLUDE) == ["RP402"]


def test_rp403_impure_include_predicate():
    assert codes(IMPURE_PRED) == ["RP403"]


def test_pure_views_and_predicates_are_silent():
    assert codes("(o as fn x => [A = x.A, B := extract(x, B)])") == []
    assert codes("class {} include B as fn x => [A = x.A] "
                 "where fn x => x.A > 0 end") == []


def test_query_functions_may_update():
    # the paper routes updates through query — not a finding
    assert codes("query(fn v => update(v, A, 1), o)") == []


def test_latent_session_name_in_view():
    assert codes("(o as fn x => let u = dirty x in x end)",
                 {"dirty"}) == ["RP401"]
    assert codes("(o as fn x => let u = clean x in x end)",
                 {"dirty"}) == []


def test_let_shadowing_clears_latent_name():
    assert codes("let dirty = fn x => x in "
                 "(o as fn x => let u = dirty x in x end) end",
                 {"dirty"}) == []


def test_check_views_pure_promotes_first_finding():
    with pytest.raises(ImpureViewError):
        check_views_pure(parse_expression(IMPURE_AS))
    with pytest.raises(ImpureViewError):
        check_views_pure(parse_expression(IMPURE_INCLUDE))
    # predicates are only a warning: not promoted
    check_views_pure(parse_expression(IMPURE_PRED))


def test_check_views_pure_error_carries_span():
    with pytest.raises(ImpureViewError) as exc_info:
        check_views_pure(parse_expression(IMPURE_AS))
    assert exc_info.value.span is not None
    assert exc_info.value.span.line == 1
