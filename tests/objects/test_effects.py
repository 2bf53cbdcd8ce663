"""The optional purity check for viewing functions (Section 3.1's
"it would be useful for the type system to check whether e2 changes the
state of the raw object")."""

import pytest

from repro import Session
from repro.analysis.effects import (ImpureViewError, PurityEnv,
                                   expression_is_impure)
from repro.syntax.parser import parse_expression


def impure(src, env=None):
    return expression_is_impure(parse_expression(src), env)


def test_pure_expressions():
    assert not impure("fn x => [A = x.B]")
    assert not impure("fn x => x.A + 1")
    assert not impure("{1, 2}")
    assert not impure("fn x => [B := extract(x, A)]")  # sharing, not update


def test_update_is_impure():
    assert impure("fn x => update(x, A, 1)")
    assert impure("fn x => let u = update(x, A, 1) in x end")


def test_insert_delete_are_impure():
    assert impure("fn o => insert(o, C)")
    assert impure("fn o => delete(o, C)")


def test_impurity_flows_through_let():
    assert impure("let f = fn x => update(x, A, 1) in fn y => f y end")
    assert not impure("let f = fn x => update(x, A, 1) in fn y => y end")


def test_shadowing_restores_purity():
    assert not impure(
        "let f = fn x => update(x, A, 1) in "
        "let f = fn x => x in fn y => f y end end")


def test_purity_env_names():
    env = PurityEnv({"dirty"})
    assert impure("fn x => dirty x", env)
    assert not impure("fn x => clean x", env)


def test_session_pure_views_accepts_pure_view():
    s = Session(pure_views=True)
    s.exec("val o = IDView([A = 1])")
    assert s.eval_py("query(fn v => v.B, (o as fn x => [B = x.A]))") == 1


def test_session_pure_views_rejects_updating_view():
    s = Session(pure_views=True)
    s.exec("val o = IDView([A := 1])")
    with pytest.raises(ImpureViewError):
        s.eval("(o as fn x => let u = update(x, A, 2) in x end)")


def test_session_pure_views_rejects_impure_include_view():
    s = Session(pure_views=True)
    s.exec("val o = IDView([A := 1])")
    s.exec("val Base = class {o} end")
    with pytest.raises(ImpureViewError):
        s.eval("class {} includes Base "
               "as fn x => let u = update(x, A, 0) in x end "
               "where fn i => true end")


def test_session_pure_views_allows_updating_queries():
    # the paper routes updates through query; those remain legal
    s = Session(pure_views=True)
    s.exec("val o = IDView([A := 1])")
    s.eval("query(fn x => update(x, A, 9), o)")
    assert s.eval_py("query(fn x => x.A, o)") == 9


def test_session_pure_views_allows_impure_predicates():
    # only the *view* position is restricted
    s = Session(pure_views=True)
    s.exec("val o = IDView([A := 1])")
    s.exec("val Base = class {o} end")
    s.eval("class {} includes Base as fn x => [A = x.A] "
           "where fn i => query(fn x => "
           "let u = update(x, A, x.A) in true end, i) end")


def test_session_tracks_impure_bindings():
    s = Session(pure_views=True)
    s.exec("val bump = fn x => update(x, A, 1)")
    s.exec("val o = IDView([A := 1])")
    with pytest.raises(ImpureViewError):
        s.eval("(o as fn x => let u = bump x in x end)")


def test_session_tracks_impure_fun_decls():
    s = Session(pure_views=True)
    s.exec("fun bump x = update(x, A, 1)")
    s.exec("val o = IDView([A := 1])")
    with pytest.raises(ImpureViewError):
        s.eval("(o as fn x => let u = bump x in x end)")


def test_default_session_does_not_enforce_purity():
    s = Session()
    s.exec("val o = IDView([A := 1])")
    s.eval("query(fn v => v.A, "
           "(o as fn x => let u = update(x, A, 7) in x end))")
    assert s.eval_py("query(fn x => x.A, o)") == 7


def test_latent_effect_in_set_applied_via_hom():
    """An effectful function smuggled through a set literal and applied
    element-wise by ``hom`` must be caught: the set's latent bit flows
    into the application."""
    assert impure(
        "fn x => hom({fn y => update(y, A, 1)}, fn g => g x, "
        "fn a => fn b => a, x)")
    # the same shape with a pure element function stays pure
    assert not impure(
        "fn x => hom({fn y => y.A}, fn g => g x, fn a => fn b => a, 0)")


def test_latent_effect_in_record_field():
    """Storing an effectful function in a record field and applying the
    projection is impure; merely storing it is only latent."""
    assert impure(
        "fn x => let r = [F = fn y => update(y, A, 1)] in (r.F) x end")
    # without the application the *expression* still carries the latent
    # bit (its value can mutate when applied later)
    assert impure("[F = fn y => update(y, A, 1)]")
    assert not impure("fn x => let r = [F = fn y => y.A] in (r.F) x end")


def test_effect_hidden_under_fix():
    """A recursive function whose body updates is impure even though the
    update sits under the ``fix`` binder."""
    assert impure("fix f. fn x => if x.A < 1 then x "
                  "else f (update(x, A, x.A))")
    assert not impure("fix f. fn n => if n < 1 then 1 else f (n - 1)")


def test_session_rejects_hom_smuggled_effect():
    s = Session(pure_views=True)
    s.exec("val o = IDView([A := 1])")
    with pytest.raises(ImpureViewError):
        s.eval("(o as fn x => let u = hom({fn y => update(y, A, 2)}, "
               "fn g => g x, fn a => fn b => a, ()) in x end)")


def test_session_rejects_fix_hidden_effect():
    s = Session(pure_views=True)
    s.exec("val o = IDView([A := 1])")
    with pytest.raises(ImpureViewError):
        s.eval("(o as fix f. fn x => if x.A < 1 then x "
               "else let u = update(x, A, x.A - 1) in f x end)")


def test_paper_examples_all_pure():
    """Every Section 3.3 / 4.2 viewing function passes the check."""
    s = Session(pure_views=True)
    s.exec('''
        val joe = IDView([Name = "Joe", BirthYear = 1955,
                          Salary := 2000, Bonus := 5000])
        val joe_view = (joe as fn x => [Name = x.Name,
                                        Age = This_year() - x.BirthYear,
                                        Income = x.Salary,
                                        Bonus := extract(x, Bonus)])
    ''')
    s.exec('''
        val FM = class {}
          includes (class {joe_view} end)
            as fn v => [Name = v.Name]
            where fn o => query(fn x => x.Age > 10, o)
        end
    ''')
    assert s.eval_py(
        "c-query(fn S => map(fn o => query(fn v => v.Name, o), S), FM)") \
        == ["Joe"]
