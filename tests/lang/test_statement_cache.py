"""The statement cache: a cached run ≡ a fresh parse-and-infer run.

The differential property draws a statement shape and two literal
fillings.  One session runs the first filling inside a transaction that
it rolls back (the entry stays cached; the state does not change), then
runs the second filling — a hit, or a hit with other literals.  A fresh
session runs the second filling once.  Values, store effects, error type
and message, and step counts under a ``Budget`` must agree.

The drawn literals cover ints, negative ints, int labels in each label
position, strings with each escape, a bad escape, an unterminated string,
a comment, ``true``/``false``, identifiers with digits (``e12``) and
``c-query``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Budget, Session
from repro.analysis.effects import ImpureViewError
from repro.errors import LexError, ReproError, TypeInferenceError
from repro.lang.statements import CAPACITY
from repro.syntax import parser
from repro.syntax.lexer import lift_literals, tokenize

from ..query.helpers import norm

_SETUP = '''
    val joe = IDView([Name = "Joe", Age = 21, Salary := 1000])
    val sue = IDView([Name = "Sue", Age = 35, Salary := 2000])
    val e12 = IDView([Name = "E12", Age = 12, Salary := 12])
    val Emp = class {joe, sue, e12} end
    val pair = [1 := 10, 2 = "two"]
    val tag = fn s => "<" ^ s ^ ">"
    fun sumto n = if n < 1 then 0 else n + sumto (n - 1)
'''

# Shapes with holes: {i} an int literal (maybe negative), {s} a string
# literal (maybe malformed), {b} a bool, {c} a comment or nothing.
_SHAPES = [
    "{i} + {i} * 2",
    "{c}{i} - 1",
    "if {b} then {i} else {i} + 1",
    "{s} ^ tag {s}",
    "size({{{s}, {s}, \"k\"}})",
    "query(fn v => v.Salary + {i}, joe)",
    "query(fn v => update(v, Salary, {i}), sue)",
    "query(fn v => v.Salary * {i}, e12)",
    "[A = {i}, B = {s}].B",
    "pair.1 + {i}",
    "[1 = {i}, 2 = {s}].2",
    "let r = [1 := {i}] in let u = update(r, 1, {i}) in r.1 end end",
    "let r = [1 := {i}] in [Sh = extract(r, 1), N = {i}].Sh end",
    "query(fn r => r.1.Name ^ {s}, relobj(1 = joe, 2 = sue))",
    "c-query(fn S => size(filter(fn o => query(fn v => v.Salary > {i}, o),"
    " S)), Emp)",
    "c-query(fn S => map(fn o => query(fn v => v.Name ^ {s}, o), S), Emp)",
    "sumto {i}",
    "sumto ({i} mod 40)",
    "100 div {i}",
    "{i}.NoField",
    "query(fn v => v.Age < {i} andalso {b}, joe)",
]

_STRING_BODIES = st.text(alphabet='ab \n\t"\\', max_size=5)


def _string_literal(body: str) -> str:
    escaped = (body.replace("\\", "\\\\").replace('"', '\\"')
               .replace("\n", "\\n").replace("\t", "\\t"))
    return f'"{escaped}"'


_ints = st.one_of(st.integers(0, 60).map(str),
                  st.integers(1, 10 ** 7).map(str),
                  st.integers(-60, -1).map(str))
_strings = st.one_of(_STRING_BODIES.map(_string_literal),
                     st.sampled_from(['"bad \\q escape"', '"unterminated',
                                      '"raw\nline"']))
_bools = st.sampled_from(["true", "false"])
_comments = st.sampled_from(["", "", "(* note 7 *) "])


@st.composite
def _filling(draw, shape: str):
    return shape.format(i=draw(_ints), s=draw(_strings), b=draw(_bools),
                        c=draw(_comments))


@st.composite
def _case(draw):
    shape = draw(st.sampled_from(_SHAPES))
    first = draw(_filling(shape))
    second = first if draw(st.booleans()) else draw(_filling(shape))
    return (first, second, draw(st.sampled_from(["eval", "exec"])),
            draw(st.sampled_from(["auto", "off"])))


_PROBES = ["query(fn v => v.Salary, joe)", "query(fn v => v.Salary, sue)",
           "c-query(fn S => size(S), Emp)", "pair.1"]


class _Rollback(Exception):
    pass


def _session(compile_mode: str) -> Session:
    s = Session(compile=compile_mode)
    s.exec(_SETUP)
    return s


def _outcome(s: Session, src: str, how: str):
    budget = Budget(max_steps=10 ** 6)
    try:
        with s.transaction(budget=budget):
            value = s.eval(src) if how == "eval" else s.exec(src)
        result = ("ok", norm(value))
    except ReproError as exc:
        result = ("error", type(exc).__name__, str(exc))
    return result, budget.steps, [s.eval_py(p) for p in _PROBES]


@settings(max_examples=150, deadline=None)
@example(case=("query(fn v => update(v, Salary, 5), sue)",
               "query(fn v => update(v, Salary, 77), sue)", "exec", "auto"))
@example(case=("pair.1 + 3", "pair.1 + 4", "eval", "off"))
@example(case=('"a\\qb" ^ tag "x"', '"a\\qb" ^ tag "x"', "eval", "auto"))
@given(case=_case())
def test_cached_run_equals_fresh_run(case):
    first, second, how, compile_mode = case
    cached = _session(compile_mode)
    try:
        with cached.transaction():
            _outcome(cached, first, how)
            raise _Rollback()
    except _Rollback:
        pass
    fresh = _session(compile_mode)
    assert _outcome(cached, second, how) == _outcome(fresh, second, how)


# -- the key ----------------------------------------------------------------

_FRAGMENTS = ["a", "e1", "x'", "_", "c", "c-query", "-", "1", "42", " ",
              "\n", "\t", '"', "\\", "n", "t", "(", "*", ")", ".", "[",
              "]", "=", ":=", "#", "$", "'", "\u00e9", "\u00b2", "\x0b"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=14).map("".join))
def test_lifted_literals_are_the_lexers_literal_tokens(src):
    key, literals = lift_literals(src)
    try:
        tokens = tokenize(src)
    except LexError:
        assert (key, literals) == (src, [])
        return
    if not src.isascii() or ((key, literals) == (src, []) and (
            "(*" in src or src.endswith("\\"))):
        # Non-ASCII text, a comment, or a string that ``tokenize`` closes
        # at a backslash that ends the input: keyed on the exact text.
        assert (key, literals) == (src, [])
        return
    expected = [(t.line, t.column,
                 int(t.value) if t.kind == "int" else t.value)
                for t in tokens if t.kind in ("int", "string")]
    assert literals == expected
    assert key.count("#") + key.count("$") == len(expected)


# -- deterministic cases ----------------------------------------------------

def _counting_parser(monkeypatch) -> list:
    calls = []
    for name in ("parse_program", "parse_expression"):
        real = getattr(parser, name)

        def counting(src, _real=real):
            calls.append(src)
            return _real(src)
        monkeypatch.setattr(parser, name, counting)
    return calls


def test_other_literals_hit_the_entry(monkeypatch):
    s = _session("auto")
    calls = _counting_parser(monkeypatch)
    assert s.eval_py("query(fn v => v.Salary + 1, joe)") == 1001
    compiled = s.compile_stats["programs_compiled"]
    assert s.eval_py("query(fn v => v.Salary + 41, joe)") == 1041
    s.exec('query(fn v => update(v, Salary, 7), joe)')
    s.exec('query(fn v => update(v, Salary, 9), joe)')
    assert s.eval_py("query(fn v => v.Salary + 0, joe)") == 9
    assert calls == ["query(fn v => v.Salary + 1, joe)",
                     "query(fn v => update(v, Salary, 7), joe)"]
    assert s.compile_stats["programs_compiled"] == compiled + 1


@pytest.mark.parametrize("mode", ["auto", "off"])
def test_text_that_equals_a_lifted_key_is_not_a_hit(mode):
    # ``#`` and ``$`` are the placeholders of a lifted key and characters
    # the lexer rejects: such text keys on itself, and must not run a
    # cached shape with its parameters unset.
    s = _session(mode)
    assert s.eval_py("1 + 2") == 3
    with pytest.raises(LexError):
        s.eval("# + #")
    assert s.eval_py('"a" ^ tag "b"') == "a<b>"
    with pytest.raises(LexError):
        s.eval("$ ^ tag $")
    s.exec("query(fn v => update(v, Salary, 5), joe)")
    with pytest.raises(LexError):
        s.exec("query(fn v => update(v, Salary, #), joe)")
    assert s.eval_py("query(fn v => v.Salary, joe)") == 5


def test_labels_and_negative_literals_key_on_the_exact_text(monkeypatch):
    s = _session("auto")
    calls = _counting_parser(monkeypatch)
    for src in ("pair.1 + 3", "pair.1 + 3", "pair.1 + 4", "-5", "-5", "-6"):
        s.eval(src)
    assert calls == ["pair.1 + 3", "pair.1 + 4", "-5", "-6"]


def test_rebinding_a_free_name_to_another_type_raises_todays_error():
    s = _session("auto")
    s.exec("val x = 5")
    assert s.eval_py("x + 1") == 6
    s.exec('val x = "five"')
    with pytest.raises(TypeInferenceError) as cached:
        s.eval("x + 1")
    fresh = Session()
    fresh.exec('val x = "five"')
    with pytest.raises(TypeInferenceError) as today:
        fresh.eval("x + 1")
    assert str(cached.value) == str(today.value)
    s.exec("val x = 40")
    assert s.eval_py("x + 2") == 42


def test_a_statement_that_uses_it_reparses_after_every_exec(monkeypatch):
    s = _session("auto")
    calls = _counting_parser(monkeypatch)
    assert s.exec("1 + 2").value == 3
    assert s.exec("it + 10").value == 13
    assert s.exec("it + 10").value == 23
    assert s.exec("1 + 2").value == 3       # no use of it: a hit
    assert s.exec("it + 10").value == 13
    assert calls == ["1 + 2", "it + 10", "it + 10", "it + 10"]


def test_pure_views_still_checks_every_cached_run():
    s = Session(pure_views=True)
    s.exec('val joe = IDView([Name = "Joe", Salary := 1])')
    s.exec("val v = fn x => x")
    src = "query(fn r => r.Salary + 1, joe as v)"
    assert s.eval_py(src) == 2
    assert s.eval_py(src) == 2
    # The cached entry's free names keep their schemes; only the purity
    # mark changes, and the cached run must still see it.
    s.purity.mark("v", True)
    for _ in range(2):
        with pytest.raises(ImpureViewError):
            s.eval(src)
    impure = "query(fn r => r.Salary, joe as fn x => " \
             "let u = update(x, Salary, 5) in x end)"
    for _ in range(2):
        with pytest.raises(ImpureViewError):
            s.eval(impure)


def test_the_cache_is_bounded_and_evicts_least_recently_used(monkeypatch):
    s = _session("auto")
    for k in range(CAPACITY + 40):
        s.eval(f"-{k + 1}")  # negative literals: one entry per text
    assert len(s._statements) == CAPACITY
    calls = _counting_parser(monkeypatch)
    s.eval(f"-{CAPACITY + 40}")  # the most recent one is still cached
    s.eval("-1")                 # the oldest one was evicted
    assert calls == ["-1"]


def test_a_statement_over_an_open_type_variable_is_not_cached(monkeypatch):
    s = _session("auto")
    s.exec("val r = [A := {}]")  # r : [A := {'a}], 'a not generalized
    calls = _counting_parser(monkeypatch)
    for _ in range(2):
        assert s.eval_py("size(r.A)") == 0
    assert len(calls) == 2
    # Binding 'a closes r's scheme; from then on the statement caches.
    assert s.eval_py("size(union(r.A, {1}))") == 1
    for _ in range(2):
        assert s.eval_py("size(r.A)") == 0
    assert len(calls) == 4
