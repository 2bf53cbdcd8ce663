"""The session's statement cache: parse and infer each statement shape once.

A constant's type is its base type whatever its value, and a statement's
type depends only on the schemes of its free names, so statements that
differ only in their int and string literals share one parse tree, one
type and one compiled program — Ohori's compile-once reading of the record
calculus, where kinds are computed at compile time and every run uses them.

:class:`StatementCache` keys each statement on its source with those
literals lifted into parameter slots
(:func:`repro.syntax.lexer.lift_literals`).  An entry (:class:`Statement`)
holds the *template* — the parsed term with each lifted literal's ``Const``
turned into a read of a parameter ``#0``, ``#1``, … — with its scheme, the
record annotations inference left for the compiler, and the compiled
program the compile engine keeps with it.  A hit runs the template on the
new literal values: no parse, no inference, no compile.

* **Validity.**  An entry pins the scheme object of every global name it
  reads as it was made; a hit needs each to be the same object, so
  rebinding a name (``val``, ``new_object``, the ``it`` that ``exec``
  rebinds) re-parses exactly the statements that use it.  A statement is
  cached only if, after its inference, its own scheme and every pinned
  name's are closed (no free type variables): inference may bind an open
  scheme's variables, an effect a hit would skip.
* **Exact keys.**  A literal that is not exactly one ``Const`` — an int
  label (``x.1``, ``[1 = e]``), a negative literal (``-5`` parses to one
  ``Const(-5)``) — keys its entry on the exact text, as does text the scan
  cannot classify (a comment, non-ASCII text).
* **Bounds.**  At most :data:`CAPACITY` entries, least recently used out
  first; compiled programs and structural fallbacks live in their entry
  and go with it.  The cache is per session and is touched only where the
  session is, so it needs no lock of its own.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from ..core import terms as T
from ..core.infer import TypeEnv
from ..core.types import TypeScheme, free_type_vars
from ..eval.values import VInt, VString, Value

__all__ = ["CAPACITY", "Statement", "StatementCache", "arguments",
           "is_param"]

#: Entries per session.  The end-to-end workloads use at most 129 shapes
#: (64 objects × a read and a write shape, plus a scan).
CAPACITY = 256

#: Parameter names start with a character no identifier can, so a
#: template's parameter reads never collide with a program's own names.
_PARAM = "#"


def is_param(name: str) -> bool:
    """True for the name of a statement parameter (``#0``, ``#1``, …)."""
    return name[:1] == _PARAM


class Statement:
    """One statement shape: its template and what it takes to run it.

    ``params`` names the template's parameters in literal order;
    ``pins`` lists ``(name, scheme)`` for each global name it reads;
    ``expression`` is True when the source parsed as an expression (it
    then serves ``eval`` as well as ``exec``).  ``program`` belongs to the
    compile engine: the compiled program, a structural fallback, or None.
    """

    __slots__ = ("term", "annotations", "scheme", "params", "pins",
                 "expression", "program")

    def __init__(self, term: T.Term, annotations: "dict | None" = None,
                 scheme: "TypeScheme | None" = None,
                 params: tuple[str, ...] = (),
                 pins: tuple[tuple[str, TypeScheme], ...] = (),
                 expression: bool = True):
        self.term = term
        self.annotations = annotations
        self.scheme = scheme
        self.params = params
        self.pins = pins
        self.expression = expression
        self.program = None


class StatementCache:
    """A bounded LRU of :class:`Statement` entries for one session.

    ``on_stale`` is called with each entry dropped because a name it uses
    was rebound.
    """

    __slots__ = ("_entries", "_on_stale")

    def __init__(self, on_stale: Callable[[Statement], None]):
        self._entries: "OrderedDict[str, Statement]" = OrderedDict()
        self._on_stale = on_stale

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str, src: str, type_env: TypeEnv,
               expression: bool) -> "Statement | None":
        """The valid entry for ``src`` (lifted to ``key``), or None."""
        entries = self._entries
        stmt = None if key == src else entries.get(key)
        if stmt is None:
            # The exact text: a shape with no literals, one whose entry
            # keys on its text, or text the scan could not classify.  The
            # last can hold a placeholder where a literal was (``# + #``)
            # and so equal a lifted key, so a hit here takes no parameters.
            key = src
            stmt = entries.get(key)
            if stmt is None or stmt.params:
                return None
        if expression and not stmt.expression:
            return None
        lookup = type_env.lookup
        for name, scheme in stmt.pins:
            if lookup(name) is not scheme:
                del entries[key]
                self._on_stale(stmt)
                return None
        entries.move_to_end(key)
        return stmt

    def admit(self, term: T.Term, scheme: TypeScheme, annotations: dict,
              type_env: TypeEnv, key: "str | None", src: str,
              literals: list, expression: bool) -> Statement:
        """The entry for a freshly parsed and inferred ``term``.

        Turns the lifted literals into parameter reads and caches the
        entry under ``key`` (or under ``src``, when a literal is not
        exactly one ``Const``).  A statement that may not be cached —
        ``key`` None, or a free type variable in its scheme or a pinned
        name's — comes back as an uncached entry over ``term``.
        """
        if key is None or _has_free_tvars(scheme):
            return Statement(term, annotations, scheme)
        template, params, pins = _template(term, literals, type_env)
        if pins is None:
            return Statement(term, annotations, scheme)
        if params is None:
            key = src
            params = ()
        stmt = Statement(template, annotations, scheme, params, pins,
                         expression)
        entries = self._entries
        entries[key] = stmt
        entries.move_to_end(key)
        if len(entries) > CAPACITY:
            entries.popitem(last=False)
        return stmt


def arguments(literals: list) -> tuple[Value, ...]:
    """The parameter values of a statement's lifted literals."""
    return tuple(VInt(v) if type(v) is int else VString(v)
                 for _line, _column, v in literals)


def _has_free_tvars(scheme: TypeScheme) -> bool:
    bound = {v.id for v in scheme.vars}
    return any(v.id not in bound for v in free_type_vars(scheme.body))


def _template(term: T.Term, literals: list, type_env: TypeEnv
              ) -> "tuple[T.Term, tuple[str, ...] | None, tuple | None]":
    """One walk over ``term`` for its pins and its parameters.

    Returns ``(template, params, pins)``.  ``pins`` lists ``(name,
    scheme)`` for each name ``term`` reads that ``type_env`` binds — its
    free names, plus any local name that shadows a global, which can only
    make a hit rarer — or is None when one of those schemes is open; then
    ``term`` comes back unchanged.  Each lifted ``(line, column, value)``
    must match exactly one ``Const`` by position and value, and becomes a
    parameter read, in place; otherwise ``params`` is None and ``term`` is
    unchanged.
    """
    wanted = {(line, column) for line, column, _value in literals}
    names: set[str] = set()
    at: dict[tuple[int, int], list[T.Const]] = {}
    parents: dict[int, list] = {}
    holder = [term]  # the root's parent, so a bare literal swaps too
    stack: list = [holder]
    while stack:
        node = stack.pop()
        for sub in (node if node is holder else T.iter_subterms(node)):
            kind = type(sub)
            if kind is T.Var:
                names.add(sub.name)
            elif kind is T.Const:
                pos = sub.pos
                if pos is not None and (pos.line, pos.column) in wanted:
                    at.setdefault((pos.line, pos.column), []).append(sub)
                    parents.setdefault(id(sub), []).append(node)
            else:
                stack.append(sub)
    pins = []
    lookup = type_env.lookup
    for name in names:
        scheme = lookup(name)
        if scheme is not None:
            if _has_free_tvars(scheme):
                return term, (), None
            pins.append((name, scheme))
    pins = tuple(pins)
    swap: dict[int, T.Term] = {}
    params = []
    for i, (line, column, value) in enumerate(literals):
        found = at.get((line, column), ())
        if len(found) != 1:
            return term, None, pins
        const = found[0]
        if type(const.value) is not type(value) or const.value != value:
            return term, None, pins
        name = f"{_PARAM}{i}"
        swap[id(const)] = T.Var(name, pos=const.pos)
        params.append(name)
    touched = {id(p): p for key in swap for p in parents[key]}
    for parent in touched.values():
        _swap(parent, swap)
    return holder[0], tuple(params), pins


def _swap(node, swap: dict[int, T.Term]) -> None:
    """Replace, in place, each child of ``node`` that ``swap`` names."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            if id(item) in swap:
                node[i] = swap[id(item)]
            elif isinstance(item, tuple):  # relobj (label, term) fields
                node[i] = tuple(swap.get(id(x), x) for x in item)
            elif isinstance(item, (T.RecordField, T.IncludeClause)):
                _swap(item, swap)
        return
    for name, value in vars(node).items():
        if id(value) in swap:
            setattr(node, name, swap[id(value)])
        elif isinstance(value, list):
            _swap(value, swap)
