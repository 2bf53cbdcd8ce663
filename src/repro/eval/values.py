"""Runtime values of the operational semantics.

The value set mirrors the paper's three language layers:

* core values — constants, unit, closures, records-with-identity, sets;
* objects — :class:`VObject`, the association of a *raw* record and a
  *viewing function* (Section 3: "it is this data structure that properly
  represents the notion of objects");
* classes — :class:`VClass`, a pair of an own extent and resolved include
  clauses whose materialization is deferred (Section 4.3: "classes are sets
  of objects that are evaluated lazily").

Records store a :class:`~repro.eval.store.Location` for every mutable field
(and for immutable fields initialized from ``extract``, which share the
location read-only); other immutable fields store their value directly.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Union

from ..errors import EvalError
from .store import Location

if TYPE_CHECKING:  # pragma: no cover
    from ..core.terms import Term

__all__ = [
    "Value", "VUnit", "UNIT_VALUE", "VInt", "VBool", "VString", "VRecord",
    "VLval", "VClosure", "VBuiltin", "VCompiledFn", "VSet", "VObject",
    "VClass", "ResolvedInclude", "Env", "TRUE", "FALSE",
]

_oids = itertools.count(1)


class Value:
    """Base class of runtime values."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from ..syntax.pretty import pretty_value
        return pretty_value(self)


class VUnit(Value):
    """The unit value ``()``."""

    __slots__ = ()


UNIT_VALUE = VUnit()


class VInt(Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class VBool(Value):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value


TRUE = VBool(True)
FALSE = VBool(False)


class VString(Value):
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value


class VRecord(Value):
    """A record with identity.

    ``cells`` maps each label to either a :class:`Location` (mutable fields,
    and immutable fields that share an extracted L-value) or a plain value.
    ``mutable_labels`` records which fields admit ``update``.
    """

    __slots__ = ("oid", "cells", "mutable_labels")

    def __init__(self, cells: dict[str, Union[Location, Value]],
                 mutable_labels: frozenset[str]):
        self.oid = next(_oids)
        self.cells = cells
        self.mutable_labels = mutable_labels

    def read(self, label: str) -> Value:
        """Field extraction ``r.l`` — always the R-value."""
        try:
            cell = self.cells[label]
        except KeyError:
            raise EvalError(f"record has no field '{label}'") from None
        return cell.value if isinstance(cell, Location) else cell

    def location_of(self, label: str) -> Location:
        """The L-value of a mutable field (``extract``)."""
        cell = self.cells.get(label)
        if label not in self.mutable_labels or not isinstance(cell, Location):
            raise EvalError(
                f"field '{label}' is not mutable; cannot extract its L-value")
        return cell

    def write(self, label: str, value: Value, store=None) -> None:
        """``update(r, l, v)``; the type system guarantees mutability.

        When a :class:`~repro.eval.store.Store` is supplied the write goes
        through it, so an open transaction journals the old value; the
        machine always passes its store.
        """
        if label not in self.mutable_labels:
            raise EvalError(f"field '{label}' is immutable; cannot update")
        cell = self.cells[label]
        assert isinstance(cell, Location)
        if store is None:
            cell.value = value
        else:
            store.write(cell, value)

    def labels(self):
        return self.cells.keys()


class VLval(Value):
    """A first-class wrapper for an extracted L-value.

    Appears only transiently, between evaluating ``extract(e, l)`` in field
    position and storing the shared location into the new record.
    """

    __slots__ = ("location",)

    def __init__(self, location: Location):
        self.location = location


class VClosure(Value):
    """A lambda closure."""

    __slots__ = ("param", "body", "env")

    def __init__(self, param: str, body: "Term", env: "Env"):
        self.param = param
        self.body = body
        self.env = env


class VBuiltin(Value):
    """A curried builtin (or synthesized) function value.

    ``fn`` receives the machine followed by ``arity`` argument values.
    Partial applications accumulate in ``args``.
    """

    __slots__ = ("name", "arity", "fn", "args")

    def __init__(self, name: str, arity: int,
                 fn: Callable[..., Value], args: tuple[Value, ...] = ()):
        self.name = name
        self.arity = arity
        self.fn = fn
        self.args = args


class VCompiledFn(VBuiltin):
    """A compiled lambda (:mod:`repro.compile`).

    Behaves exactly like a unary :class:`VBuiltin` — ``Machine.apply``
    dispatches on the base class, so interpreted code can call compiled
    functions and vice versa — but prints like the closure it was compiled
    from (``name`` holds the original parameter name).

    ``source`` is ``(body, cap_specs, env)``: the original lambda body,
    the compile-time map from captured free names to capture-tuple slots,
    and the environment the compiler resolved globals against.  Together
    with ``captures`` (this instance's capture tuple) it lets the static
    analyses (:mod:`repro.analysis.regions`) see a compiled closure's free
    bindings exactly as they see an interpreted closure's environment —
    the OCC footprint walk and the extent-purity check stay sound.
    """

    __slots__ = ("source", "captures")

    def __init__(self, name: str, arity: int, fn: Callable[..., Value],
                 args: tuple[Value, ...] = (), source=None, captures=()):
        VBuiltin.__init__(self, name, arity, fn, args)
        self.source = source
        self.captures = captures

    def free_bindings(self):
        """``(name, value)`` for each free variable of the compiled body.

        Mirrors walking ``free_vars(closure.body)`` through an interpreted
        closure's environment.  A name whose binding is unavailable (an
        unfilled ``fix`` box) yields ``None``, like an unbound environment
        lookup.
        """
        if self.source is None:
            return ()
        from ..core.terms import free_vars
        body, caps, env = self.source
        out = []
        for name in free_vars(body) - {self.name}:
            ref = caps.get(name)
            if ref is None:
                try:
                    out.append((name, env.lookup(name)))
                except EvalError:
                    out.append((name, None))
            else:
                cell = self.captures[ref[1]]
                if ref[0] == "capbox":
                    boxed = cell[0]
                    out.append((name,
                                boxed if isinstance(boxed, Value) else None))
                else:
                    out.append((name, cell))
        return out


class VSet(Value):
    """A set value.

    Construction deduplicates by :func:`repro.eval.equality.value_key`,
    keeping the *earlier* element — the paper's choice for unions of sets of
    objects ("S1 ∪ S2 will choose e1 and discard e2", Section 3.1).  For
    objects the key is the raw object's identity (objeq), so a set never
    holds two views of the same raw object.
    """

    __slots__ = ("elems", "keys", "_key_cache")

    def __init__(self, elems: list[Value], require_same_view: bool = False):
        """Build a set, deduplicating by :func:`value_key`.

        ``require_same_view`` selects the paper's *other* Section 3.1
        semantics for sets of objects: instead of choosing the earlier
        element, two objeq elements must carry the same viewing function
        (same L-value), otherwise :class:`~repro.errors.EvalError` is
        raised.  The default is the paper's chosen left-biased collapse.
        """
        from .equality import value_key
        self.elems: list[Value] = []
        self.keys: set = set()
        # ``value_key(self)`` computed lazily; safe to cache because a
        # set's membership is fixed at construction (``keys`` is never
        # mutated afterwards — values are immutable up to L-value cells,
        # which keys deliberately ignore).
        self._key_cache = None
        first_by_key: dict = {}
        for e in elems:
            k = value_key(e)
            if k not in self.keys:
                self.keys.add(k)
                self.elems.append(e)
                if require_same_view:
                    first_by_key[k] = e
            elif require_same_view and isinstance(e, VObject):
                kept = first_by_key.get(k)
                if isinstance(kept, VObject) and kept.view is not e.view:
                    raise EvalError(
                        "set formation: two views of the same raw object "
                        "with different viewing functions (the "
                        "'same-view' object-set semantics of Section 3.1 "
                        "is in force)")

    def __len__(self) -> int:
        return len(self.elems)


class VObject(Value):
    """An object: a raw record paired with a viewing function (Section 3)."""

    __slots__ = ("oid", "raw", "view")

    def __init__(self, raw: VRecord, view: Value):
        self.oid = next(_oids)
        self.raw = raw
        self.view = view


class ResolvedInclude:
    """A resolved ``include`` clause of a class value."""

    __slots__ = ("sources", "view", "pred", "dead")

    def __init__(self, sources: list["VClass"], view: Value, pred: Value,
                 dead: bool = False):
        self.sources = sources
        self.view = view
        self.pred = pred
        #: True when the predicate is syntactically constant-false: the
        #: clause can never contribute, and extent computation may skip
        #: its (provably pure) sources — see ``Machine._extent``.
        self.dead = dead


class VClass(Value):
    """A class: its own extent plus lazy include clauses (Section 4).

    ``own`` is replaced wholesale by ``insert``/``delete``; the include
    clauses are fixed at class creation.  The full extent is computed on
    demand by :meth:`Machine.class_extent` with the ``f_i(L)`` cycle-cutting
    discipline of Section 4.4.  ``version`` is the store stamp of the last
    ``insert``/``delete`` (0 for an untouched extent); the server's
    optimistic concurrency control validates extent read versions at
    commit, exactly like location versions.
    """

    __slots__ = ("oid", "own", "includes", "version")

    def __init__(self, own: VSet, includes: list[ResolvedInclude]):
        self.oid = next(_oids)
        self.own = own
        self.includes = includes
        self.version = 0


class Env:
    """A chained runtime environment.

    Frames are small dicts; closures capture the env node, so extension
    never copies.  The frame dict is mutable only to support ``fix``
    back-patching.
    """

    __slots__ = ("frame", "parent")

    def __init__(self, frame: dict[str, Value],
                 parent: "Env | None" = None):
        self.frame = frame
        self.parent = parent

    def lookup(self, name: str) -> Value:
        env: Env | None = self
        while env is not None:
            v = env.frame.get(name)
            if v is not None:
                return v
            if name in env.frame:  # a back-patch slot still unset
                raise EvalError(
                    f"recursive value '{name}' used before it is defined")
            env = env.parent
        raise EvalError(f"unbound variable '{name}' at runtime")

    def child(self, frame: dict[str, Value]) -> "Env":
        return Env(frame, self)

    def bind(self, name: str, value: Value) -> "Env":
        return Env({name: value}, self)
