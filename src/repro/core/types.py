"""Types, kinds and type schemes of the polymorphic calculus (Section 2).

The monotype grammar of the paper is::

    tau ::= b | unit | t | tau -> tau | {tau} | L(tau) | [F, ..., F]

extended in Sections 3 and 4 with ``obj(tau)`` and ``class(tau)``.  Record
fields ``F`` are either immutable (``l = tau``) or mutable (``l := tau``).

Kinds constrain type variables (Figure 1)::

    K ::= U | [[F, ..., F]]

``U`` is the kind of all types; a record kind ``[[F1, ..., Fn]]`` denotes the
record types that contain at least the listed fields, where a mutable
requirement ``l := tau`` is only met by a mutable field and an immutable
requirement ``l = tau`` is met by either (the paper's ``F < F'`` relation).

Type variables are implemented as mutable union-find style nodes carrying
their kind and a *level* used for efficient let-generalization (the standard
Remy-style discipline).  :class:`TypeScheme` closes over generalized
variables; instantiation copies the body and the kinds of the generalized
variables consistently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

__all__ = [
    "Type", "TBase", "TVar", "TFun", "TSet", "TLval", "TRecord", "TObj",
    "TClass", "FieldType", "Kind", "KUniv", "KRecord", "FieldReq",
    "TypeScheme", "UNIT", "INT", "STRING", "BOOL", "U",
    "resolve", "fun_type", "pair_type", "product_type", "free_type_vars",
    "types_structurally_equal", "contains_lval",
]


# ---------------------------------------------------------------------------
# Monotypes
# ---------------------------------------------------------------------------

class Type:
    """Base class of all monotypes."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from ..syntax.pretty import pretty_type
        return pretty_type(self)


class TBase(Type):
    """A base type: ``int``, ``string``, ``bool`` or ``unit``."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TBase) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("TBase", self.name))


UNIT = TBase("unit")
INT = TBase("int")
STRING = TBase("string")
BOOL = TBase("bool")


_var_counter = itertools.count(1)


class TVar(Type):
    """A unifiable type variable with a kind and a generalization level.

    ``link`` is ``None`` while the variable is free; unification may set it
    to another type, after which the variable behaves as that type (follow
    links with :func:`resolve`).
    """

    __slots__ = ("id", "level", "kind", "link")

    def __init__(self, level: int, kind: "Kind | None" = None):
        self.id = next(_var_counter)
        self.level = level
        self.kind: Kind = kind if kind is not None else U
        self.link: Type | None = None

    def __hash__(self) -> int:
        return hash(("TVar", self.id))

    def __eq__(self, other: object) -> bool:
        return self is other


class TFun(Type):
    """A function type ``dom -> cod``."""

    __slots__ = ("dom", "cod")

    def __init__(self, dom: Type, cod: Type):
        self.dom = dom
        self.cod = cod


class TSet(Type):
    """A set type ``{elem}``."""

    __slots__ = ("elem",)

    def __init__(self, elem: Type):
        self.elem = elem


class TLval(Type):
    """``L(tau)`` — the type of the L-value of a mutable field.

    L-values are second class: they are produced by ``extract`` and may only
    be consumed in record-field-initializer position (see DESIGN.md).
    """

    __slots__ = ("elem",)

    def __init__(self, elem: Type):
        self.elem = elem


@dataclass(frozen=True)
class FieldType:
    """One record field: its type and whether the field is mutable."""

    type: Type
    mutable: bool


class TRecord(Type):
    """A record type ``[l1 @ tau1, ..., ln @ taun]`` (``@`` is ``=`` or ``:=``)."""

    __slots__ = ("fields",)

    def __init__(self, fields: Mapping[str, FieldType]):
        self.fields: dict[str, FieldType] = dict(fields)

    def labels(self) -> Iterable[str]:
        return self.fields.keys()


class TObj(Type):
    """``obj(tau)`` — objects whose view has type ``tau`` (Section 3.2)."""

    __slots__ = ("elem",)

    def __init__(self, elem: Type):
        self.elem = elem


class TClass(Type):
    """``class(tau)`` — classes of objects of type ``obj(tau)`` (Section 4.1)."""

    __slots__ = ("elem",)

    def __init__(self, elem: Type):
        self.elem = elem


# ---------------------------------------------------------------------------
# Kinds
# ---------------------------------------------------------------------------

class Kind:
    """Base class of kinds."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from ..syntax.pretty import pretty_kind
        return pretty_kind(self)


class KUniv(Kind):
    """``U`` — the kind of all types."""

    __slots__ = ()


U = KUniv()


@dataclass(frozen=True)
class FieldReq:
    """A field requirement inside a record kind.

    ``mutable`` requests a mutable field (``l := tau``); an immutable
    requirement (``l = tau``) is satisfied by either field form, per the
    paper's ``F < F'`` condition in Figure 1.
    """

    type: Type
    mutable: bool


class KRecord(Kind):
    """A record kind ``[[F1, ..., Fn]]``."""

    __slots__ = ("fields",)

    def __init__(self, fields: Mapping[str, FieldReq]):
        self.fields: dict[str, FieldReq] = dict(fields)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def resolve(t: Type) -> Type:
    """Follow unification links, with path compression."""
    while isinstance(t, TVar) and t.link is not None:
        nxt = t.link
        if isinstance(nxt, TVar) and nxt.link is not None:
            t.link = nxt.link  # path compression
        t = nxt
    return t


def fun_type(*types: Type) -> Type:
    """Build a right-associated function type ``t1 -> t2 -> ... -> tn``."""
    if not types:
        raise ValueError("fun_type needs at least one type")
    result = types[-1]
    for dom in reversed(types[:-1]):
        result = TFun(dom, result)
    return result


def pair_type(t1: Type, t2: Type) -> TRecord:
    """``tau1 x tau2`` is the record ``[1 = tau1, 2 = tau2]`` (Section 2)."""
    return product_type([t1, t2])


def product_type(types: Iterable[Type]) -> TRecord:
    """The n-ary product ``[1 = tau1, ..., n = taun]`` with immutable fields."""
    return TRecord({str(i): FieldType(t, mutable=False)
                    for i, t in enumerate(types, start=1)})


def _subtypes(t: Type) -> Iterator[Type]:
    t = resolve(t)
    if isinstance(t, TFun):
        yield t.dom
        yield t.cod
    elif isinstance(t, (TSet, TLval, TObj, TClass)):
        yield t.elem
    elif isinstance(t, TRecord):
        for field in t.fields.values():
            yield field.type


def free_type_vars(t: Type, *, include_kinds: bool = True) -> list[TVar]:
    """All unresolved type variables reachable from ``t``.

    When ``include_kinds`` is true the walk also descends into the kinds of
    the variables it finds, and emits those kind-dependencies *before* the
    variable itself — so a quantifier prefix built from this order never
    references a variable before introducing it (the ``forall t1::K1 ...``
    well-formedness convention of the paper's polytypes)."""
    seen: set[int] = set()
    out: list[TVar] = []

    def walk(ty: Type) -> None:
        ty = resolve(ty)
        if isinstance(ty, TVar):
            if ty.id in seen:
                return
            seen.add(ty.id)
            if include_kinds and isinstance(ty.kind, KRecord):
                for req in ty.kind.fields.values():
                    walk(req.type)
            out.append(ty)
        else:
            for sub in _subtypes(ty):
                walk(sub)

    walk(t)
    return out


def contains_lval(t: Type) -> bool:
    """Whether an ``L(tau)`` type occurs anywhere inside ``t``."""
    t = resolve(t)
    if isinstance(t, TLval):
        return True
    return any(contains_lval(s) for s in _subtypes(t))


def types_structurally_equal(t1: Type, t2: Type) -> bool:
    """Structural equality modulo resolution, with variable identity.

    Used by tests; unification is the operational notion of equality.
    """
    t1, t2 = resolve(t1), resolve(t2)
    if isinstance(t1, TVar) or isinstance(t2, TVar):
        return t1 is t2
    if isinstance(t1, TBase) and isinstance(t2, TBase):
        return t1.name == t2.name
    if isinstance(t1, TFun) and isinstance(t2, TFun):
        return (types_structurally_equal(t1.dom, t2.dom)
                and types_structurally_equal(t1.cod, t2.cod))
    for ctor in (TSet, TLval, TObj, TClass):
        if isinstance(t1, ctor) and isinstance(t2, ctor):
            return types_structurally_equal(t1.elem, t2.elem)
        if isinstance(t1, ctor) or isinstance(t2, ctor):
            return False
    if isinstance(t1, TRecord) and isinstance(t2, TRecord):
        if set(t1.fields) != set(t2.fields):
            return False
        return all(
            t1.fields[l].mutable == t2.fields[l].mutable
            and types_structurally_equal(t1.fields[l].type, t2.fields[l].type)
            for l in t1.fields)
    return False


# ---------------------------------------------------------------------------
# Type schemes
# ---------------------------------------------------------------------------

class TypeScheme:
    """A polytype ``forall t1::K1 ... tn::Kn . tau`` (Section 2).

    ``vars`` are the generalized :class:`TVar` nodes.  They are never unified
    after generalization (they only remain reachable through the scheme);
    :meth:`instantiate` copies the body replacing them with fresh variables
    at the given level, rewriting their kinds under the same mapping so that
    inter-variable kind dependencies survive instantiation.
    """

    __slots__ = ("vars", "body")

    def __init__(self, vars: list[TVar], body: Type):
        self.vars = vars
        self.body = body

    @staticmethod
    def mono(t: Type) -> "TypeScheme":
        """A trivial scheme with no quantified variables."""
        return TypeScheme([], t)

    def is_mono(self) -> bool:
        return not self.vars

    def instantiate(self, level: int) -> Type:
        """Return a fresh copy of the body with quantified variables replaced
        by fresh level-``level`` variables (rule (inst) of Figure 1)."""
        if not self.vars:
            return self.body
        mapping: dict[int, TVar] = {
            v.id: TVar(level) for v in self.vars}
        # Kinds may reference other quantified variables; rewrite them after
        # all fresh variables exist.
        for v in self.vars:
            mapping[v.id].kind = _copy_kind(v.kind, mapping, level)
        return _copy_type(self.body, mapping, level)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from ..syntax.pretty import pretty_scheme
        return pretty_scheme(self)


def _copy_type(t: Type, mapping: dict[int, TVar], level: int) -> Type:
    t = resolve(t)
    if isinstance(t, TVar):
        return mapping.get(t.id, t)
    if isinstance(t, TBase):
        return t
    if isinstance(t, TFun):
        return TFun(_copy_type(t.dom, mapping, level),
                    _copy_type(t.cod, mapping, level))
    if isinstance(t, TSet):
        return TSet(_copy_type(t.elem, mapping, level))
    if isinstance(t, TLval):
        return TLval(_copy_type(t.elem, mapping, level))
    if isinstance(t, TObj):
        return TObj(_copy_type(t.elem, mapping, level))
    if isinstance(t, TClass):
        return TClass(_copy_type(t.elem, mapping, level))
    if isinstance(t, TRecord):
        return TRecord({
            l: FieldType(_copy_type(f.type, mapping, level), f.mutable)
            for l, f in t.fields.items()})
    raise AssertionError(f"unknown type node {t!r}")


def _copy_kind(k: Kind, mapping: dict[int, TVar], level: int) -> Kind:
    if isinstance(k, KUniv):
        return k
    assert isinstance(k, KRecord)
    return KRecord({
        l: FieldReq(_copy_type(req.type, mapping, level), req.mutable)
        for l, req in k.fields.items()})


def walk_map(t: Type, fn: Callable[[Type], "Type | None"]) -> Type:
    """Rebuild ``t`` bottom-up, letting ``fn`` replace any node.

    ``fn`` receives each resolved node; returning ``None`` keeps the default
    structural copy.  Used by the translation layers to rewrite ``obj``/
    ``class`` types into their internal representations.
    """
    t = resolve(t)
    replaced = fn(t)
    if replaced is not None:
        return replaced
    if isinstance(t, (TVar, TBase)):
        return t
    if isinstance(t, TFun):
        return TFun(walk_map(t.dom, fn), walk_map(t.cod, fn))
    if isinstance(t, TSet):
        return TSet(walk_map(t.elem, fn))
    if isinstance(t, TLval):
        return TLval(walk_map(t.elem, fn))
    if isinstance(t, TObj):
        return TObj(walk_map(t.elem, fn))
    if isinstance(t, TClass):
        return TClass(walk_map(t.elem, fn))
    if isinstance(t, TRecord):
        return TRecord({l: FieldType(walk_map(f.type, fn), f.mutable)
                        for l, f in t.fields.items()})
    raise AssertionError(f"unknown type node {t!r}")
