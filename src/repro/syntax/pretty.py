"""Pretty printers for types, kinds, schemes, terms and values.

The notation follows the paper: record types print as ``[l = tau, l' := tau']``,
set types as ``{tau}``, kinds as ``U`` or ``[[...]]``, and polytypes as
``forall t1::K1. ... tau``.  Terms print in the surface syntax accepted by
:mod:`repro.syntax.parser`, so pretty printing a translated program yields a
re-parseable artifact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core import terms as T
from ..core.types import (KRecord, Kind, KUniv, TBase, TClass, TFun, TLval,
                          TObj, TRecord, TSet, TVar, Type, TypeScheme,
                          resolve)

if TYPE_CHECKING:  # pragma: no cover
    from ..eval.values import Value

__all__ = ["pretty_type", "pretty_kind", "pretty_scheme", "pretty_term",
           "pretty_value", "TypePrinter"]


class TypePrinter:
    """Assigns stable display names (``t1``, ``t2``, ...) to type variables."""

    def __init__(self) -> None:
        self._names: dict[int, str] = {}

    def name_of(self, var: TVar) -> str:
        if var.id not in self._names:
            self._names[var.id] = f"t{len(self._names) + 1}"
        return self._names[var.id]

    def type(self, t: Type) -> str:
        t = resolve(t)
        if isinstance(t, TBase):
            return t.name
        if isinstance(t, TVar):
            return self.name_of(t)
        if isinstance(t, TFun):
            dom = self.type(t.dom)
            if isinstance(resolve(t.dom), TFun):
                dom = f"({dom})"
            return f"{dom} -> {self.type(t.cod)}"
        if isinstance(t, TSet):
            return "{" + self.type(t.elem) + "}"
        if isinstance(t, TLval):
            return f"L({self.type(t.elem)})"
        if isinstance(t, TObj):
            return f"obj({self.type(t.elem)})"
        if isinstance(t, TClass):
            return f"class({self.type(t.elem)})"
        if isinstance(t, TRecord):
            parts = [
                f"{label} {':=' if f.mutable else '='} {self.type(f.type)}"
                for label, f in t.fields.items()]
            return "[" + ", ".join(parts) + "]"
        raise AssertionError(f"unknown type {t!r}")

    def kind(self, k: Kind) -> str:
        if isinstance(k, KUniv):
            return "U"
        assert isinstance(k, KRecord)
        parts = [
            f"{label} {':=' if req.mutable else '='} {self.type(req.type)}"
            for label, req in k.fields.items()]
        return "[[" + ", ".join(parts) + "]]"

    def scheme(self, s: TypeScheme) -> str:
        # Name quantified variables first, in quantifier order.
        prefix = []
        for v in s.vars:
            prefix.append(f"forall {self.name_of(v)}::{self.kind(v.kind)}.")
        body = self.type(s.body)
        if not prefix:
            return body
        return " ".join(prefix) + " " + body


def pretty_type(t: Type) -> str:
    return TypePrinter().type(t)


def pretty_kind(k: Kind) -> str:
    return TypePrinter().kind(k)


def pretty_scheme(s: TypeScheme) -> str:
    """Print a polytype; free variables of a monotype display as a scheme
    quantifying nothing (their kinds are not shown)."""
    return TypePrinter().scheme(s)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_INFIX = {"+", "-", "*", "div", "mod", "<", ">", "<=", ">=", "^"}


def pretty_term(term: T.Term, indent: int = 0) -> str:
    return _Tp(indent).term(term)


class _Tp:
    def __init__(self, indent: int = 0):
        self.indent = indent

    def term(self, e: T.Term) -> str:
        if isinstance(e, T.Const):
            if e.type.name == "string":
                return '"' + str(e.value).replace('"', '\\"') + '"'
            if e.type.name == "bool":
                return "true" if e.value else "false"
            return str(e.value)
        if isinstance(e, T.Unit):
            return "()"
        if isinstance(e, T.Var):
            return e.name
        if isinstance(e, T.Lam):
            return f"fn {e.param} => {self.term(e.body)}"
        if isinstance(e, T.App):
            # Render infix builtins back to infix form.
            if (isinstance(e.fn, T.App) and isinstance(e.fn.fn, T.Var)
                    and e.fn.fn.name in _INFIX):
                lhs = self.atom(e.fn.arg)
                rhs = self.atom(e.arg)
                return f"{lhs} {e.fn.fn.name} {rhs}"
            return f"{self.atom(e.fn)} {self.atom(e.arg)}"
        if isinstance(e, T.RecordExpr):
            parts = []
            for f in e.fields:
                op = ":=" if f.mutable else "="
                parts.append(f"{f.label} {op} {self.term(f.expr)}")
            return "[" + ", ".join(parts) + "]"
        if isinstance(e, T.Dot):
            return f"{self.atom(e.expr)}.{e.label}"
        if isinstance(e, T.Extract):
            return f"extract({self.term(e.expr)}, {e.label})"
        if isinstance(e, T.Update):
            return (f"update({self.term(e.expr)}, {e.label}, "
                    f"{self.term(e.value)})")
        if isinstance(e, T.SetExpr):
            return "{" + ", ".join(self.term(x) for x in e.elems) + "}"
        if isinstance(e, T.If):
            return (f"if {self.term(e.cond)} then {self.term(e.then)} "
                    f"else {self.term(e.else_)}")
        if isinstance(e, T.Fix):
            return f"fix {e.name}. {self.term(e.body)}"
        if isinstance(e, T.Let):
            return (f"let {e.name} = {self.term(e.bound)} in "
                    f"{self.term(e.body)} end")
        if isinstance(e, T.Ascribe):
            return f"({self.term(e.expr)} : {pretty_type(e.type)})"
        if isinstance(e, T.Prod):
            return "prod(" + ", ".join(self.term(s) for s in e.sets) + ")"
        if isinstance(e, T.IDView):
            return f"IDView({self.term(e.expr)})"
        if isinstance(e, T.AsView):
            return f"({self.term(e.obj)} as {self.term(e.view)})"
        if isinstance(e, T.Query):
            return f"query({self.term(e.fn)}, {self.term(e.obj)})"
        if isinstance(e, T.Fuse):
            return "fuse(" + ", ".join(self.term(o) for o in e.objs) + ")"
        if isinstance(e, T.RelObj):
            parts = [f"{label} = {self.term(x)}" for label, x in e.fields]
            return "relobj(" + ", ".join(parts) + ")"
        if isinstance(e, T.ClassExpr):
            out = [f"class {self.term(e.own)}"]
            for clause in e.includes:
                srcs = ", ".join(self.term(s) for s in clause.sources)
                out.append(f" include {srcs} as {self.term(clause.view)}"
                           f" where {self.term(clause.pred)}")
            out.append(" end")
            return "".join(out)
        if isinstance(e, T.CQuery):
            return f"c-query({self.term(e.fn)}, {self.term(e.cls)})"
        if isinstance(e, T.Insert):
            return f"insert({self.term(e.obj)}, {self.term(e.cls)})"
        if isinstance(e, T.Delete):
            return f"delete({self.term(e.obj)}, {self.term(e.cls)})"
        if isinstance(e, T.LetClasses):
            binds = " and ".join(
                f"{name} = {self.term(cls)}" for name, cls in e.bindings)
            return f"let {binds} in {self.term(e.body)} end"
        raise AssertionError(f"unknown term {type(e).__name__}")

    def atom(self, e: T.Term) -> str:
        s = self.term(e)
        if isinstance(e, (T.Const, T.Unit, T.Var, T.RecordExpr, T.SetExpr,
                          T.Dot, T.IDView, T.Query, T.Fuse, T.RelObj,
                          T.Extract, T.Update, T.CQuery, T.Insert, T.Delete,
                          T.Prod, T.AsView)):
            return s
        return f"({s})"


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

def pretty_value(v: "Value", store=None) -> str:
    """Render a value.  Mutable fields are read through ``store``
    (:meth:`repro.eval.store.Store.read`, so a server transaction sees
    its own staged writes) when one is given, else from the heap."""
    from ..eval.store import Location
    from ..eval.values import (VBool, VBuiltin, VClass, VClosure,
                               VCompiledFn, VInt, VLval, VObject, VRecord,
                               VSet, VString, VUnit)
    if isinstance(v, VUnit):
        return "()"
    if isinstance(v, VInt):
        return str(v.value)
    if isinstance(v, VBool):
        return "true" if v.value else "false"
    if isinstance(v, VString):
        return '"' + v.value + '"'
    if isinstance(v, VRecord):
        parts = []
        for label in v.labels():
            op = ":=" if label in v.mutable_labels else "="
            cell = v.cells[label]
            if isinstance(cell, Location):
                cell = cell.value if store is None else store.read(cell)
            parts.append(f"{label} {op} {pretty_value(cell, store)}")
        return "[" + ", ".join(parts) + "]"
    if isinstance(v, VSet):
        return "{" + ", ".join(pretty_value(e, store) for e in v.elems) + "}"
    if isinstance(v, VClosure):
        return f"<fn {v.param}>"
    if isinstance(v, VCompiledFn):
        # A compiled lambda prints like the closure it was lowered from.
        return f"<fn {v.name}>"
    if isinstance(v, VBuiltin):
        return f"<builtin {v.name}>"
    if isinstance(v, VObject):
        return f"<object #{v.raw.oid}>"
    if isinstance(v, VClass):
        return f"<class #{v.oid} own={len(v.own)}>"
    if isinstance(v, VLval):
        return f"<lval {v.location.id}>"
    raise AssertionError(f"unknown value {type(v).__name__}")
