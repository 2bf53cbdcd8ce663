"""The translation semantics of objects and views (Figure 3, Prop 3).

Objects are compiled into the core calculus as pairs

    obj(tau)  ~~>  tau' x (tau' -> tau)

of a raw object and a viewing function (``tau'`` is the hidden raw type).
The rules follow Figure 3, with two hygiene repairs documented in DESIGN.md:

* where Figure 3 writes ``tr(e)`` several times on the right-hand side, the
  translation here let-binds the result once — the figure's meta-notation
  would re-evaluate ``e`` (re-allocating raw identity) under a substitution
  reading;
* the spurious leading ``λx.`` in Figure 3's ``fuse`` rule (the body already
  denotes the result set) is dropped.

``query`` is not listed in Figure 3; its translation is the evident
``let v = tr(e2) in tr(e1) (v.2 v.1)`` (materialize, then apply).

The module also provides :func:`internal_representation`, the type-level
counterpart used to state Proposition 3 ("tau' is an internal representation
of tau"), and a matcher used by the property tests.
"""

from __future__ import annotations

from ..core import terms as T
from ..core.types import (TClass, TFun, TObj, TRecord, TVar, Type,
                          resolve)
from ..errors import TranslationError
from .algebra import gensym, mk_pair

__all__ = ["translate_objects", "internal_representation_matches"]


def _pairN(fields: list[tuple[str, T.Term]]) -> T.Term:
    return T.RecordExpr(
        [T.RecordField(label, e, mutable=False) for label, e in fields])


def _raw(e: T.Term) -> T.Term:
    return T.Dot(e, "1")


def _view(e: T.Term) -> T.Term:
    return T.Dot(e, "2")


def translate_objects(term: T.Term) -> T.Term:
    """Eliminate every object/view constructor; pure, input untouched."""
    return _tr(term)


def _tr(term: T.Term) -> T.Term:
    if isinstance(term, (T.Const, T.Unit, T.Var)):
        return term
    if isinstance(term, T.Lam):
        return T.Lam(term.param, _tr(term.body))
    if isinstance(term, T.App):
        return T.App(_tr(term.fn), _tr(term.arg))
    if isinstance(term, T.RecordExpr):
        return T.RecordExpr([
            T.RecordField(f.label, _tr(f.expr), f.mutable)
            for f in term.fields])
    if isinstance(term, T.Dot):
        return T.Dot(_tr(term.expr), term.label)
    if isinstance(term, T.Extract):
        return T.Extract(_tr(term.expr), term.label)
    if isinstance(term, T.Update):
        return T.Update(_tr(term.expr), term.label, _tr(term.value))
    if isinstance(term, T.SetExpr):
        return T.SetExpr([_tr(e) for e in term.elems])
    if isinstance(term, T.If):
        return T.If(_tr(term.cond), _tr(term.then), _tr(term.else_))
    if isinstance(term, T.Fix):
        return T.Fix(term.name, _tr(term.body))
    if isinstance(term, T.Let):
        return T.Let(term.name, _tr(term.bound), _tr(term.body))
    if isinstance(term, T.Ascribe):
        # ascriptions are checked before translating; the ascribed type
        # may mention obj/class, which the target language lacks — erase.
        return _tr(term.expr)
    if isinstance(term, T.Prod):
        return T.Prod([_tr(s) for s in term.sets])

    # -- Figure 3 ----------------------------------------------------------
    if isinstance(term, T.IDView):
        # tr(IDView(e)) = (e, fn x => x)
        x = gensym("v")
        return mk_pair(_tr(term.expr), T.Lam(x, T.Var(x)))
    if isinstance(term, T.AsView):
        # tr(e1 as e2) = let v = tr(e1) in (v.1, fn x => tr(e2) (v.2 x))
        v, x = gensym("o"), gensym("x")
        view = T.Lam(x, T.App(_tr(term.view),
                              T.App(_view(T.Var(v)), T.Var(x))))
        return T.Let(v, _tr(term.obj), mk_pair(_raw(T.Var(v)), view))
    if isinstance(term, T.Query):
        # materialize the view, then apply the query function
        v = gensym("o")
        return T.Let(v, _tr(term.obj),
                     T.App(_tr(term.fn),
                           T.App(_view(T.Var(v)), _raw(T.Var(v)))))
    if isinstance(term, T.Fuse):
        return _tr_fuse(term)
    if isinstance(term, T.RelObj):
        return _tr_relobj(term)

    if isinstance(term, (T.ClassExpr, T.CQuery, T.Insert, T.Delete,
                         T.LetClasses)):
        raise TranslationError(
            "class constructs must be translated first "
            "(repro.classes.translate.translate_classes)")
    raise AssertionError(
        f"unknown term node {type(term).__name__}")  # pragma: no cover


def _tr_fuse(term: T.Fuse) -> T.Term:
    """tr(fuse(e1,...,en)) — Figure 3 rule, generalized to n-ary.

    ``let v1 = tr(e1) in ... in if eq(v1.1, v2.1) andalso ... then
    {(v1.1, fn x => [1 = (v1.2 x), ..., n = (vn.2 x)])} else {}``
    """
    names = [gensym("f") for _ in term.objs]
    x = gensym("x")
    product_view = T.Lam(x, _pairN([
        (str(i), T.App(_view(T.Var(v)), T.Var(x)))
        for i, v in enumerate(names, start=1)]))
    fused = T.SetExpr([mk_pair(_raw(T.Var(names[0])), product_view)])
    cond: T.Term | None = None
    for v in names[1:]:
        test = T.App(T.App(T.Var("eq"), _raw(T.Var(names[0]))),
                     _raw(T.Var(v)))
        cond = test if cond is None else T.If(cond, test,
                                              T.Const(False, _bool()))
    assert cond is not None
    body: T.Term = T.If(cond, fused, T.SetExpr([]))
    for v, e in reversed(list(zip(names, term.objs))):
        body = T.Let(v, _tr(e), body)
    return body


def _tr_relobj(term: T.RelObj) -> T.Term:
    """tr(relobj(l1=e1,...,ln=en)) — Figure 3 rule.

    ``([l1 = v1.1, ...], fn x => [l1 = (v1.2 (x.l1)), ...])`` with each
    ``vi`` let-bound to ``tr(ei)``.
    """
    names = [(label, gensym("r")) for label, _ in term.fields]
    x = gensym("x")
    raw = T.RecordExpr([
        T.RecordField(label, _raw(T.Var(v)), mutable=False)
        for label, v in names])
    view = T.Lam(x, T.RecordExpr([
        T.RecordField(label,
                      T.App(_view(T.Var(v)), T.Dot(T.Var(x), label)),
                      mutable=False)
        for label, v in names]))
    body: T.Term = mk_pair(raw, view)
    for (label, v), (_, e) in reversed(list(zip(names, term.fields))):
        body = T.Let(v, _tr(e), body)
    return body


def _bool():
    from ..core.types import BOOL
    return BOOL


# ---------------------------------------------------------------------------
# The internal-representation relation on types (Proposition 3)
# ---------------------------------------------------------------------------

def internal_representation_matches(core_t: Type, ext_t: Type) -> bool:
    """Does ``core_t`` internally represent ``ext_t``?

    ``tau'`` represents ``tau`` when it is obtained by replacing every
    ``obj(sigma)`` component with some ``tau1 x (tau1 -> sigma')`` (both
    occurrences of the raw type equal) and every ``class(sigma)`` with
    ``[OwnExt := {rep}, Ext = unit -> {rep}]``; the ``Ext`` domain is also
    accepted as a type variable, since an unapplied delaying lambda leaves
    it unconstrained.  Type variables must correspond one-to-one.
    """
    mapping: dict[int, int] = {}
    return _match(core_t, ext_t, mapping)


def _match(core_t: Type, ext_t: Type, mapping: dict[int, int]) -> bool:
    core_t, ext_t = resolve(core_t), resolve(ext_t)
    if isinstance(ext_t, TObj):
        # Either a concrete pair record, or a record-kinded variable whose
        # kind demands the pair shape (the translation of a lambda-bound
        # object leaves the pair type open).
        from ..core.types import KRecord
        if isinstance(core_t, TVar) and isinstance(core_t.kind, KRecord):
            fields = core_t.kind.fields
            if set(fields) != {"1", "2"}:
                return False
            fn = resolve(fields["2"].type)
            if not isinstance(fn, TFun):
                return False
            return (_raw_types_agree(fields["1"].type, fn.dom)
                    and _match(fn.cod, ext_t.elem, mapping))
        if not isinstance(core_t, TRecord):
            return False
        if set(core_t.fields) != {"1", "2"}:
            return False
        raw = core_t.fields["1"]
        fn = resolve(core_t.fields["2"].type)
        if raw.mutable or core_t.fields["2"].mutable:
            return False
        if not isinstance(fn, TFun):
            return False
        return (_raw_types_agree(raw.type, fn.dom)
                and _match(fn.cod, ext_t.elem, mapping))
    if isinstance(ext_t, TClass):
        if not isinstance(core_t, TRecord):
            return False
        if set(core_t.fields) != {"OwnExt", "Ext"}:
            return False
        own = core_t.fields["OwnExt"]
        ext_field = resolve(core_t.fields["Ext"].type)
        if not own.mutable or ext_field is None:
            return False
        if not isinstance(ext_field, TFun):
            return False
        dom = resolve(ext_field.dom)
        from ..core.types import TBase, TSet
        if not (isinstance(dom, TVar)
                or (isinstance(dom, TBase) and dom.name == "unit")):
            return False
        own_t = resolve(own.type)
        cod_t = resolve(ext_field.cod)
        if not (isinstance(own_t, TSet) and isinstance(cod_t, TSet)):
            return False
        return (_match(own_t.elem, TObj(ext_t.elem), mapping)
                and _match(cod_t.elem, TObj(ext_t.elem), mapping))

    from ..core.types import TBase, TFun as TF, TLval, TRecord as TR, TSet, \
        TVar as TVr
    if isinstance(ext_t, TVr):
        if not isinstance(core_t, TVr):
            return False
        if ext_t.id in mapping:
            return mapping[ext_t.id] == core_t.id
        if core_t.id in mapping.values():
            return False
        mapping[ext_t.id] = core_t.id
        return True
    if isinstance(ext_t, TBase):
        return isinstance(core_t, TBase) and core_t.name == ext_t.name
    if isinstance(ext_t, TF):
        return (isinstance(core_t, TF)
                and _match(core_t.dom, ext_t.dom, mapping)
                and _match(core_t.cod, ext_t.cod, mapping))
    if isinstance(ext_t, (TSet, TLval)):
        return (type(core_t) is type(ext_t)
                and _match(core_t.elem, ext_t.elem, mapping))
    if isinstance(ext_t, TR):
        if not isinstance(core_t, TR):
            return False
        if set(core_t.fields) != set(ext_t.fields):
            return False
        return all(
            core_t.fields[l].mutable == ext_t.fields[l].mutable
            and _match(core_t.fields[l].type, ext_t.fields[l].type, mapping)
            for l in ext_t.fields)
    return False


def _equal(t1: Type, t2: Type) -> bool:
    from ..core.types import types_structurally_equal
    return types_structurally_equal(t1, t2)


def _raw_types_agree(raw: Type, dom: Type) -> bool:
    """Both occurrences of the hidden raw type must agree.

    The relation holds *up to instantiation*: inference gives the principal
    type of the translated term (e.g. the identity view of ``tr(IDView(e))``
    types at ``t -> t`` with ``t`` free), and some instance has the required
    ``tau1 x (tau1 -> ...)`` shape.  Structural equality is tried first;
    otherwise we attempt to unify the two occurrences (this specializes the
    inferred type, which is harmless for the checking use of this matcher).
    """
    if _equal(raw, dom):
        return True
    from ..core.unify import unify
    from ..errors import TypeInferenceError
    try:
        unify(raw, dom)
    except TypeInferenceError:
        return False
    return True
