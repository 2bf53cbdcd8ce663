"""The operational semantics of the full language.

The machine evaluates the core calculus (Section 2), the object/view algebra
(Section 3) and classes (Section 4) natively.  The translation semantics of
Figures 3 and 5 is implemented separately (``repro.objects.translate`` /
``repro.classes.translate``) and validated against this machine; the native
object value is the paper's "hidden" internal representation, which is what
lets the type-directed objeq semantics for sets of objects be realized (see
DESIGN.md §2).

Key behaviours tied to the paper:

* records allocate identity; mutable fields allocate store locations and
  ``extract`` initializers share them (Section 2's joe/Doe/john example);
* ``query`` materializes the view by applying the viewing function to the
  raw object, then applies the query function — *lazily*, at query time, so
  updates through one view are visible through every other view of the same
  raw object (Section 3.3);
* class extents are computed on demand with the ``f_i(L)`` cycle-cutting
  discipline of Section 4.4, guaranteeing termination (Proposition 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import terms as T
from ..errors import EvalError
from .builtins import builtin_values, make_builtin
from .store import Location, Store
from .values import (FALSE, TRUE, UNIT_VALUE, Env, ResolvedInclude, VBool,
                     VBuiltin, VClass, VClosure, VInt, VObject, VRecord,
                     VSet, VString, Value)

__all__ = ["Machine", "Metrics", "identity_view"]


@dataclass
class Metrics:
    """Observable effort counters, used by the benchmark harness."""

    records_created: int = 0
    objects_created: int = 0
    view_materializations: int = 0
    extent_computations: int = 0
    extent_calls: int = 0  # individual f_i(L)-style invocations
    applications: int = 0

    def reset(self) -> None:
        for f in ("records_created", "objects_created",
                  "view_materializations", "extent_computations",
                  "extent_calls", "applications"):
            setattr(self, f, 0)


def identity_view() -> VBuiltin:
    """The identity viewing function installed by ``IDView``."""
    return make_builtin("<identity-view>", 1, lambda m, x: x)


class Machine:
    """A tree-walking evaluator with a store and metrics.

    Parameters
    ----------
    this_year:
        Value returned by the ``This_year`` builtin.  Defaults to 1994 so
        the paper's example output (``Age = 39`` for ``BirthYear = 1955``)
        reproduces exactly.
    """

    def __init__(self, this_year: int = 1994,
                 object_union: str = "choose"):
        if object_union not in ("choose", "same-view"):
            raise ValueError(
                "object_union must be 'choose' or 'same-view'")
        self.this_year = this_year
        # Section 3.1 offers two semantics for sets of objects: the paper
        # picks the left-biased "choose" collapse; "same-view" is the
        # alternative that requires objeq elements to share one viewing
        # function.
        self.object_union = object_union
        self.store = Store()
        self.metrics = Metrics()
        # Optional repro.lang.explain.Tracer; None means no tracing.
        self.tracer = None
        # Optional repro.runtime.budget.Budget; None means unlimited.
        self.budget = None

    def make_set(self, elems: list[Value]) -> VSet:
        """Build a set under the machine's object-union semantics."""
        return VSet(elems, require_same_view=self.object_union == "same-view")

    # -- environments ------------------------------------------------------

    def base_env(self, extra: dict[str, Value] | None = None) -> Env:
        frame = builtin_values()
        if extra:
            frame.update(extra)
        return Env(frame)

    # -- application -------------------------------------------------------

    def apply(self, fn: Value, arg: Value) -> Value:
        self.metrics.applications += 1
        if isinstance(fn, VClosure):
            return self.eval(fn.body, fn.env.bind(fn.param, arg))
        if isinstance(fn, VBuiltin):
            args = fn.args + (arg,)
            if len(args) == fn.arity:
                return fn.fn(self, *args)
            return VBuiltin(fn.name, fn.arity, fn.fn, args)
        raise EvalError(f"cannot apply non-function value {fn!r}")

    # -- objects -----------------------------------------------------------

    def materialize(self, obj: VObject) -> Value:
        """Apply the viewing function to the raw object (Section 3.1,
        ``query``: "first evaluates or materializes the view")."""
        self.metrics.view_materializations += 1
        if self.tracer is not None:
            self.tracer.event("materialize", f"object#{obj.raw.oid}")
        return self.apply(obj.view, obj.raw)

    def compose_view(self, outer: Value, obj: VObject) -> VObject:
        """``(obj as outer)`` — same raw object, composed viewing function."""
        inner = obj.view

        def composed(m: "Machine", x: Value) -> Value:
            return m.apply(outer, m.apply(inner, x))

        self.metrics.objects_created += 1
        return VObject(obj.raw, make_builtin("<composed-view>", 1, composed))

    def fuse_objects(self, objs: list[VObject]) -> VSet:
        """n-ary ``fuse`` — singleton product object if all raws coincide."""
        first = objs[0]
        if any(o.raw.oid != first.raw.oid for o in objs[1:]):
            return VSet([])
        views = [o.view for o in objs]

        def product_view(m: "Machine", x: Value) -> Value:
            m.metrics.records_created += 1
            return VRecord(
                {str(i): m.apply(v, x) for i, v in enumerate(views, 1)},
                frozenset())

        self.metrics.objects_created += 1
        return VSet([VObject(first.raw,
                             make_builtin("<fused-view>", 1, product_view))])

    # -- classes -----------------------------------------------------------

    def class_extent(self, cls: VClass) -> VSet:
        """The full extent of a class (own extent plus lazy inclusions)."""
        self.metrics.extent_computations += 1
        return self._extent(cls, frozenset())

    def _extent(self, cls: VClass, visiting: frozenset[int]) -> VSet:
        """The ``f_i(L)`` computation of Section 4.4.

        ``visiting`` plays the role of the paper's index set ``L``: a class
        already on the inclusion path contributes the empty set, which both
        cuts cycles (Proposition 5) and computes the least solution of the
        class equations.
        """
        self.metrics.extent_calls += 1
        t = self.store.tracker
        if t is not None:
            # Every class on the inclusion path contributes to the result,
            # so OCC must validate each of their extent versions — an
            # insert into an included source changes this extent too.
            t.did_read_extent(cls)
        if cls.oid in visiting:
            if self.tracer is not None:
                self.tracer.event(
                    "extent-cut",
                    f"class#{cls.oid} (already on the inclusion path)")
            return VSet([])
        if self.tracer is not None:
            self.tracer.enter("extent", f"class#{cls.oid}")
        inner = visiting | {cls.oid}
        elems: list[Value] = list(self.store.own(cls).elems)
        purity_memo: dict | None = None
        for clause in cls.includes:
            if clause.dead:
                # A constant-false predicate (RP302) filters every
                # candidate, so the clause's sources are unreachable from
                # this extent.  Skipping them entirely — including their
                # OCC extent-read registrations — is sound only when the
                # skipped computation was provably pure: predicates run
                # during extent computation, so every predicate in the
                # transitive source graph must be effect-free.
                from ..analysis.regions import class_extent_is_pure
                if purity_memo is None:
                    purity_memo = {}
                if all(class_extent_is_pure(s, purity_memo)
                       for s in clause.sources):
                    continue
            source_extents = [self._extent(s, inner) for s in clause.sources]
            for candidate in self._fuse_extents(source_extents):
                verdict = self.apply(clause.pred, candidate)
                if not isinstance(verdict, VBool):
                    raise EvalError("include predicate must return a bool")
                if verdict.value:
                    elems.append(self.compose_view(clause.view, candidate))
        # Set dedup keeps the earlier element: own extent wins over
        # inclusions, earlier clauses over later ones (Section 3.1's
        # left-biased union) — or errors under the same-view semantics.
        result = self.make_set(elems)
        if self.tracer is not None:
            self.tracer.leave(f" -> {len(result)} object(s)")
        return result

    def _fuse_extents(self, extents: list[VSet]) -> list[VObject]:
        """Intersect the source extents by raw identity.

        For a single source this is the extent itself; for m >= 2 it is the
        n-ary ``intersect`` of Section 3.1 — objects present in *all*
        sources (same raw object), fused into product-view objects.
        """
        if len(extents) == 1:
            return [e for e in extents[0].elems if isinstance(e, VObject)]
        by_raw: list[dict[int, VObject]] = []
        for ext in extents:
            table: dict[int, VObject] = {}
            for e in ext.elems:
                if isinstance(e, VObject) and e.raw.oid not in table:
                    table[e.raw.oid] = e
            by_raw.append(table)
        fused: list[VObject] = []
        for oid, first_obj in by_raw[0].items():
            if all(oid in table for table in by_raw[1:]):
                group = [first_obj] + [table[oid] for table in by_raw[1:]]
                fused.extend(
                    o for o in self.fuse_objects(group).elems
                    if isinstance(o, VObject))
        return fused

    # -- evaluation --------------------------------------------------------

    def eval(self, term: T.Term, env: Env) -> Value:
        """Evaluate ``term`` under ``env``."""
        budget = self.budget
        if budget is not None:
            budget.tick(self)
        if isinstance(term, T.Const):
            name = term.type.name
            if name == "int":
                return VInt(term.value)  # type: ignore[arg-type]
            if name == "string":
                return VString(term.value)  # type: ignore[arg-type]
            if name == "bool":
                return TRUE if term.value else FALSE
            raise EvalError(f"unknown constant type '{name}'")
        if isinstance(term, T.Unit):
            return UNIT_VALUE
        if isinstance(term, T.Var):
            return env.lookup(term.name)
        if isinstance(term, T.Lam):
            return VClosure(term.param, term.body, env)
        if isinstance(term, T.App):
            fn = self.eval(term.fn, env)
            arg = self.eval(term.arg, env)
            return self.apply(fn, arg)
        if isinstance(term, T.RecordExpr):
            return self._eval_record(term, env)
        if isinstance(term, T.Dot):
            rec = self.eval(term.expr, env)
            if not isinstance(rec, VRecord):
                raise EvalError("field extraction on a non-record value")
            t = self.store.tracker
            if t is not None:
                cell = rec.cells.get(term.label)
                if isinstance(cell, Location):
                    staged = t.did_read(cell)
                    if staged is not None:
                        return staged
            return rec.read(term.label)
        if isinstance(term, T.Extract):
            raise EvalError(
                "extract(e, l) may only appear as a record field "
                "initializer")
        if isinstance(term, T.Update):
            rec = self.eval(term.expr, env)
            if not isinstance(rec, VRecord):
                raise EvalError("update on a non-record value")
            rec.write(term.label, self.eval(term.value, env), self.store)
            return UNIT_VALUE
        if isinstance(term, T.SetExpr):
            return self.make_set([self.eval(e, env) for e in term.elems])
        if isinstance(term, T.If):
            cond = self.eval(term.cond, env)
            if not isinstance(cond, VBool):
                raise EvalError("if condition must be a bool")
            return self.eval(term.then if cond.value else term.else_, env)
        if isinstance(term, T.Fix):
            # Back-patching: the frame slot exists (so lookups fail loudly
            # rather than escaping to an outer binding) and is filled once
            # the body — normally a lambda — has evaluated.
            frame: dict[str, Value] = {term.name: None}  # type: ignore
            env2 = env.child(frame)
            value = self.eval(term.body, env2)
            frame[term.name] = value
            return value
        if isinstance(term, T.Let):
            bound = self.eval(term.bound, env)
            return self.eval(term.body, env.bind(term.name, bound))
        if isinstance(term, T.Ascribe):
            return self.eval(term.expr, env)
        if isinstance(term, T.Prod):
            return self._eval_prod(term, env)

        # -- objects -------------------------------------------------------
        if isinstance(term, T.IDView):
            raw = self.eval(term.expr, env)
            if not isinstance(raw, VRecord):
                raise EvalError("IDView expects a record")
            self.metrics.objects_created += 1
            return VObject(raw, identity_view())
        if isinstance(term, T.AsView):
            obj = self._eval_object(term.obj, env, "as")
            view = self.eval(term.view, env)
            return self.compose_view(view, obj)
        if isinstance(term, T.Query):
            fn = self.eval(term.fn, env)
            obj = self._eval_object(term.obj, env, "query")
            return self.apply(fn, self.materialize(obj))
        if isinstance(term, T.Fuse):
            objs = [self._eval_object(e, env, "fuse") for e in term.objs]
            return self.fuse_objects(objs)
        if isinstance(term, T.RelObj):
            return self._eval_relobj(term, env)

        # -- classes -------------------------------------------------------
        if isinstance(term, T.ClassExpr):
            shell = VClass(VSet([]), [])
            self._fill_class(shell, term, env)
            return shell
        if isinstance(term, T.CQuery):
            fn = self.eval(term.fn, env)
            cls = self._eval_class(term.cls, env, "c-query")
            return self.apply(fn, self.class_extent(cls))
        if isinstance(term, T.Insert):
            obj = self._eval_object(term.obj, env, "insert")
            cls = self._eval_class(term.cls, env, "insert")
            # union(OwnExt, {e}) — the existing element wins on collision.
            store = self.store
            store.replace_own(
                cls, self.make_set(store.own(cls).elems + [obj]))
            return UNIT_VALUE
        if isinstance(term, T.Delete):
            obj = self._eval_object(term.obj, env, "delete")
            cls = self._eval_class(term.cls, env, "delete")
            from .equality import value_key
            key = value_key(obj)
            store = self.store
            store.replace_own(cls, self.make_set(
                [e for e in store.own(cls).elems if value_key(e) != key]))
            return UNIT_VALUE
        if isinstance(term, T.LetClasses):
            # Create the shells first so mutually recursive include-source
            # references resolve, then fill each class in order.
            shells = {name: VClass(VSet([]), [])
                      for name, _ in term.bindings}
            env2 = env.child(dict(shells))
            for name, cls_expr in term.bindings:
                self._fill_class(shells[name], cls_expr, env2)
            return self.eval(term.body, env2)

        raise AssertionError(
            f"unknown term node {type(term).__name__}")  # pragma: no cover

    # -- helpers -----------------------------------------------------------

    def _eval_record(self, term: T.RecordExpr, env: Env) -> VRecord:
        cells: dict[str, object] = {}
        mutable: set[str] = set()
        for f in term.fields:
            if f.mutable:
                mutable.add(f.label)
            if isinstance(f.expr, T.Extract):
                target = self.eval(f.expr.expr, env)
                if not isinstance(target, VRecord):
                    raise EvalError("extract on a non-record value")
                # Share the L-value: both `l = extract(...)` and
                # `l := extract(...)` store the *same* location.
                cells[f.label] = target.location_of(f.expr.label)
            elif f.mutable:
                cells[f.label] = self.store.alloc(self.eval(f.expr, env))
            else:
                cells[f.label] = self.eval(f.expr, env)
        self.metrics.records_created += 1
        return VRecord(cells, frozenset(mutable))  # type: ignore[arg-type]

    def _eval_prod(self, term: T.Prod, env: Env) -> VSet:
        sets = []
        for s in term.sets:
            v = self.eval(s, env)
            if not isinstance(v, VSet):
                raise EvalError("prod expects sets")
            sets.append(v)
        tuples: list[Value] = []
        indices = [0] * len(sets)
        if any(len(s) == 0 for s in sets):
            return VSet([])
        while True:
            self.metrics.records_created += 1
            tuples.append(VRecord(
                {str(i + 1): sets[i].elems[indices[i]]
                 for i in range(len(sets))},
                frozenset()))
            pos = len(sets) - 1
            while pos >= 0:
                indices[pos] += 1
                if indices[pos] < len(sets[pos]):
                    break
                indices[pos] = 0
                pos -= 1
            if pos < 0:
                return VSet(tuples)

    def _eval_relobj(self, term: T.RelObj, env: Env) -> VObject:
        objs = {label: self._eval_object(e, env, "relobj")
                for label, e in term.fields}
        # The new raw object is a record whose l_i field is the raw object
        # of e_i — a *new* identity (Section 3.1).
        self.metrics.records_created += 1
        raw = VRecord({label: o.raw for label, o in objs.items()},
                      frozenset())
        views = {label: o.view for label, o in objs.items()}

        def rel_view(m: "Machine", x: Value) -> Value:
            if not isinstance(x, VRecord):
                raise EvalError("relation object view applied to non-record")
            m.metrics.records_created += 1
            return VRecord(
                {label: m.apply(v, x.read(label))
                 for label, v in views.items()},
                frozenset())

        self.metrics.objects_created += 1
        return VObject(raw, make_builtin("<relobj-view>", 1, rel_view))

    def _fill_class(self, shell: VClass, term: T.ClassExpr, env: Env) -> None:
        own = self.eval(term.own, env)
        if not isinstance(own, VSet):
            raise EvalError("class own extent must be a set")
        includes = []
        for clause in term.includes:
            sources = [self._eval_class(s, env, "include")
                       for s in clause.sources]
            # A syntactically constant-false predicate can never admit a
            # candidate; mark the clause so extent computation may skip
            # its sources (see Machine._extent).
            dead = (isinstance(clause.pred, T.Lam)
                    and isinstance(clause.pred.body, T.Const)
                    and clause.pred.body.value is False)
            includes.append(ResolvedInclude(
                sources,
                self.eval(clause.view, env),
                self.eval(clause.pred, env),
                dead=dead))
        shell.own = own
        shell.includes = includes

    def _eval_object(self, term: T.Term, env: Env, who: str) -> VObject:
        v = self.eval(term, env)
        if not isinstance(v, VObject):
            raise EvalError(f"'{who}' expects an object")
        return v

    def _eval_class(self, term: T.Term, env: Env, who: str) -> VClass:
        v = self.eval(term, env)
        if not isinstance(v, VClass):
            raise EvalError(f"'{who}' expects a class")
        return v
