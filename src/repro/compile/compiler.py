"""Closure compilation of typechecked core terms.

The compiler lowers a term to a tree of Python closures, each with the
uniform signature ``node(machine, C, L) -> Value``:

* ``C`` is the *capture tuple* of the enclosing compiled function — the
  flat-closure conversion resolves every free variable of a lambda body to
  a fixed index in ``C`` at compile time;
* ``L`` is the *locals list* of the current activation — the parameter
  lives in slot 0 and every ``let``/``fix`` binder gets a fresh static slot,
  so variable access is a list index instead of a chained-dict walk;
* top-level free variables resolve **at compile time** against the
  session's runtime environment and are embedded as constants (the program
  pins their identities and is recompiled on rebinding, see
  :mod:`repro.compile.engine`);
* a statement template's parameters (:mod:`repro.lang.statements`) are the
  program's first top-level slots, seeded by :meth:`CompiledProgram.run`,
  so one program serves every literal value of its statement shape.

Compiled lambdas are :class:`~repro.eval.values.VCompiledFn` — a unary
:class:`~repro.eval.values.VBuiltin` — so application interoperates with
the interpreter in both directions: ``Machine.apply`` calls compiled
functions natively, and compiled code falls back to ``Machine.apply`` for
interpreted closures.

**Step parity.**  The interpreter ticks the budget once per term node, in
pre-order, and never in ``apply``.  Every compiled node closure ticks once;
a specialization that fuses ``k`` plumbing nodes (e.g. the application
spine of a saturated builtin) owes ``tick_n(k)`` before evaluating its
operands.  Step totals — and the store effects, OCC read/write tracking
and error behaviour — are therefore identical to the interpreter's; the
differential suite (``tests/compile``) pins this.

**Kind-directed record access.**  Inference annotates each ``Dot``/
``Update`` with its record operand's type (``record_type_annotations``).
When the operand resolves to a *concrete* record type the field is known
present (and, for updates, known mutable), so the compiled access skips the
generic lookup protocol and goes straight to the cell — the dict-of-cells
analogue of Ohori's fixed-offset specialization (records share interned
:class:`~repro.compile.layouts.Layout` tables, see ``layouts.py`` for why
the cell container itself stays a dict).  An operand that is only
record-*kinded* (an open row variable) takes the generic path.

Unsupported constructs raise :class:`CompileFallback` with a reason and
span; callers run the interpreter instead and surface the reason through
``explain`` and the RP701 lint.
"""

from __future__ import annotations

from typing import Callable

from ..core import terms as T
from ..core.types import TRecord, Type, resolve
from ..errors import EvalError
from ..eval.builtins import _div, _mod, _union
from ..eval.equality import eq_values, value_key
from ..eval.machine import Machine, identity_view
from ..eval.store import Location
from ..eval.values import (FALSE, TRUE, UNIT_VALUE, Env, ResolvedInclude,
                           VBool, VBuiltin, VClass, VClosure, VCompiledFn,
                           VInt, VObject, VRecord, VSet, VString, Value)
from .layouts import Layout

__all__ = ["CompileFallback", "CompiledProgram", "compile_term",
           "compile_closure", "structural_fallbacks"]

#: Sentinel in a ``fix`` back-patch box before the body has produced the
#: recursive value (mirrors the interpreter's ``None`` frame slot).
_UNSET = object()

_MISSING = object()

#: A compiled node: ``(machine, captures, locals) -> Value``.
Node = Callable[[Machine, tuple, list], Value]


class CompileFallback(Exception):
    """The term contains a construct the compiler does not lower.

    ``structural`` is True when the reason is a property of the term alone
    (an unsupported node), so the decision may be cached; False when it
    depends on the environment (e.g. an unbound name at compile time).
    """

    def __init__(self, reason: str, pos: "T.Pos | None" = None,
                 structural: bool = True):
        super().__init__(reason)
        self.reason = reason
        self.pos = pos
        self.structural = structural

    def describe(self) -> str:
        if self.pos is not None:
            return (f"{self.reason} (line {self.pos.line}, "
                    f"column {self.pos.column})")
        return self.reason


class CompiledProgram:
    """A term lowered to closures, plus the bindings it was compiled against.

    ``deps`` lists ``(env, name, value)`` triples: the program embedded
    ``value`` for ``name`` as resolved in ``env`` at compile time, so it is
    only valid while every ``env.lookup(name)`` still yields that exact
    object — the cache checks :meth:`valid` before every run and recompiles
    on any rebinding, exactly like the materialized-view cache.
    """

    __slots__ = ("term", "deps", "nslots", "entry")

    def __init__(self, term: T.Term, deps: list, nslots: int, entry: Node):
        self.term = term
        self.deps = deps
        self.nslots = nslots
        self.entry = entry

    def valid(self) -> bool:
        try:
            for env, name, value in self.deps:
                if env.lookup(name) is not value:
                    return False
        except EvalError:
            return False
        return True

    def run(self, machine: Machine, args: tuple = ()) -> Value:
        """Run with ``args`` seeding the parameter slots."""
        L = [None] * self.nslots
        L[:len(args)] = args
        return self.entry(machine, (), L)


# ---------------------------------------------------------------------------
# Compile-time scopes (flat-closure conversion)
# ---------------------------------------------------------------------------

class _Scope:
    """One compiled function's compile-time scope.

    ``names`` maps each visible binder to a reference:

    * ``("local", i)`` — slot ``i`` of the activation's locals list;
    * ``("box", i)`` — slot ``i`` holds a one-element back-patch box
      (``fix`` binders), read through a sentinel check;
    * ``("cap", j)`` / ``("capbox", j)`` — index ``j`` of the capture tuple
      (a plain value / a back-patch box).

    Resolving a name bound in an enclosing function appends it to
    ``captures`` (transitively through every intermediate function), which
    is how the flat-closure conversion decides what each lambda copies.
    """

    __slots__ = ("parent", "names", "captures", "nslots")

    def __init__(self, parent: "_Scope | None"):
        self.parent = parent
        self.names: dict[str, tuple] = {}
        self.captures: list[tuple] = []
        self.nslots = 0

    def resolve(self, name: str):
        ref = self.names.get(name)
        if ref is not None:
            return ref
        if self.parent is None:
            return None  # free at top level: a global
        parent_ref = self.parent.resolve(name)
        if parent_ref is None:
            return None
        tag = "capbox" if parent_ref[0] in ("box", "capbox") else "cap"
        ref = (tag, len(self.captures))
        self.captures.append(parent_ref)
        self.names[name] = ref
        return ref

    def bind(self, name: str, boxed: bool = False):
        """Allocate a slot for a binder; returns (slot, restore-token)."""
        i = self.nslots
        self.nslots += 1
        token = (name, self.names.get(name, _MISSING))
        self.names[name] = ("box" if boxed else "local", i)
        return i, token

    def unbind(self, token) -> None:
        name, old = token
        if old is _MISSING:
            del self.names[name]
        else:
            self.names[name] = old


def _capture_accessor(ref) -> Node:
    """Fetch a captured binding *as stored* (boxes stay boxed, no tick)."""
    tag, idx = ref
    if tag in ("local", "box"):
        return lambda m, C, L, _i=idx: L[_i]
    return lambda m, C, L, _j=idx: C[_j]


# ---------------------------------------------------------------------------
# Inline application (parity with Machine.apply, minus the dispatch)
# ---------------------------------------------------------------------------

def _call1(m: Machine, fnv: Value, arg: Value) -> Value:
    """Apply ``fnv`` to one argument exactly as ``Machine.apply`` would."""
    if isinstance(fnv, VBuiltin):
        m.metrics.applications += 1
        args = fnv.args + (arg,)
        if len(args) == fnv.arity:
            return fnv.fn(m, *args)
        return VBuiltin(fnv.name, fnv.arity, fnv.fn, args)
    return m.apply(fnv, arg)  # VClosure (interpreted) or a type error


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

class _Compiler:
    """Compiles one program (or one known closure) to node closures.

    ``env`` is the environment free variables resolve against; every
    resolution is recorded in ``deps`` for the validity check.
    ``annotations`` maps ``id(Dot/Update node) -> operand Type`` from
    inference; missing entries simply take the generic access path.
    ``fn_memo`` (shared by the engine across programs) caches compiled
    global closures by identity.
    """

    def __init__(self, env: Env, annotations: dict | None,
                 deps: list, fn_memo: dict | None):
        self.env = env
        self.annotations = annotations or {}
        self.deps = deps
        self.fn_memo = fn_memo if fn_memo is not None else {}
        self._depth = 0

    # -- globals -----------------------------------------------------------

    def _global_value(self, name: str, pos) -> Value:
        try:
            value = self.env.lookup(name)
        except EvalError:
            raise CompileFallback(
                f"free variable '{name}' is unbound at compile time",
                pos, structural=False) from None
        self.deps.append((self.env, name, value))
        return value

    def _pristine_builtin(self, name: str, arity: int) -> "Value | None":
        """The value of ``name`` if it is still the genuine builtin.

        Builtins are the only bare :class:`VBuiltin` values a program can
        reach (compiled lambdas are ``VCompiledFn``, synthesized views carry
        ``<...>`` names, partial applications carry ``args``), so checking
        shape here — with the cache pinning the identity — is sound.
        """
        try:
            value = self.env.lookup(name)
        except EvalError:
            return None
        if (type(value) is VBuiltin and value.name == name
                and value.arity == arity and not value.args):
            return value
        return None

    # -- entry points ------------------------------------------------------

    def compile_program(self, term: T.Term,
                        params: tuple[str, ...] = ()) -> tuple[Node, int]:
        scope = _Scope(None)
        for name in params:
            scope.bind(name)
        entry = self.compile(term, scope)
        return entry, scope.nslots

    def compile_closure(self, closure: VClosure) -> VCompiledFn:
        """Compile a *known* interpreted closure into a compiled function.

        Free variables of the body resolve against the closure's captured
        environment; the resolutions land in ``deps`` like any other, so
        rebinding e.g. ``hom`` in the session invalidates programs that
        inlined a prelude closure built on it.
        """
        key = id(closure)
        memo = self.fn_memo
        hit = memo.get(key)
        if hit is not None and hit[0] is closure:
            if len(hit) == 1:
                # Already being compiled below us: a (mutually) recursive
                # closure.  Inlining it would not terminate, so the caller
                # embeds the interpreted closure instead.
                raise CompileFallback(
                    "recursive closure is applied interpreted",
                    None, structural=False)
            fn, extra_deps = hit[1], hit[2]
            if extra_deps is not self.deps:
                self.deps.extend(extra_deps)
            return fn
        memo[key] = (closure,)  # in-flight marker
        try:
            inner_deps: list = []
            sub = _Compiler(closure.env, None, inner_deps, memo)
            scope = _Scope(None)
            slot, _ = scope.bind(closure.param)
            assert slot == 0
            body = sub.compile(closure.body, scope)
            nslots = scope.nslots
        except BaseException:
            memo.pop(key, None)
            raise

        def call(m: Machine, arg: Value,
                 _body=body, _n=nslots) -> Value:
            L = [None] * _n
            L[0] = arg
            return _body(m, (), L)

        fn = VCompiledFn(closure.param, 1, call,
                         source=(closure.body, {}, closure.env))
        memo[key] = (closure, fn, inner_deps)
        self.deps.extend(inner_deps)
        return fn

    # -- dispatch ----------------------------------------------------------

    def compile(self, term: T.Term, scope: _Scope) -> Node:
        self._depth += 1
        if self._depth > 2000:
            raise CompileFallback("term too deep to compile", None,
                                  structural=True)
        try:
            return self._compile(term, scope)
        finally:
            self._depth -= 1

    def _compile(self, term: T.Term, scope: _Scope) -> Node:
        if isinstance(term, T.Const):
            return self._const(term)
        if isinstance(term, T.Unit):
            def unit(m, C, L):
                b = m.budget
                if b is not None:
                    b.tick(m)
                return UNIT_VALUE
            return unit
        if isinstance(term, T.Var):
            return self._var(term, scope)
        if isinstance(term, T.Lam):
            return self._lam(term, scope)
        if isinstance(term, T.App):
            return self._app(term, scope)
        if isinstance(term, T.RecordExpr):
            return self._record(term, scope)
        if isinstance(term, T.Dot):
            return self._dot(term, scope)
        if isinstance(term, T.Extract):
            def bad_extract(m, C, L):
                b = m.budget
                if b is not None:
                    b.tick(m)
                raise EvalError(
                    "extract(e, l) may only appear as a record field "
                    "initializer")
            return bad_extract
        if isinstance(term, T.Update):
            return self._update(term, scope)
        if isinstance(term, T.SetExpr):
            subs = tuple(self.compile(e, scope) for e in term.elems)

            def mkset(m, C, L, _subs=subs):
                b = m.budget
                if b is not None:
                    b.tick(m)
                return m.make_set([s(m, C, L) for s in _subs])
            return mkset
        if isinstance(term, T.If):
            cond = self.compile(term.cond, scope)
            then = self.compile(term.then, scope)
            els = self.compile(term.else_, scope)

            def ifnode(m, C, L, _c=cond, _t=then, _e=els):
                b = m.budget
                if b is not None:
                    b.tick(m)
                v = _c(m, C, L)
                if not isinstance(v, VBool):
                    raise EvalError("if condition must be a bool")
                return _t(m, C, L) if v.value else _e(m, C, L)
            return ifnode
        if isinstance(term, T.Fix):
            return self._fix(term, scope)
        if isinstance(term, T.Let):
            bound = self.compile(term.bound, scope)
            slot, token = scope.bind(term.name)
            try:
                body = self.compile(term.body, scope)
            finally:
                scope.unbind(token)

            def let(m, C, L, _b=bound, _body=body, _i=slot):
                b = m.budget
                if b is not None:
                    b.tick(m)
                L[_i] = _b(m, C, L)
                return _body(m, C, L)
            return let
        if isinstance(term, T.Ascribe):
            sub = self.compile(term.expr, scope)

            def ascribe(m, C, L, _s=sub):
                b = m.budget
                if b is not None:
                    b.tick(m)
                return _s(m, C, L)
            return ascribe
        if isinstance(term, T.Prod):
            return self._prod(term, scope)
        if isinstance(term, T.IDView):
            sub = self.compile(term.expr, scope)

            def idview(m, C, L, _s=sub):
                b = m.budget
                if b is not None:
                    b.tick(m)
                raw = _s(m, C, L)
                if not isinstance(raw, VRecord):
                    raise EvalError("IDView expects a record")
                m.metrics.objects_created += 1
                return VObject(raw, identity_view())
            return idview
        if isinstance(term, T.AsView):
            objc = self.compile(term.obj, scope)
            viewc = self.compile(term.view, scope)

            def asview(m, C, L, _o=objc, _v=viewc):
                b = m.budget
                if b is not None:
                    b.tick(m)
                obj = _o(m, C, L)
                if not isinstance(obj, VObject):
                    raise EvalError("'as' expects an object")
                return m.compose_view(_v(m, C, L), obj)
            return asview
        if isinstance(term, T.Query):
            fnc = self.compile(term.fn, scope)
            objc = self.compile(term.obj, scope)

            def query(m, C, L, _f=fnc, _o=objc):
                b = m.budget
                if b is not None:
                    b.tick(m)
                f = _f(m, C, L)
                obj = _o(m, C, L)
                if not isinstance(obj, VObject):
                    raise EvalError("'query' expects an object")
                return _call1(m, f, m.materialize(obj))
            return query
        if isinstance(term, T.Fuse):
            subs = tuple(self.compile(e, scope) for e in term.objs)

            def fuse(m, C, L, _subs=subs):
                b = m.budget
                if b is not None:
                    b.tick(m)
                objs = []
                for s in _subs:
                    v = s(m, C, L)
                    if not isinstance(v, VObject):
                        raise EvalError("'fuse' expects an object")
                    objs.append(v)
                return m.fuse_objects(objs)
            return fuse
        if isinstance(term, T.RelObj):
            raise CompileFallback(
                "relation-object construction (relobj) is not compiled yet",
                term.pos)
        if isinstance(term, T.ClassExpr):
            return self._class_expr(term, scope)
        if isinstance(term, T.CQuery):
            fnc = self.compile(term.fn, scope)
            clsc = self.compile(term.cls, scope)

            def cquery(m, C, L, _f=fnc, _c=clsc):
                b = m.budget
                if b is not None:
                    b.tick(m)
                f = _f(m, C, L)
                cls = _c(m, C, L)
                if not isinstance(cls, VClass):
                    raise EvalError("'c-query' expects a class")
                return _call1(m, f, m.class_extent(cls))
            return cquery
        if isinstance(term, T.Insert):
            objc = self.compile(term.obj, scope)
            clsc = self.compile(term.cls, scope)

            def insert(m, C, L, _o=objc, _c=clsc):
                b = m.budget
                if b is not None:
                    b.tick(m)
                obj = _o(m, C, L)
                if not isinstance(obj, VObject):
                    raise EvalError("'insert' expects an object")
                cls = _c(m, C, L)
                if not isinstance(cls, VClass):
                    raise EvalError("'insert' expects a class")
                store = m.store
                store.replace_own(
                    cls, m.make_set(store.own(cls).elems + [obj]))
                return UNIT_VALUE
            return insert
        if isinstance(term, T.Delete):
            objc = self.compile(term.obj, scope)
            clsc = self.compile(term.cls, scope)

            def delete(m, C, L, _o=objc, _c=clsc):
                b = m.budget
                if b is not None:
                    b.tick(m)
                obj = _o(m, C, L)
                if not isinstance(obj, VObject):
                    raise EvalError("'delete' expects an object")
                cls = _c(m, C, L)
                if not isinstance(cls, VClass):
                    raise EvalError("'delete' expects a class")
                key = value_key(obj)
                store = m.store
                store.replace_own(cls, m.make_set(
                    [e for e in store.own(cls).elems if value_key(e) != key]))
                return UNIT_VALUE
            return delete
        if isinstance(term, T.LetClasses):
            raise CompileFallback(
                "recursive class definitions (let ... class) are not "
                "compiled yet", term.pos)
        raise CompileFallback(
            f"unknown term node {type(term).__name__}",
            getattr(term, "pos", None))

    # -- leaves ------------------------------------------------------------

    def _const(self, term: T.Const) -> Node:
        name = term.type.name
        if name == "int":
            value: Value = VInt(term.value)  # type: ignore[arg-type]
        elif name == "string":
            value = VString(term.value)  # type: ignore[arg-type]
        elif name == "bool":
            value = TRUE if term.value else FALSE
        else:
            raise CompileFallback(f"unknown constant type '{name}'",
                                  term.pos)

        def const(m, C, L, _v=value):
            b = m.budget
            if b is not None:
                b.tick(m)
            return _v
        return const

    def _var(self, term: T.Var, scope: _Scope) -> Node:
        ref = scope.resolve(term.name)
        if ref is None:
            value = self._global_value(term.name, term.pos)

            def global_var(m, C, L, _v=value):
                b = m.budget
                if b is not None:
                    b.tick(m)
                return _v
            return global_var
        tag, idx = ref
        if tag == "local":
            def local_var(m, C, L, _i=idx):
                b = m.budget
                if b is not None:
                    b.tick(m)
                return L[_i]
            return local_var
        if tag == "cap":
            def cap_var(m, C, L, _j=idx):
                b = m.budget
                if b is not None:
                    b.tick(m)
                return C[_j]
            return cap_var
        name = term.name
        if tag == "box":
            def box_var(m, C, L, _i=idx, _name=name):
                b = m.budget
                if b is not None:
                    b.tick(m)
                v = L[_i][0]
                if v is _UNSET:
                    raise EvalError(
                        f"recursive value '{_name}' used before it is "
                        "defined")
                return v
            return box_var

        def capbox_var(m, C, L, _j=idx, _name=name):
            b = m.budget
            if b is not None:
                b.tick(m)
            v = C[_j][0]
            if v is _UNSET:
                raise EvalError(
                    f"recursive value '{_name}' used before it is defined")
            return v
        return capbox_var

    # -- functions ---------------------------------------------------------

    def _lam(self, term: T.Lam, scope: _Scope) -> Node:
        fn_scope = _Scope(scope)
        slot, _ = fn_scope.bind(term.param)
        assert slot == 0
        body = self.compile(term.body, fn_scope)
        nslots = fn_scope.nslots
        param = term.param
        # The analysis record: captured free names -> capture-tuple slots
        # (everything else free in the body is a global of ``self.env``).
        cap_specs = {name: ref for name, ref in fn_scope.names.items()
                     if ref[0] in ("cap", "capbox")}
        source = (term.body, cap_specs, self.env)

        def call(m: Machine, arg: Value, _body=body, _n=nslots) -> Value:
            L = [None] * _n
            L[0] = arg
            return _body(m, (), L)

        if not fn_scope.captures:
            # Nothing to close over: share the call implementation, still
            # minting a fresh value per evaluation (the interpreter builds
            # a fresh VClosure, and view identity is observable under the
            # same-view object-set semantics).
            def lam0(m, C, L, _call=call, _p=param, _src=source):
                b = m.budget
                if b is not None:
                    b.tick(m)
                return VCompiledFn(_p, 1, _call, source=_src)
            return lam0

        accessors = tuple(_capture_accessor(r) for r in fn_scope.captures)

        def lam(m, C, L, _acc=accessors, _body=body, _n=nslots, _p=param,
                _src=source):
            b = m.budget
            if b is not None:
                b.tick(m)
            newC = tuple(a(m, C, L) for a in _acc)

            def call_c(m2, arg, _b=_body, _C=newC, _k=_n):
                L2 = [None] * _k
                L2[0] = arg
                return _b(m2, _C, L2)
            return VCompiledFn(_p, 1, call_c, source=_src, captures=newC)
        return lam

    def _fix(self, term: T.Fix, scope: _Scope) -> Node:
        slot, token = scope.bind(term.name, boxed=True)
        try:
            body = self.compile(term.body, scope)
        finally:
            scope.unbind(token)

        def fix(m, C, L, _body=body, _i=slot):
            b = m.budget
            if b is not None:
                b.tick(m)
            box = [_UNSET]
            L[_i] = box
            value = _body(m, C, L)
            box[0] = value
            return value
        return fix

    # -- application, with builtin/known-closure specialization ------------

    def _app(self, term: T.App, scope: _Scope) -> Node:
        # Unroll the application spine f a1 ... an.
        spine: list[T.Term] = []
        head: T.Term = term
        while isinstance(head, T.App):
            spine.append(head.arg)
            head = head.fn
        spine.reverse()
        if isinstance(head, T.Var) and scope.resolve(head.name) is None:
            node = self._specialized_app(head, spine, scope)
            if node is not None:
                return node
        fnc = self.compile(term.fn, scope)
        argc = self.compile(term.arg, scope)

        def app(m, C, L, _f=fnc, _a=argc):
            b = m.budget
            if b is not None:
                b.tick(m)
            f = _f(m, C, L)
            a = _a(m, C, L)
            if isinstance(f, VBuiltin):
                m.metrics.applications += 1
                args = f.args + (a,)
                if len(args) == f.arity:
                    return f.fn(m, *args)
                return VBuiltin(f.name, f.arity, f.fn, args)
            return m.apply(f, a)
        return app

    def _specialized_app(self, head: T.Var, args: list[T.Term],
                         scope: _Scope) -> "Node | None":
        """Fuse a saturated application of an unshadowed global.

        A pristine builtin head becomes a straight-line closure; a global
        interpreted closure head is itself compiled and embedded, so e.g.
        the prelude's ``map``/``filter`` run fully compiled.  The fused
        spine owes ``len(args)`` ticks for the App nodes plus one for the
        Var head.
        """
        name = head.name
        n = len(args)
        if name == "hom" and n == 4:
            value = self._pristine_builtin("hom", 4)
            if value is not None:
                self.deps.append((self.env, name, value))
                return self._hom_fold(args, scope)
        spec = _SPECIALIZABLE.get(name)
        if spec is not None and spec[0] == n:
            value = self._pristine_builtin(name, n)
            if value is not None:
                # Pin the identity: rebinding the name must invalidate.
                self.deps.append((self.env, name, value))
                subs = tuple(self.compile(a, scope) for a in args)
                return spec[1](self, subs)
        # A known global closure in head position: compile it once and
        # embed the compiled function; application stays generic.
        try:
            value = self.env.lookup(name)
        except EvalError:
            return None
        if isinstance(value, VClosure):
            mark = len(self.deps)
            self.deps.append((self.env, name, value))
            try:
                compiled = self.compile_closure(value)
            except CompileFallback:
                # The closure's body is not compilable (or it is
                # recursive): keep the dep pin but apply the interpreted
                # closure — the surrounding program still compiles.
                del self.deps[mark + 1:]
                compiled = value
            subs = tuple(self.compile(a, scope) for a in args)

            def call_known(m, C, L, _fn=compiled, _subs=subs, _n=n):
                b = m.budget
                if b is not None:
                    # The n App nodes and the Var head all tick before the
                    # first operand evaluates (the interpreter's pre-order
                    # descent reaches the spine head first).
                    b.tick_n(m, _n + 1)
                f: Value = _fn
                for s in _subs:
                    f = _call1(m, f, s(m, C, L))
                return f
            return call_known
        return None

    def _is_union_cons(self, op_t: T.Term, scope: _Scope) -> bool:
        """True when ``op_t`` is literally ``fn x => fn r => union({x}, r)``
        with a pristine, unshadowed ``union``.

        That operator makes ``hom`` a pointwise set accumulation (the
        prelude's ``map``), so the fold may batch: ``union({x}, r)``
        prefers the new element, and the paper's left-biased collapse is
        associative and idempotent, so deduplicating the forward-order
        concatenation once equals the chained pairwise passes.  The
        detection pins ``union`` in ``deps`` — rebinding it must
        invalidate the baked-in batch semantics.
        """
        if not (isinstance(op_t, T.Lam) and isinstance(op_t.body, T.Lam)):
            return False
        x, r = op_t.param, op_t.body.param
        if x == r or "union" in (x, r):
            return False
        body = op_t.body.body
        if not (isinstance(body, T.App) and isinstance(body.arg, T.Var)
                and body.arg.name == r):
            return False
        inner = body.fn
        if not (isinstance(inner, T.App) and isinstance(inner.fn, T.Var)
                and inner.fn.name == "union"):
            return False
        lit = inner.arg
        if not (isinstance(lit, T.SetExpr) and len(lit.elems) == 1
                and isinstance(lit.elems[0], T.Var)
                and lit.elems[0].name == x):
            return False
        if scope.resolve("union") is not None:
            return False
        value = self._pristine_builtin("union", 2)
        if value is None:
            return False
        self.deps.append((self.env, "union", value))
        return True

    @staticmethod
    def _is_filter_f(f_t: T.Lam) -> bool:
        """True for ``fn x => if <pred> then {x} else {}`` (the prelude's
        ``filter`` element function): under a union fold the kept
        elements can collect directly, skipping the singleton sets."""
        body = f_t.body
        return (isinstance(body, T.If)
                and isinstance(body.then, T.SetExpr)
                and len(body.then.elems) == 1
                and isinstance(body.then.elems[0], T.Var)
                and body.then.elems[0].name == f_t.param
                and isinstance(body.else_, T.SetExpr)
                and not body.else_.elems)

    def _hom_fold(self, args: list[T.Term], scope: _Scope) -> Node:
        """``hom(S, f, op, z)``: the right fold runs as a straight-line loop.

        Literal lambda arguments are inlined — their bodies compile into
        the enclosing program's slot space and run per element with no
        closure allocation (the dominant cost of the generic fold).  The
        inlined forms owe exactly what the value forms would: one tick
        per literal ``Lam`` node, paid where the interpreter's argument
        evaluation (or per-element partial application) reaches it, and
        one application count per ``apply`` in ``op(f(e), acc)``.

        A runtime ``op`` that is the pristine ``union`` builtin switches
        the fold to batch mode: the per-element results concatenate once
        and deduplicate in a single :meth:`Machine.make_set` pass.  The
        left-biased collapse is associative and idempotent, so one pass
        over the full concatenation equals the chained pairwise unions —
        linear instead of quadratic.  Same-view union mode keeps the
        pairwise loop: with several conflicting pairs the batched
        collapse could surface a different pair's error first.
        """
        s_c = self.compile(args[0], scope)
        f_t, op_t = args[1], args[2]
        cons_op = self._is_union_cons(op_t, scope)
        f_body = f_c = filt_cond = None
        f_slot = 0
        if isinstance(f_t, T.Lam):
            f_slot, tok = scope.bind(f_t.param)
            try:
                f_body = self.compile(f_t.body, scope)
                if self._is_filter_f(f_t):
                    # The filter shape: compile the predicate alone as
                    # well, so a union fold can keep elements directly
                    # instead of building singleton sets to unpack.
                    filt_cond = self.compile(f_t.body.cond, scope)
            finally:
                scope.unbind(tok)
        else:
            f_c = self.compile(f_t, scope)
        op_body = op_c = None
        a_slot = b_slot = 0
        if isinstance(op_t, T.Lam) and isinstance(op_t.body, T.Lam):
            a_slot, tok_a = scope.bind(op_t.param)
            b_slot, tok_b = scope.bind(op_t.body.param)
            try:
                op_body = self.compile(op_t.body.body, scope)
            finally:
                scope.unbind(tok_b)
                scope.unbind(tok_a)
        else:
            op_c = self.compile(op_t, scope)
        z_c = self.compile(args[3], scope)

        def node(m, C, L, _s=s_c, _fb=f_body, _fc=f_c, _fi=f_slot,
                 _ob=op_body, _oc=op_c, _ai=a_slot, _bi=b_slot, _z=z_c,
                 _cons=cons_op, _fcond=filt_cond):
            bud = m.budget
            if bud is not None:
                bud.tick_n(m, 5)
            s = _s(m, C, L)
            f = None
            if _fb is None:
                f = _fc(m, C, L)
            elif bud is not None:
                bud.tick(m)  # the literal Lam node in f position
            op = None
            if _ob is None:
                op = _oc(m, C, L)
            elif bud is not None:
                bud.tick(m)  # the outer literal Lam node in op position
            acc = _z(m, C, L)
            metrics = m.metrics
            metrics.applications += 4
            if not isinstance(s, VSet):
                raise EvalError("'hom' expects a set")
            elems = s.elems
            # f as a one-element applier, by whichever form f took.
            if _fb is not None:
                def fe(e):
                    metrics.applications += 1
                    L[_fi] = e
                    return _fb(m, C, L)
            elif isinstance(f, VBuiltin) and f.arity == 1 and not f.args:
                def fe(e, _fn=f.fn):
                    metrics.applications += 1
                    return _fn(m, e)
            else:
                def fe(e, _f=f):
                    return _call1(m, _f, e)
            if _ob is not None:
                if _cons and m.object_union != "same-view":
                    # op is literally ``fn x => fn r => union({x}, r)``:
                    # pointwise accumulation, batched into one dedup
                    # pass.  Each skipped element owes the op's full
                    # cost: four applications (two for the op spine, two
                    # for the union inside) and six ticks (the inner Lam
                    # plus the five nodes of ``union({x}, r)``).
                    first = True
                    out = []
                    for e in reversed(elems):
                        v = fe(e)
                        metrics.applications += 4
                        if bud is not None:
                            bud.tick_n(m, 6)
                        if first:
                            first = False
                            if not isinstance(acc, VSet):
                                raise EvalError("'union' expects a set")
                        out.append(v)
                    if not out:
                        return acc
                    out.reverse()
                    out.extend(acc.elems)
                    return m.make_set(out)
                if _fb is not None:
                    # Fully inlined: both bodies run in this activation.
                    for e in reversed(elems):
                        metrics.applications += 1
                        L[_fi] = e
                        v = _fb(m, C, L)
                        metrics.applications += 2
                        if bud is not None:
                            bud.tick(m)  # op's inner Lam node
                        L[_ai] = v
                        L[_bi] = acc
                        acc = _ob(m, C, L)
                    return acc
                for e in reversed(elems):
                    v = fe(e)
                    metrics.applications += 2
                    if bud is not None:
                        bud.tick(m)
                    L[_ai] = v
                    L[_bi] = acc
                    acc = _ob(m, C, L)
                return acc
            if type(op) is VBuiltin and op.arity == 2 and not op.args:
                if op.fn is _union and m.object_union != "same-view":
                    if _fcond is not None:
                        # The filter loop: keep or drop each element on
                        # the predicate alone.  Tick/metric parity per
                        # element: one application and one If tick for
                        # f, the predicate's own nodes, the taken
                        # branch's set-literal ticks (two when kept —
                        # SetExpr and the Var inside — one when
                        # dropped), then the union's two applications
                        # and the accumulator check.
                        first = True
                        out = []
                        for e in reversed(elems):
                            metrics.applications += 1
                            if bud is not None:
                                bud.tick(m)  # the If node
                            L[_fi] = e
                            c = _fcond(m, C, L)
                            if not isinstance(c, VBool):
                                raise EvalError(
                                    "if condition must be a bool")
                            keep = c.value
                            if bud is not None:
                                bud.tick_n(m, 2 if keep else 1)
                            metrics.applications += 2
                            if first:
                                first = False
                                if not isinstance(acc, VSet):
                                    raise EvalError(
                                        "'union' expects a set")
                            if keep:
                                out.append(e)
                        if not elems:
                            return acc
                        out.reverse()
                        out.extend(acc.elems)
                        return m.make_set(out)
                    parts = []
                    first = True
                    for e in reversed(elems):
                        v = fe(e)
                        metrics.applications += 2
                        if not isinstance(v, VSet):
                            raise EvalError("'union' expects a set")
                        if first:
                            first = False
                            if not isinstance(acc, VSet):
                                raise EvalError("'union' expects a set")
                        parts.append(v.elems)
                    if not parts:
                        return acc
                    parts.reverse()
                    out = [x for p in parts for x in p]
                    out.extend(acc.elems)
                    return m.make_set(out)
                op_fast = op.fn
                for e in reversed(elems):
                    v = fe(e)
                    metrics.applications += 2
                    acc = op_fast(m, v, acc)
                return acc
            for e in reversed(elems):
                acc = _call1(m, _call1(m, op, fe(e)), acc)
            return acc
        return node

    # -- records -----------------------------------------------------------

    def _record(self, term: T.RecordExpr, scope: _Scope) -> Node:
        labels = tuple(f.label for f in term.fields)
        mutable = frozenset(f.label for f in term.fields if f.mutable)
        layout = Layout.of(labels, mutable)
        plan = []
        for f, label in zip(term.fields, layout.labels):
            if isinstance(f.expr, T.Extract):
                target = self.compile(f.expr.expr, scope)
                plan.append((label, 2, target, f.expr.label))
            elif f.mutable:
                plan.append((label, 1, self.compile(f.expr, scope), None))
            else:
                plan.append((label, 0, self.compile(f.expr, scope), None))
        plan_t = tuple(plan)
        mut = layout.mutable_labels

        def record(m, C, L, _plan=plan_t, _mut=mut):
            b = m.budget
            if b is not None:
                b.tick(m)
            cells: dict = {}
            for label, mode, sub, xlabel in _plan:
                if mode == 0:
                    cells[label] = sub(m, C, L)
                elif mode == 1:
                    cells[label] = m.store.alloc(sub(m, C, L))
                else:
                    target = sub(m, C, L)
                    if not isinstance(target, VRecord):
                        raise EvalError("extract on a non-record value")
                    cells[label] = target.location_of(xlabel)
            m.metrics.records_created += 1
            return VRecord(cells, _mut)
        return record

    def _operand_record_type(self, term) -> "Type | None":
        """The resolved record-operand type of a Dot/Update, if concrete."""
        ann = self.annotations.get(id(term))
        if ann is None:
            return None
        t = resolve(ann)
        return t if isinstance(t, TRecord) else None

    def _dot(self, term: T.Dot, scope: _Scope) -> Node:
        sub = self.compile(term.expr, scope)
        label = Layout.intern_label(term.label)
        rec_t = self._operand_record_type(term)
        if rec_t is not None and label in rec_t.fields:
            # Closed record: the field is statically present, so the cell
            # fetch needs no membership protocol — one dict hit on the
            # interned label, then the L-value unwrap.
            def dot_closed(m, C, L, _s=sub, _l=label):
                b = m.budget
                if b is not None:
                    b.tick(m)
                rec = _s(m, C, L)
                if not isinstance(rec, VRecord):
                    raise EvalError("field extraction on a non-record value")
                try:
                    cell = rec.cells[_l]
                except KeyError:
                    raise EvalError(
                        f"record has no field '{_l}'") from None
                if type(cell) is Location:
                    t = m.store.tracker
                    if t is not None:
                        staged = t.did_read(cell)
                        if staged is not None:
                            return staged
                    return cell.value
                return cell
            return dot_closed

        def dot(m, C, L, _s=sub, _l=label):
            b = m.budget
            if b is not None:
                b.tick(m)
            rec = _s(m, C, L)
            if not isinstance(rec, VRecord):
                raise EvalError("field extraction on a non-record value")
            t = m.store.tracker
            if t is not None:
                cell = rec.cells.get(_l)
                if isinstance(cell, Location):
                    staged = t.did_read(cell)
                    if staged is not None:
                        return staged
            return rec.read(_l)
        return dot

    def _update(self, term: T.Update, scope: _Scope) -> Node:
        sub = self.compile(term.expr, scope)
        valc = self.compile(term.value, scope)
        label = Layout.intern_label(term.label)
        rec_t = self._operand_record_type(term)
        field = rec_t.fields.get(label) if rec_t is not None else None
        if field is not None and field.mutable:
            # Closed record with a statically mutable field: the cell is
            # known to be a Location, so the write goes straight through
            # the store's choke point without the mutability re-check.
            def update_closed(m, C, L, _s=sub, _v=valc, _l=label):
                b = m.budget
                if b is not None:
                    b.tick(m)
                rec = _s(m, C, L)
                if not isinstance(rec, VRecord):
                    raise EvalError("update on a non-record value")
                value = _v(m, C, L)
                cell = rec.cells.get(_l)
                if type(cell) is Location and _l in rec.mutable_labels:
                    m.store.write(cell, value)
                else:  # dynamic shape disagrees: exact interpreter errors
                    rec.write(_l, value, m.store)
                return UNIT_VALUE
            return update_closed

        def update(m, C, L, _s=sub, _v=valc, _l=label):
            b = m.budget
            if b is not None:
                b.tick(m)
            rec = _s(m, C, L)
            if not isinstance(rec, VRecord):
                raise EvalError("update on a non-record value")
            rec.write(_l, _v(m, C, L), m.store)
            return UNIT_VALUE
        return update

    # -- products ----------------------------------------------------------

    def _prod(self, term: T.Prod, scope: _Scope) -> Node:
        subs = tuple(self.compile(s, scope) for s in term.sets)
        width = len(subs)
        labels = Layout.of(tuple(str(i + 1) for i in range(width)),
                           frozenset()).labels

        def prod(m, C, L, _subs=subs, _labels=labels):
            b = m.budget
            if b is not None:
                b.tick(m)
            sets = []
            for s in _subs:
                v = s(m, C, L)
                if not isinstance(v, VSet):
                    raise EvalError("prod expects sets")
                sets.append(v)
            k = len(sets)
            if any(len(s) == 0 for s in sets):
                return VSet([])
            tuples: list[Value] = []
            indices = [0] * k
            metrics = m.metrics
            while True:
                metrics.records_created += 1
                tuples.append(VRecord(
                    {_labels[i]: sets[i].elems[indices[i]]
                     for i in range(k)},
                    frozenset()))
                pos = k - 1
                while pos >= 0:
                    indices[pos] += 1
                    if indices[pos] < len(sets[pos]):
                        break
                    indices[pos] = 0
                    pos -= 1
                if pos < 0:
                    return VSet(tuples)
        return prod

    # -- classes -----------------------------------------------------------

    def _class_expr(self, term: T.ClassExpr, scope: _Scope) -> Node:
        own = self.compile(term.own, scope)
        clauses = []
        for clause in term.includes:
            sources = tuple(self.compile(s, scope) for s in clause.sources)
            view = self.compile(clause.view, scope)
            pred = self.compile(clause.pred, scope)
            dead = (isinstance(clause.pred, T.Lam)
                    and isinstance(clause.pred.body, T.Const)
                    and clause.pred.body.value is False)
            clauses.append((sources, view, pred, dead))
        clauses_t = tuple(clauses)

        def class_expr(m, C, L, _own=own, _clauses=clauses_t):
            b = m.budget
            if b is not None:
                b.tick(m)
            shell = VClass(VSet([]), [])
            own_v = _own(m, C, L)
            if not isinstance(own_v, VSet):
                raise EvalError("class own extent must be a set")
            includes = []
            for sources, view, pred, dead in _clauses:
                resolved = []
                for s in sources:
                    v = s(m, C, L)
                    if not isinstance(v, VClass):
                        raise EvalError("'include' expects a class")
                    resolved.append(v)
                includes.append(ResolvedInclude(
                    resolved, view(m, C, L), pred(m, C, L), dead=dead))
            shell.own = own_v
            shell.includes = includes
            return shell
        return class_expr


# ---------------------------------------------------------------------------
# Saturated-builtin specializations
# ---------------------------------------------------------------------------
#
# Each entry maps a builtin name to (arity, emitter).  The emitter receives
# the compiler and the compiled argument nodes and returns the fused node.
# Fused spines owe arity ticks for the App nodes plus one for the Var head,
# all *before* the first operand evaluates — the interpreter's pre-order.

def _emit_int_op(name: str, pyop):
    def emit(comp: _Compiler, subs) -> Node:
        a_c, b_c = subs

        def node(m, C, L, _a=a_c, _b=b_c, _op=pyop, _n=name):
            bud = m.budget
            if bud is not None:
                bud.tick_n(m, 3)
            a = _a(m, C, L)
            b = _b(m, C, L)
            m.metrics.applications += 2
            if type(a) is VInt and type(b) is VInt:
                return VInt(_op(a.value, b.value))
            raise EvalError(f"'{_n}' expects integers")
        return node
    return emit


def _emit_cmp_op(name: str, pyop):
    def emit(comp: _Compiler, subs) -> Node:
        a_c, b_c = subs

        def node(m, C, L, _a=a_c, _b=b_c, _op=pyop, _n=name):
            bud = m.budget
            if bud is not None:
                bud.tick_n(m, 3)
            a = _a(m, C, L)
            b = _b(m, C, L)
            m.metrics.applications += 2
            if type(a) is VInt and type(b) is VInt:
                return TRUE if _op(a.value, b.value) else FALSE
            raise EvalError(f"'{_n}' expects integers")
        return node
    return emit


def _emit_concat(comp: _Compiler, subs) -> Node:
    a_c, b_c = subs

    def node(m, C, L, _a=a_c, _b=b_c):
        bud = m.budget
        if bud is not None:
            bud.tick_n(m, 3)
        a = _a(m, C, L)
        b = _b(m, C, L)
        m.metrics.applications += 2
        if type(a) is VString and type(b) is VString:
            return VString(a.value + b.value)
        raise EvalError("'^' expects strings")
    return node


def _emit_eq(comp: _Compiler, subs) -> Node:
    a_c, b_c = subs

    def node(m, C, L, _a=a_c, _b=b_c):
        bud = m.budget
        if bud is not None:
            bud.tick_n(m, 3)
        a = _a(m, C, L)
        b = _b(m, C, L)
        m.metrics.applications += 2
        return TRUE if eq_values(a, b) else FALSE
    return node


def _emit_not(comp: _Compiler, subs) -> Node:
    (a_c,) = subs

    def node(m, C, L, _a=a_c):
        bud = m.budget
        if bud is not None:
            bud.tick_n(m, 2)
        a = _a(m, C, L)
        m.metrics.applications += 1
        if isinstance(a, VBool):
            return FALSE if a.value else TRUE
        raise EvalError("not expects a bool")
    return node


def _emit_this_year(comp: _Compiler, subs) -> Node:
    (a_c,) = subs

    def node(m, C, L, _a=a_c):
        bud = m.budget
        if bud is not None:
            bud.tick_n(m, 2)
        _a(m, C, L)
        m.metrics.applications += 1
        return VInt(m.this_year)
    return node


def _emit_size(comp: _Compiler, subs) -> Node:
    (a_c,) = subs

    def node(m, C, L, _a=a_c):
        bud = m.budget
        if bud is not None:
            bud.tick_n(m, 2)
        s = _a(m, C, L)
        m.metrics.applications += 1
        if not isinstance(s, VSet):
            raise EvalError("'size' expects a set")
        return VInt(len(s))
    return node


def _emit_union(comp: _Compiler, subs) -> Node:
    a_c, b_c = subs

    def node(m, C, L, _a=a_c, _b=b_c):
        bud = m.budget
        if bud is not None:
            bud.tick_n(m, 3)
        s1 = _a(m, C, L)
        s2 = _b(m, C, L)
        m.metrics.applications += 2
        if not isinstance(s1, VSet) or not isinstance(s2, VSet):
            raise EvalError("'union' expects a set")
        return m.make_set(s1.elems + s2.elems)
    return node


def _emit_remove(comp: _Compiler, subs) -> Node:
    a_c, b_c = subs

    def node(m, C, L, _a=a_c, _b=b_c):
        bud = m.budget
        if bud is not None:
            bud.tick_n(m, 3)
        s1 = _a(m, C, L)
        s2 = _b(m, C, L)
        m.metrics.applications += 2
        if not isinstance(s1, VSet) or not isinstance(s2, VSet):
            raise EvalError("'remove' expects a set")
        keys = s2.keys
        return m.make_set(
            [e for e in s1.elems if value_key(e) not in keys])
    return node


def _emit_member(comp: _Compiler, subs) -> Node:
    a_c, b_c = subs

    def node(m, C, L, _a=a_c, _b=b_c):
        bud = m.budget
        if bud is not None:
            bud.tick_n(m, 3)
        x = _a(m, C, L)
        s = _b(m, C, L)
        m.metrics.applications += 2
        if not isinstance(s, VSet):
            raise EvalError("'member' expects a set")
        return TRUE if value_key(x) in s.keys else FALSE
    return node


_SPECIALIZABLE: dict[str, tuple[int, Callable]] = {
    "+": (2, _emit_int_op("+", lambda a, b: a + b)),
    "-": (2, _emit_int_op("-", lambda a, b: a - b)),
    "*": (2, _emit_int_op("*", lambda a, b: a * b)),
    "div": (2, _emit_int_op("div", _div)),
    "mod": (2, _emit_int_op("mod", _mod)),
    "<": (2, _emit_cmp_op("<", lambda a, b: a < b)),
    ">": (2, _emit_cmp_op(">", lambda a, b: a > b)),
    "<=": (2, _emit_cmp_op("<=", lambda a, b: a <= b)),
    ">=": (2, _emit_cmp_op(">=", lambda a, b: a >= b)),
    "^": (2, _emit_concat),
    "eq": (2, _emit_eq),
    "not": (1, _emit_not),
    "This_year": (1, _emit_this_year),
    "size": (1, _emit_size),
    "union": (2, _emit_union),
    "remove": (2, _emit_remove),
    "member": (2, _emit_member),
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def compile_term(term: T.Term, env: Env,
                 annotations: "dict | None" = None,
                 fn_memo: "dict | None" = None,
                 params: tuple[str, ...] = ()) -> CompiledProgram:
    """Lower a typechecked term to a :class:`CompiledProgram`.

    ``env`` is the runtime environment the program will run against; its
    free variables are resolved now and pinned in ``deps``.  ``params``
    name the term's parameters, which take slots ``0 .. len(params) - 1``
    and are read like ``let``-bound locals (one tick each, as the literal
    they stand for).  Raises :class:`CompileFallback` when the term
    contains an unsupported construct.
    """
    deps: list = []
    comp = _Compiler(env, annotations, deps, fn_memo)
    entry, nslots = comp.compile_program(term, params)
    return CompiledProgram(term, deps, nslots, entry)


def compile_closure(closure: VClosure,
                    fn_memo: "dict | None" = None
                    ) -> tuple[VCompiledFn, list]:
    """Compile a standalone interpreted closure; returns (fn, deps)."""
    deps: list = []
    comp = _Compiler(closure.env, None, deps, fn_memo)
    return comp.compile_closure(closure), deps


def structural_fallbacks(term: T.Term) -> list[tuple[str, "T.Pos | None"]]:
    """``(reason, pos)`` for every sub-term the compiler cannot lower.

    A static preview of the *structural* :class:`CompileFallback`\\ s
    :func:`compile_term` would raise — properties of the term alone, never
    of the environment — so the lint layer (RP701) can warn about programs
    that will run interpreted without needing a session to compile against.
    The compiler bails on the first such node; this reports all of them.
    """
    out: list[tuple[str, "T.Pos | None"]] = []

    def walk(t: T.Term) -> None:
        if isinstance(t, T.RelObj):
            out.append((
                "relation-object construction (relobj) is not compiled "
                "yet", t.pos))
        elif isinstance(t, T.LetClasses):
            out.append((
                "recursive class definitions (let ... class) are not "
                "compiled yet", t.pos))
        for sub in T.iter_subterms(t):
            walk(sub)

    walk(term)
    return out
