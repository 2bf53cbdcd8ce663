"""Interprocedural footprint analysis (RP5xx) — the region layer.

The sharing pass (:mod:`repro.analysis.sharing`) answers a *local*
question: which L-values can one function's result alias?  This module
answers the *global* one a concurrency report needs: which named state
can a whole program touch?  A program's **footprint** is a conservative
summary

* ``reads``  — the global names whose reachable state the program may
  *read* (every free name the program mentions resolves here; reading
  can only ever reach state reachable from a mentioned name, or state
  the program allocated itself);
* ``writes`` — the global names whose reachable state the program may
  *write* (``update`` targets, ``insert``/``delete`` classes), or ``None``
  for ⊤ when the analysis cannot bound the write set;
* ``extent_writes`` — the subset of ``writes`` that are class-extent
  replacements (``insert``/``delete``).

Names are *roots*: the summary is purely syntactic and cacheable per
source text.  :func:`resolve_footprint` resolves the roots against a
live session (every store location and class extent reachable from each
root); the workload analysis (:mod:`repro.analysis.workload`) uses the
resolution for its alias edges, and an unresolvable root or a ⊤ write
set resolves to ⊤, so imprecision only ever adds conflicts.  The
footprint is analysis output — a lint report and a workload report.
The server does not read it: every transaction there runs dynamic OCC.

Aliasing is tracked by a small abstract interpreter: each expression's
abstract value is the set of global roots it may alias, plus — when the
expression is a syntactic lambda — the lambda itself, so applications of
statically-known functions are analyzed interprocedurally (bounded
depth).  Applications of *unknown* functions reuse the effect bits of
:mod:`repro.analysis.effects`: a call that is provably pure writes
nothing; one that may mutate state widens the footprint to ⊤.

Soundness is pinned dynamically: :class:`SharingTracer` is a store
tracker that records the locations and extents a program *actually*
touched, and the hypothesis harness (``tests/analysis/
test_regions_soundness.py``) asserts ``static footprint ⊇ observed
footprint`` over randomized programs and interleavings.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..core import terms as T
from ..core.terms import free_vars
from .diagnostics import DiagnosticSink
from .effects import _effect

__all__ = [
    "FootprintSummary", "term_footprint", "program_footprint",
    "regions_pass", "SharingTracer", "reachable_state",
    "ResolvedFootprint", "resolve_footprint",
    "value_may_mutate", "class_extent_is_pure",
]

#: Bound on interprocedural inlining of statically-known lambdas.
_MAX_DEPTH = 12
#: Bound on total nodes visited before the analysis gives up with ⊤.
_MAX_VISITS = 20_000


class FootprintSummary:
    """The conservative read/write footprint of one program, as roots."""

    __slots__ = ("reads", "writes", "extent_writes", "reasons")

    def __init__(self, reads: frozenset, writes: Optional[frozenset],
                 extent_writes: frozenset = frozenset(),
                 reasons: tuple = ()):
        self.reads = frozenset(reads)
        self.writes = None if writes is None else frozenset(writes)
        self.extent_writes = frozenset(extent_writes)
        self.reasons = tuple(reasons)

    @property
    def bounded(self) -> bool:
        """False when the write set is ⊤."""
        return self.writes is not None

    def describe(self) -> str:
        """One-line rendering (the RP501 message)."""
        if self.writes is None:
            return "footprint: reads %s; writes ⊤" % _fmt(self.reads)
        out = "footprint: reads %s; writes %s" % (
            _fmt(self.reads), _fmt(self.writes))
        if self.extent_writes:
            out += "; extent writes %s" % _fmt(self.extent_writes)
        return out

    def render(self) -> str:
        """Multi-line rendering (``Session.explain_footprint``)."""
        lines = ["reads:         " + (_names(self.reads) or "(nothing)")]
        if self.writes is None:
            lines.append("writes:        ⊤ (not statically bounded)")
            for reason in self.reasons:
                lines.append("  - " + reason)
        else:
            lines.append("writes:        "
                         + (_names(self.writes) or "(nothing)"))
            lines.append("extent writes: "
                         + (_names(self.extent_writes) or "(nothing)"))
        return "\n".join(lines)


def _names(names) -> str:
    return ", ".join(sorted(names))


def _fmt(names) -> str:
    return "{" + _names(names) + "}"


class _Top(Exception):
    """Internal: the write set widened to ⊤; unwind to the entry point."""


class _AVal(NamedTuple):
    """Abstract value: the global roots a value may alias, plus the
    lambda itself when statically known (for precise application)."""

    roots: Optional[frozenset]  # None = unknown (aliases anything)
    lam: Optional[tuple]        # (T.Lam, aenv, latent) or None


_EMPTY = _AVal(frozenset(), None)
_UNKNOWN = _AVal(None, None)


def _join_roots(a: Optional[frozenset],
                b: Optional[frozenset]) -> Optional[frozenset]:
    if a is None or b is None:
        return None
    return a | b


def _mark(latent: set, name: str, is_latent: bool) -> set:
    out = set(latent)
    if is_latent:
        out.add(name)
    else:
        out.discard(name)
    return out


class _Analysis:
    """Mutable state threaded through one footprint computation."""

    def __init__(self, latent_names):
        self.reads: set[str] = set()
        self.writes: Optional[set[str]] = set()
        self.extent_writes: set[str] = set()
        self.reasons: list[str] = []
        self.visits = 0
        self.base_latent = set(latent_names or ())

    def top(self, reason: str):
        if reason not in self.reasons:
            self.reasons.append(reason)
        raise _Top()

    def add_writes(self, roots: frozenset, extent: bool = False) -> None:
        if self.writes is not None:
            self.writes |= roots
        if extent:
            self.extent_writes |= roots

    def summary(self) -> FootprintSummary:
        return FootprintSummary(
            frozenset(self.reads),
            None if self.writes is None else frozenset(self.writes),
            frozenset(self.extent_writes), tuple(self.reasons))


def _read_roots(term: T.Term, aenv: dict) -> set[str]:
    """The global roots a term's free names resolve to.

    A declaration-bound local resolves through its abstract value: the
    state it aliases is reachable from the globals its own definition
    mentioned (collected when that definition was analyzed), so an
    unknown-rooted local adds nothing new.
    """
    out: set[str] = set()
    for name in free_vars(term):
        av = aenv.get(name)
        if av is None:
            out.add(name)
        elif av.roots is not None:
            out |= av.roots
    return out


def _walk(term: T.Term, aenv: dict, latent: set, depth: int,
          ana: _Analysis) -> _AVal:
    """Abstractly evaluate ``term``; records writes into ``ana``.

    ``aenv`` maps in-scope names to abstract values; ``latent`` is the
    in-scope name set whose values may mutate when applied (the local
    refinement of the session's purity snapshot).
    """
    ana.visits += 1
    if ana.visits > _MAX_VISITS:
        ana.top("analysis budget exceeded")

    if isinstance(term, (T.Const, T.Unit)):
        return _EMPTY
    if isinstance(term, T.Var):
        av = aenv.get(term.name)
        return av if av is not None else _AVal(frozenset([term.name]), None)
    if isinstance(term, T.Lam):
        # A closure aliases whatever its free variables alias.
        roots: Optional[frozenset] = frozenset()
        for name in free_vars(term):
            av = aenv.get(name)
            roots = _join_roots(
                roots, frozenset([name]) if av is None else av.roots)
        return _AVal(roots, (term, dict(aenv), frozenset(latent)))
    if isinstance(term, T.App):
        fa = _walk(term.fn, aenv, latent, depth, ana)
        aa = _walk(term.arg, aenv, latent, depth, ana)
        if fa.lam is not None and depth < _MAX_DEPTH:
            lam_t, lam_env, lam_lat = fa.lam
            env2 = dict(lam_env)
            env2[lam_t.param] = aa
            arg_latent = _effect(term.arg, frozenset(latent)).latent
            lat2 = _mark(set(lam_lat), lam_t.param, arg_latent)
            return _walk(lam_t.body, env2, lat2, depth + 1, ana)
        if _effect(term, frozenset(latent)).eval:
            ana.top("an applied function is not statically known and "
                    "may mutate state")
        return _UNKNOWN
    if isinstance(term, T.Let):
        bv = _walk(term.bound, aenv, latent, depth, ana)
        is_latent = _effect(term.bound, frozenset(latent)).latent
        env2 = dict(aenv)
        env2[term.name] = bv
        return _walk(term.body, env2, _mark(latent, term.name, is_latent),
                     depth, ana)
    if isinstance(term, T.Fix):
        # The recursive occurrence is an unknown value; a recursive call
        # inside the body falls back to the effect check above.
        is_latent = _effect(term, frozenset(latent)).latent
        env2 = dict(aenv)
        env2[term.name] = _UNKNOWN
        return _walk(term.body, env2, _mark(latent, term.name, is_latent),
                     depth, ana)
    if isinstance(term, T.If):
        _walk(term.cond, aenv, latent, depth, ana)
        tv = _walk(term.then, aenv, latent, depth, ana)
        ev = _walk(term.else_, aenv, latent, depth, ana)
        return _AVal(_join_roots(tv.roots, ev.roots), None)
    if isinstance(term, T.RecordExpr):
        roots: Optional[frozenset] = frozenset()
        for f in term.fields:
            inner = f.expr.expr if isinstance(f.expr, T.Extract) else f.expr
            fv = _walk(inner, aenv, latent, depth, ana)
            roots = _join_roots(roots, fv.roots)
        return _AVal(roots, None)
    if isinstance(term, (T.Dot, T.Extract, T.Ascribe, T.IDView)):
        sub = _walk(term.expr, aenv, latent, depth, ana)
        return _AVal(sub.roots, None)
    if isinstance(term, T.Update):
        tv = _walk(term.expr, aenv, latent, depth, ana)
        _walk(term.value, aenv, latent, depth, ana)
        if tv.roots is None:
            ana.top("an update target is not resolvable to named roots")
        ana.add_writes(tv.roots)
        return _EMPTY
    if isinstance(term, (T.SetExpr, T.Prod, T.Fuse)):
        subs = (term.elems if isinstance(term, T.SetExpr)
                else term.sets if isinstance(term, T.Prod) else term.objs)
        roots = frozenset()
        for e in subs:
            roots = _join_roots(roots,
                                _walk(e, aenv, latent, depth, ana).roots)
        return _AVal(roots, None)
    if isinstance(term, T.AsView):
        ov = _walk(term.obj, aenv, latent, depth, ana)
        vv = _walk(term.view, aenv, latent, depth, ana)
        return _AVal(_join_roots(ov.roots, vv.roots), None)
    if isinstance(term, (T.Query, T.CQuery)):
        return _walk_query(term, aenv, latent, depth, ana)
    if isinstance(term, T.RelObj):
        roots = frozenset()
        for _label, e in term.fields:
            roots = _join_roots(roots,
                                _walk(e, aenv, latent, depth, ana).roots)
        return _AVal(roots, None)
    if isinstance(term, T.ClassExpr):
        roots = _walk(term.own, aenv, latent, depth, ana).roots
        for clause in term.includes:
            for s in clause.sources:
                roots = _join_roots(
                    roots, _walk(s, aenv, latent, depth, ana).roots)
            roots = _join_roots(
                roots, _walk(clause.view, aenv, latent, depth, ana).roots)
            roots = _join_roots(
                roots, _walk(clause.pred, aenv, latent, depth, ana).roots)
        return _AVal(roots, None)
    if isinstance(term, (T.Insert, T.Delete)):
        _walk(term.obj, aenv, latent, depth, ana)
        cv = _walk(term.cls, aenv, latent, depth, ana)
        if cv.roots is None:
            ana.top("an insert/delete target class is not resolvable "
                    "to named roots")
        ana.add_writes(cv.roots, extent=True)
        return _EMPTY
    if isinstance(term, T.LetClasses):
        env2 = dict(aenv)
        lat2 = set(latent)
        group_roots: Optional[frozenset] = frozenset()
        for name, _cls in term.bindings:
            env2[name] = _EMPTY
        avals = []
        for name, cls_t in term.bindings:
            av = _walk(cls_t, env2, lat2, depth, ana)
            group_roots = _join_roots(group_roots, av.roots)
            lat2 = _mark(lat2, name,
                         _effect(cls_t, frozenset(lat2)).latent)
            avals.append(name)
        for name in avals:
            env2[name] = _AVal(group_roots, None)
        return _walk(term.body, env2, lat2, depth, ana)

    raise AssertionError(
        f"unknown term node {type(term).__name__}")  # pragma: no cover


def _walk_query(term, aenv: dict, latent: set, depth: int,
                ana: _Analysis) -> _AVal:
    """``query``/``c-query``: the viewing functions (and, for classes,
    the include predicates) run too, so a latent target widens to ⊤."""
    target = term.obj if isinstance(term, T.Query) else term.cls
    tv = _walk(target, aenv, latent, depth, ana)
    fa = _walk(term.fn, aenv, latent, depth, ana)
    if _effect(target, frozenset(latent)).latent:
        ana.top("the queried object/class carries functions that may "
                "mutate state" if isinstance(term, T.Query) else
                "the queried class carries include clauses that may "
                "mutate state")
    if fa.lam is not None and depth < _MAX_DEPTH:
        lam_t, lam_env, lam_lat = fa.lam
        env2 = dict(lam_env)
        # The materialized view (or extent set) may alias anything the
        # target expression aliases.
        env2[lam_t.param] = _AVal(tv.roots, None)
        lat2 = _mark(set(lam_lat), lam_t.param, False)
        return _walk(lam_t.body, env2, lat2, depth + 1, ana)
    if _effect(term.fn, frozenset(latent)).latent:
        ana.top("a query function is not statically known and may "
                "mutate state")
    return _UNKNOWN


def term_footprint(term: T.Term,
                   latent_names: set[str] | None = None) -> FootprintSummary:
    """The footprint of a single expression (see :func:`program_footprint`
    for whole programs with declarations)."""
    ana = _Analysis(latent_names)
    ana.reads |= _read_roots(term, {})
    try:
        _walk(term, {}, set(ana.base_latent), 0, ana)
    except _Top:
        ana.writes = None
    return ana.summary()


def program_footprint(src: str,
                      latent_names: set[str] | None = None
                      ) -> FootprintSummary:
    """Parse ``src`` as a program and compute its combined footprint.

    Declarations thread an alias environment: ``val x = joe`` makes later
    reads and writes through ``x`` resolve to the root ``joe``, and a bare
    expression statement binds ``it`` exactly as ``Session.exec`` does.
    A program that fails to parse gets the ⊤ footprint (it would fail at
    execution anyway).
    """
    from ..objects.algebra import mk_lam
    from ..syntax import parser as P

    ana = _Analysis(latent_names)
    try:
        decls = P.parse_program(src)
    except Exception:
        ana.writes = None
        ana.reasons.append("program does not parse")
        return ana.summary()

    aenv: dict[str, _AVal] = {}
    latent = set(ana.base_latent)

    def one(name: Optional[str], term: T.Term) -> None:
        nonlocal latent
        ana.reads |= _read_roots(term, aenv)
        try:
            av = _walk(term, aenv, latent, 0, ana)
        except _Top:
            ana.writes = None
            av = _UNKNOWN
        bound = name if name is not None else "it"
        aenv[bound] = av
        latent = _mark(latent, bound,
                       _effect(term, frozenset(latent)).latent)

    for decl in decls:
        if isinstance(decl, P.ValDecl):
            one(decl.name, decl.expr)
        elif isinstance(decl, P.FunDecl):
            for b in decl.bindings:
                one(b.name, T.Fix(b.name, mk_lam(b.params, b.body)))
        elif isinstance(decl, P.RecClassDecl):
            # Pre-bind the group, then give every member the union of
            # the group's constituent roots (recursion is only through
            # include sources, so the union covers each member).
            for name, _cls in decl.bindings:
                aenv[name] = _EMPTY
            group_roots: Optional[frozenset] = frozenset()
            for name, cls_t in decl.bindings:
                ana.reads |= _read_roots(cls_t, aenv)
                try:
                    av = _walk(cls_t, aenv, latent, 0, ana)
                except _Top:
                    ana.writes = None
                    av = _UNKNOWN
                group_roots = _join_roots(group_roots, av.roots)
                latent = _mark(latent, name,
                               _effect(cls_t, frozenset(latent)).latent)
            for name, _cls in decl.bindings:
                aenv[name] = _AVal(group_roots, None)
        else:
            assert isinstance(decl, P.ExprDecl)
            one(None, decl.expr)
    return ana.summary()


# ---------------------------------------------------------------------------
# The lint pass (RP501/RP502)
# ---------------------------------------------------------------------------

def regions_pass(term: T.Term, sink: DiagnosticSink,
                 latent_names: set[str] | None = None) -> None:
    """Report each top-level term's footprint (info severity).

    Not part of the default pass list — footprints are a report, not a
    finding — and selected by ``repro-lint --regions``.
    """
    fp = term_footprint(term, latent_names)
    span = getattr(term, "pos", None)
    if fp.writes is None:
        sink.emit(
            "RP502",
            "footprint is not statically bounded: "
            + "; ".join(fp.reasons),
            span,
            notes=("workload reports treat this program as conflicting "
                   "with every other program",))
    else:
        sink.emit("RP501", fp.describe(), span)


# ---------------------------------------------------------------------------
# The dynamic side: tracing actual footprints, resolving static ones
# ---------------------------------------------------------------------------

class SharingTracer:
    """A store tracker recording the locations/extents actually touched.

    Installable as ``store.tracker``; purely observational (never raises,
    never blocks a write).  The soundness harness runs a program under a
    tracer and checks the observed sets against the static footprint.
    """

    __slots__ = ("read_locations", "written_locations",
                 "read_extents", "written_extents")

    def __init__(self) -> None:
        self.read_locations: set[int] = set()
        self.written_locations: set[int] = set()
        self.read_extents: set[int] = set()
        self.written_extents: set[int] = set()

    def did_read(self, loc) -> None:
        self.read_locations.add(loc.id)

    def will_write(self, loc) -> None:
        self.written_locations.add(loc.id)

    def did_read_extent(self, cls) -> None:
        self.read_extents.add(cls.oid)

    def will_write_extent(self, cls) -> None:
        self.written_extents.add(cls.oid)


def _env_get(env, name):
    while env is not None:
        if name in env.frame:
            return env.frame.get(name)
        env = env.parent
    return None


def reachable_state(value) -> tuple[set[int], set[int]]:
    """All store state reachable from a runtime value.

    Returns ``(location ids, class oids)`` — the value graph is walked
    through record cells, set elements, objects (raw *and* viewing
    function), classes (own extent, include sources, views, predicates)
    and closure environments (captured free variables).
    """
    from ..eval.store import Location
    from ..eval.values import (VBuiltin, VClass, VClosure, VCompiledFn,
                               VLval, VObject, VRecord, VSet)

    locs: set[int] = set()
    exts: set[int] = set()
    seen: set[int] = set()
    stack = [value]
    while stack:
        v = stack.pop()
        if v is None or id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, Location):
            locs.add(v.id)
            stack.append(v.value)
        elif isinstance(v, VRecord):
            stack.extend(v.cells.values())
        elif isinstance(v, VSet):
            stack.extend(v.elems)
        elif isinstance(v, VObject):
            stack.append(v.raw)
            stack.append(v.view)
        elif isinstance(v, VClass):
            exts.add(v.oid)
            stack.append(v.own)
            for inc in v.includes:
                stack.extend(inc.sources)
                stack.append(inc.view)
                stack.append(inc.pred)
        elif isinstance(v, VClosure):
            for name in free_vars(v.body) - {v.param}:
                stack.append(_env_get(v.env, name))
        elif isinstance(v, VCompiledFn):
            # A compiled closure reaches exactly what its free bindings
            # reach (captures + embedded globals) — same walk as a
            # VClosure, through the compiler's analysis record.
            for _name, bound in v.free_bindings():
                stack.append(bound)
            stack.extend(v.args)
        elif isinstance(v, VBuiltin):
            stack.extend(v.args)
        elif isinstance(v, VLval):
            stack.append(v.location)
    return locs, exts


class ResolvedFootprint:
    """A footprint resolved to concrete state atoms.

    Atoms are ``("loc", location id)`` and ``("ext", class oid)``;
    ``reads`` always includes ``writes``.  An *empty* footprint overlaps
    nothing.
    """

    __slots__ = ("reads", "writes")

    def __init__(self, reads: frozenset, writes: frozenset):
        self.reads = reads
        self.writes = writes

    def overlaps(self, other: Optional["ResolvedFootprint"]) -> bool:
        """Do the two footprints conflict?  ``None`` (⊤) overlaps all."""
        if other is None:
            return True
        return bool(self.writes & (other.reads | other.writes)
                    or other.writes & self.reads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResolvedFootprint(reads={len(self.reads)}, "
                f"writes={len(self.writes)})")


def resolve_footprint(summary: Optional[FootprintSummary],
                      session) -> Optional[ResolvedFootprint]:
    """Resolve a static summary against a live session's heap.

    Returns ``None`` (⊤) when the summary is missing, its write set is
    unbounded, or any root name is not currently bound.  The result is a
    snapshot of reachability at the time of the call.
    """
    if summary is None or summary.writes is None:
        return None
    frame = session._global_frame
    atoms: dict = {}

    def resolve(names) -> Optional[set]:
        out: set = set()
        for name in names:
            got = atoms.get(name)
            if got is None:
                value = frame.get(name)
                if value is None:
                    return None  # unbound: don't know
                locs, exts = reachable_state(value)
                got = {("loc", i) for i in locs}
                got.update(("ext", o) for o in exts)
                atoms[name] = got
            out |= got
        return out

    writes = resolve(summary.writes)
    if writes is None:
        return None
    reads = resolve(summary.reads)
    if reads is None:
        return None
    return ResolvedFootprint(frozenset(reads | writes), frozenset(writes))


# ---------------------------------------------------------------------------
# Value-level purity (the dead-include extent consumer)
# ---------------------------------------------------------------------------

def value_may_mutate(value, _seen: set[int] | None = None) -> bool:
    """May using this *value* (applying functions reachable from it)
    mutate existing state?  Conservative: unknown shapes answer True."""
    from ..eval.store import Location
    from ..eval.values import (VBuiltin, VClass, VClosure, VCompiledFn,
                               VLval, VObject, VRecord, VSet)

    seen = _seen if _seen is not None else set()
    if value is None or id(value) in seen:
        return False  # cycles: optimistic here, the first visit decides
    seen.add(id(value))
    if isinstance(value, VClosure):
        names = free_vars(value.body) - {value.param}
        latent = {n for n in names
                  if value_may_mutate(_env_get(value.env, n), seen)}
        eff = _effect(value.body, latent)
        return eff.eval or eff.latent
    if isinstance(value, VCompiledFn):
        # Same analysis as a VClosure, over the compiled body and the
        # free bindings recorded by the compiler.  A compiled function
        # without an analysis record is treated conservatively.
        if value.source is None:
            return True
        latent = {n for n, bound in value.free_bindings()
                  if value_may_mutate(bound, seen)}
        eff = _effect(value.source[0], latent)
        return eff.eval or eff.latent
    if isinstance(value, VBuiltin):
        return any(value_may_mutate(a, seen) for a in value.args)
    if isinstance(value, VRecord):
        return any(value_may_mutate(c, seen) for c in value.cells.values())
    if isinstance(value, Location):
        return value_may_mutate(value.value, seen)
    if isinstance(value, VLval):
        return value_may_mutate(value.location, seen)
    if isinstance(value, VSet):
        return any(value_may_mutate(e, seen) for e in value.elems)
    if isinstance(value, VObject):
        return (value_may_mutate(value.view, seen)
                or value_may_mutate(value.raw, seen))
    if isinstance(value, VClass):
        return not class_extent_is_pure(value, {}, seen)
    return False


def class_extent_is_pure(cls, memo: dict, _seen: set[int] | None = None
                         ) -> bool:
    """Does computing this class's extent provably run no mutating code?

    Extent computation applies include *predicates* (views compose
    lazily), recursively through the include sources; all of them must
    be provably pure.  ``memo`` caches per-call answers and serves as the
    cycle guard for recursive class groups.
    """
    key = id(cls)
    if key in memo:
        return memo[key]
    memo[key] = True  # optimistic while visiting (recursive groups)
    ok = True
    for inc in cls.includes:
        if value_may_mutate(inc.pred, _seen):
            ok = False
            break
        if any(not class_extent_is_pure(s, memo, _seen)
               for s in inc.sources):
            ok = False
            break
    memo[key] = ok
    return ok
