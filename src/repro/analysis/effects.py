"""The generalized effect pass (RP4xx) — eval/latent bits, as a lint pass.

This module is the conservative effect analysis behind both the RP4xx
diagnostics and the paper's optional purity check for viewing functions
(Section 3.1).  Every expression gets two bits:

``eval``
    evaluating the expression may mutate existing state (``update``,
    ``insert``, ``delete``, or an application of a function whose latent
    bit is set);
``latent``
    the expression's *value* may mutate state when applied later (a lambda
    whose body has an effect, or a data structure holding such a function).

On top of the bits, :func:`effect_pass` walks a program and reports:

``RP401`` (error)
    the viewing function of an ``as`` composition may mutate state —
    Section 3.1's "we do not usually regard a function that changes the
    state of an object as a viewing function";
``RP402`` (error)
    same, for the viewing function of a class include clause;
``RP403`` (warning)
    an include *predicate* may mutate state.  Predicates are legal update
    sites under ``pure_views`` (the paper routes updates through ``query``),
    but the ``f_i(L)`` extent computation evaluates predicates a
    data-dependent number of times in an unspecified order, so their side
    effects are observably reordered or repeated.

``Session(pure_views=True)`` enforcement is the same traversal with RP401
and RP402 promoted to exceptions; see :func:`check_views_pure`.  Unknown
*parameters* are assumed pure: the analysis checks what a view's own code
can do, not what callers inject (DESIGN.md records this direction).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..core import terms as T
from ..core.terms import free_vars
from ..errors import TypeInferenceError
from .diagnostics import DiagnosticSink

__all__ = ["Effect", "PURE", "PurityEnv", "analyze_effect",
           "expression_is_impure", "effect_pass", "ImpureViewError",
           "check_views_pure", "AS_VIEW_IMPURE_MSG",
           "include_view_impure_msg"]


class Effect(NamedTuple):
    """The two effect bits of an expression."""

    eval: bool    # evaluating it may mutate state
    latent: bool  # its value may mutate state when applied

    def __or__(self, other: "Effect") -> "Effect":  # type: ignore[override]
        return Effect(self.eval or other.eval, self.latent or other.latent)

    @property
    def impure(self) -> bool:
        return self.eval or self.latent


PURE = Effect(False, False)


class PurityEnv:
    """Tracks the latent effect of bound names (session-level bindings)."""

    def __init__(self, impure: set[str] | None = None):
        self._impure: set[str] = set(impure or ())

    def mark(self, name: str, impure: bool) -> None:
        if impure:
            self._impure.add(name)
        else:
            self._impure.discard(name)

    def snapshot(self) -> set[str]:
        return set(self._impure)


def analyze_effect(term: T.Term, latent_names: set[str]) -> Effect:
    """Compute the effect bits of ``term``.

    ``latent_names`` holds the in-scope names whose values may mutate when
    applied.  Names not free in the term cannot matter, so the set is cut
    down with the shared :func:`repro.core.terms.free_vars` up front.
    """
    if latent_names:
        latent_names = latent_names & free_vars(term)
    return _effect(term, latent_names)


def _effect(term: T.Term, latent_names: set[str]) -> Effect:
    if isinstance(term, (T.Update, T.Insert, T.Delete)):
        sub = _join_subterms(term, latent_names)
        return Effect(True, sub.latent)
    if isinstance(term, T.Var):
        return Effect(False, term.name in latent_names)
    if isinstance(term, (T.Const, T.Unit)):
        return PURE
    if isinstance(term, T.Lam):
        body = _effect(term.body, latent_names - {term.param})
        # applying the lambda runs the body; the result may itself carry a
        # latent effect (currying) — one latent bit covers both.
        return Effect(False, body.eval or body.latent)
    if isinstance(term, T.App):
        fn = _effect(term.fn, latent_names)
        arg = _effect(term.arg, latent_names)
        return Effect(fn.eval or arg.eval or fn.latent,
                      fn.latent or arg.latent)
    if isinstance(term, T.Let):
        bound = _effect(term.bound, latent_names)
        names = set(latent_names)
        if bound.latent:
            names.add(term.name)
        else:
            names.discard(term.name)
        body = _effect(term.body, names)
        return Effect(bound.eval or body.eval, body.latent)
    if isinstance(term, T.Fix):
        # assume the recursive occurrence pure; if the body then shows an
        # effect, the conservative answer is already "impure".
        body = _effect(term.body, latent_names - {term.name})
        return body
    if isinstance(term, T.Query):
        fn = _effect(term.fn, latent_names)
        obj = _effect(term.obj, latent_names)
        # query applies both the query function and the viewing function
        return Effect(fn.eval or obj.eval or fn.latent or obj.latent,
                      fn.latent or obj.latent)
    if isinstance(term, T.CQuery):
        fn = _effect(term.fn, latent_names)
        cls = _effect(term.cls, latent_names)
        return Effect(fn.eval or cls.eval or fn.latent or cls.latent,
                      fn.latent or cls.latent)
    # structural nodes (records, sets, if, dot, views, classes...):
    # evaluating evaluates the children; the value holds the children's
    # values, so latent bits propagate through.
    return _join_subterms(term, latent_names)


def _join_subterms(term: T.Term, latent_names: set[str]) -> Effect:
    out = PURE
    for sub in T.iter_subterms(term):
        out = out | _effect(sub, latent_names)
    return out


def expression_is_impure(term: T.Term, env: PurityEnv | None = None) -> bool:
    """Whether the expression has any effect (either bit set)."""
    env = env or PurityEnv()
    return analyze_effect(term, env.snapshot()).impure


# ---------------------------------------------------------------------------
# The lint pass
# ---------------------------------------------------------------------------

AS_VIEW_IMPURE_MSG = (
    "the viewing function of an 'as' composition may update state; "
    "viewing functions must be pure (Section 3.1)")


def include_view_impure_msg(i: int) -> str:
    return (f"the viewing function of include clause {i} may "
            "update state; viewing functions must be pure "
            "(Section 3.1)")


def _span_of(term: T.Term,
             fallback: Optional[T.Term] = None) -> Optional[T.Pos]:
    span = getattr(term, "pos", None)
    if span is None and fallback is not None:
        span = getattr(fallback, "pos", None)
    return span


def effect_pass(term: T.Term, sink: DiagnosticSink,
                latent_names: set[str] | None = None) -> None:
    """Report impure viewing functions and predicates (RP401/RP402/RP403).

    ``latent_names``: in-scope names whose values may mutate when applied
    (a session's :class:`PurityEnv` snapshot).
    """
    _walk_effects(term, set(latent_names or ()), sink)


class ImpureViewError(TypeInferenceError):
    """A viewing function may mutate state (rejected under pure_views)."""


def check_views_pure(term: T.Term, env: PurityEnv | None = None) -> None:
    """Reject the program if any viewing function may mutate state.

    Checks the view position of every ``as`` composition (rule (vcomp))
    and of every class include clause; ``query`` functions and include
    predicates are exempt.  Runs the RP4xx effect pass and promotes the
    first RP401/RP402 finding to an :class:`ImpureViewError`.
    """
    env = env or PurityEnv()
    sink = DiagnosticSink()
    effect_pass(term, sink, env.snapshot())
    for diag in sink:
        if diag.code in ("RP401", "RP402"):
            raise ImpureViewError(diag.message).with_span(diag.span)


def _walk_effects(term: T.Term, latent_names: set[str],
                  sink: DiagnosticSink) -> None:
    if isinstance(term, T.AsView):
        if _effect(term.view, latent_names & free_vars(term.view)).impure:
            sink.emit("RP401", AS_VIEW_IMPURE_MSG,
                      _span_of(term.view, term))
    if isinstance(term, T.ClassExpr):
        for i, clause in enumerate(term.includes, start=1):
            view_latent = latent_names & free_vars(clause.view)
            if _effect(clause.view, view_latent).impure:
                sink.emit("RP402", include_view_impure_msg(i),
                          _span_of(clause.view, term))
            pred_latent = latent_names & free_vars(clause.pred)
            if _effect(clause.pred, pred_latent).impure:
                sink.emit(
                    "RP403",
                    f"the predicate of include clause {i} may mutate "
                    "state; extent computation evaluates predicates a "
                    "data-dependent number of times in an unspecified "
                    "order, so the effect is reordered or repeated",
                    _span_of(clause.pred, term))
    if isinstance(term, T.LetClasses):
        for _name, cls in term.bindings:
            _walk_effects(cls, latent_names, sink)
        _walk_effects(term.body, latent_names, sink)
        return
    if isinstance(term, T.Let):
        _walk_effects(term.bound, latent_names, sink)
        bound = _effect(term.bound, latent_names & free_vars(term.bound))
        names = set(latent_names)
        if bound.latent:
            names.add(term.name)
        else:
            names.discard(term.name)
        _walk_effects(term.body, names, sink)
        return
    if isinstance(term, T.Lam):
        _walk_effects(term.body, latent_names - {term.param}, sink)
        return
    if isinstance(term, T.Fix):
        _walk_effects(term.body, latent_names - {term.name}, sink)
        return
    for sub in T.iter_subterms(term):
        _walk_effects(sub, latent_names, sink)
