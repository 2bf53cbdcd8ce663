"""The compile engine: program validity, fallbacks, statistics.

A :class:`CompileEngine` sits between the session and the compiler.  It
keeps no cache of its own: each program lives with the statement it was
compiled for — an entry of the session's statement cache
(:mod:`repro.lang.statements`), or a prepared query — and goes when that
entry is evicted.  Before every run the engine re-validates the program
against its recorded global dependencies, so a program that embedded
``hom`` or an inlined prelude closure is dropped and recompiled the
moment the session rebinds that name, mirroring the materialized-view
cache's identity-based invalidation.

Structural fallbacks (the term contains ``relobj``/``let ... class``) are
kept with the statement too, so a program that cannot compile pays the
compile attempt only once; environment-dependent fallbacks (an unbound
name) are re-attempted, since a later binding can make the program
compilable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..eval.values import Env, Value
from .compiler import CompileFallback, CompiledProgram, compile_term

__all__ = ["CompileEngine", "CompileStats", "CompileDecision"]


@dataclass
class CompileStats:
    """Counters surfaced through ``Session.compile_stats`` and the server.

    ``programs_compiled`` counts successful lowerings, ``fallbacks``
    counts programs handed back to the interpreter (with a reason),
    ``cache_hits`` counts runs that found a statement's still-valid
    program (a run the query planner then serves counts too: the session
    decides every statement's program first), ``invalidations`` counts
    programs dropped because a name they were compiled against was
    rebound, and ``compiled_runs`` counts runs of a compiled program.
    """

    programs_compiled: int = 0
    fallbacks: int = 0
    cache_hits: int = 0
    invalidations: int = 0
    compiled_runs: int = 0

    def snapshot(self) -> dict:
        return {
            "programs_compiled": self.programs_compiled,
            "fallbacks": self.fallbacks,
            "cache_hits": self.cache_hits,
            "invalidations": self.invalidations,
            "compiled_runs": self.compiled_runs,
        }


class CompileDecision:
    """The engine's verdict for one term: a program, or a reason why not."""

    __slots__ = ("program", "reason")

    def __init__(self, program: "CompiledProgram | None", reason: str | None):
        self.program = program
        self.reason = reason

    @property
    def compiled(self) -> bool:
        return self.program is not None

    def render(self) -> str:
        if self.program is not None:
            return "execution: compiled"
        return f"execution: interpreted — {self.reason}"


class _Fallback:
    """A cached structural fallback: this term never compiles."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


class CompileEngine:
    """Compiles and validates the programs of one session.

    A *statement* is anything with ``term``, ``annotations``, ``params``
    and a writable ``program`` slot (:class:`repro.lang.statements.
    Statement`, :class:`repro.lang.api.PreparedQuery`); the engine keeps
    the statement's program, or its structural fallback, in that slot.
    """

    def __init__(self) -> None:
        #: Compiled-closure memo shared across programs, keyed by
        #: ``id(VClosure)`` (entries self-validate by identity).
        self._fn_memo: dict = {}
        self.stats = CompileStats()
        #: The decision for the most recent ``decide`` call;
        #: ``Session.explain_plan`` reads it.
        self.last_decision: "CompileDecision | None" = None

    # -- decisions ---------------------------------------------------------

    def decide(self, stmt, env: Env) -> CompileDecision:
        """Resolve ``stmt`` to a runnable program or a fallback reason.

        Counts a cache hit only when the statement's program is still
        valid; an invalidated program is recompiled in place.
        """
        cached = stmt.program
        if isinstance(cached, _Fallback):
            decision = CompileDecision(None, cached.reason)
            self.last_decision = decision
            return decision
        if cached is not None:
            if cached.valid():
                self.stats.cache_hits += 1
                decision = CompileDecision(cached, None)
                self.last_decision = decision
                return decision
            self.stats.invalidations += 1
            stmt.program = None
        try:
            program = compile_term(stmt.term, env, stmt.annotations,
                                   self._fn_memo, stmt.params)
        except CompileFallback as fb:
            self.stats.fallbacks += 1
            if fb.structural:
                stmt.program = _Fallback(fb.describe())
            decision = CompileDecision(None, fb.describe())
            self.last_decision = decision
            return decision
        self.stats.programs_compiled += 1
        stmt.program = program
        decision = CompileDecision(program, None)
        self.last_decision = decision
        return decision

    def forget(self, stmt) -> None:
        """Drop the program of a statement whose names were rebound."""
        if isinstance(stmt.program, CompiledProgram):
            self.stats.invalidations += 1
        stmt.program = None

    # -- function values ---------------------------------------------------

    def compiled_predicate(self, closure) -> "Value | None":
        """A compiled equivalent of an interpreted closure, or ``None``.

        Used by the query planner to run filter/map stage functions
        compiled.  A closure's captured environment chains up to the
        session's *mutable* global frame, so the compiled function's
        embedded globals are re-validated here, once per query execution
        (elements then run without any lookup); a stale entry is dropped
        from the memo and recompiled against the current bindings.
        """
        from ..errors import EvalError
        from ..eval.values import VClosure
        from .compiler import compile_closure
        if not isinstance(closure, VClosure):
            return None
        for _attempt in (0, 1):
            try:
                fn, deps = compile_closure(closure, self._fn_memo)
            except CompileFallback:
                return None
            try:
                if all(env.lookup(name) is value
                       for env, name, value in deps):
                    return fn
            except EvalError:
                pass
            # Stale: some embedded global was rebound since compilation.
            self._fn_memo.pop(id(closure), None)
        return None
