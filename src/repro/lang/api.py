"""The public entry point: :class:`Session`.

A session owns one evaluator (machine + store), one typing environment and
one runtime environment, and runs the full pipeline

    parse  ->  type inference  ->  evaluation

on every piece of source.  Programs that fail type inference are never
evaluated, which is what makes Proposition 1 ("well typed programs cannot
go wrong") observable: the test suite checks that every session-evaluated
program either fails *statically* or runs without type-shaped runtime
errors.

Example
-------
>>> from repro import Session
>>> s = Session()
>>> s.bind("joe", 'IDView([Name = "Joe", BirthYear = 1955, '
...                'Salary := 2000, Bonus := 5000])')
>>> s.eval_py('query(fn x => x.Name, joe)')
'Joe'
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable

from ..core import terms as T
from ..core.env import initial_type_env
from ..core.infer import TypeEnv, infer, infer_scheme
from ..core.types import TClass, TVar, Type, TypeScheme
from ..core.unify import occurs_adjust, unify
from ..eval.machine import Machine, Metrics
from ..eval.values import Env, VClass, VSet, Value
from ..syntax import parser as P
from ..syntax.desugar import FunBinding, desugar_fun_group
from ..syntax.pretty import pretty_scheme, pretty_value
from .prelude import PRELUDE_SOURCE
from .pyconv import value_to_python

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.budget import Budget

__all__ = ["Session", "PreparedQuery"]


class Session:
    """An interactive database-programming session.

    Parameters
    ----------
    this_year:
        Value of the ``This_year`` builtin (1994 by default — the paper's
        examples compute ``Age = 39`` for ``BirthYear = 1955``).
    load_prelude:
        Load the derived operations (``map``, ``filter``, ...) on start.
    optimize:
        Route expressions through the :mod:`repro.query` planner
        (secondary indexes, materialized views).  Off by default; the
        planner only ever accelerates pure, recognized query shapes and
        falls back to naive evaluation for everything else, so results
        are identical either way.
    compile:
        ``"auto"`` (default) lowers type-checked expressions to Python
        closures (:mod:`repro.compile`) before running them, caching
        compiled programs by structural fingerprint and falling back to
        the interpreter — with a recorded reason — for constructs the
        compiler does not handle.  ``"off"`` always interprets.  Results,
        store effects, budgets and error behaviour are identical either
        way (the differential suite in ``tests/compile`` pins this).
    """

    def __init__(self, this_year: int = 1994, load_prelude: bool = True,
                 pure_views: bool = False, object_union: str = "choose",
                 optimize: bool = False, compile: str = "auto"):
        from ..analysis.effects import PurityEnv
        if compile not in ("auto", "off"):
            raise ValueError("compile must be 'auto' or 'off'")
        self.compile_mode = compile
        self._compile_engine = None
        self.machine = Machine(this_year, object_union=object_union)
        self.pure_views = pure_views
        self.purity = PurityEnv()
        self.type_env: TypeEnv = initial_type_env()
        self._global_frame: dict[str, Value] = {}
        self.runtime_env: Env = self.machine.base_env(self._global_frame)
        # Reach the globals through the same frame object so bind() mutations
        # are visible to the existing env chain.
        self._global_frame = self.runtime_env.frame
        self.optimize = optimize
        self.planner = None
        self._pristine_names: dict[str, Value] = {}
        if load_prelude:
            self.exec(PRELUDE_SOURCE)
        # The values the structural names hold *right now* — before any
        # user code could rebind them.  The query planner recognizes
        # shapes built from these names and must refuse to plan once a
        # rebinding changes what they mean.
        for _name in ("hom", "union", "eq", "map", "filter"):
            if _name in self._global_frame:
                self._pristine_names[_name] = self._global_frame[_name]

    def _ensure_planner(self):
        if self.planner is None:
            from ..query import QueryEngine
            self.planner = QueryEngine(self, enabled=self.optimize)
        return self.planner

    @property
    def compile_engine(self):
        """The session's :class:`~repro.compile.CompileEngine` (lazy)."""
        if self._compile_engine is None:
            from ..compile import CompileEngine
            self._compile_engine = CompileEngine()
        return self._compile_engine

    @property
    def compile_stats(self) -> dict:
        """Snapshot of the compile engine's counters."""
        if self._compile_engine is None:
            from ..compile import CompileStats
            return CompileStats().snapshot()
        return self._compile_engine.stats.snapshot()

    def _eval_machine(self, term: T.Term,
                      annotations: "dict | None" = None) -> Value:
        """Evaluate on the machine, compiled when the engine can lower it."""
        if self.compile_mode != "off":
            result = self.compile_engine.execute(
                self.machine, term, self.runtime_env, annotations)
            if result is not None:
                return result
        return self.machine.eval(term, self.runtime_env)

    def _eval_planned(self, term: T.Term,
                      annotations: "dict | None" = None) -> Value:
        """Evaluate through the query planner when optimization is on."""
        if self.optimize:
            return self._ensure_planner().execute(term, self.runtime_env)
        return self._eval_machine(term, annotations)

    def explain_plan(self, src: str) -> str:
        """Render the query plan the optimizer would use for ``src``.

        Works whether or not the session was created with
        ``optimize=True`` (planning is read-only); the expression is
        type-checked but not executed.  The final ``execution:`` line
        reports how the machine runs the expression whenever the planner
        does not take it — ``compiled``, or ``interpreted`` with the
        compiler's fallback reason.
        """
        from ..core.infer import record_type_annotations
        from ..core.limits import deep_recursion
        with deep_recursion():
            term = self.parse(src)
            with record_type_annotations() as annotations:
                infer(term, self.type_env, level=1)
            report = self._ensure_planner().plan(
                term, self.runtime_env).render()
            if self.compile_mode == "off":
                return (report +
                        "\nexecution: interpreted — compilation disabled")
            decision = self.compile_engine.decide(
                term, self.runtime_env, annotations)
            return report + "\n" + decision.render()

    # -- metrics ------------------------------------------------------------

    @property
    def metrics(self) -> Metrics:
        return self.machine.metrics

    # -- the pipeline ---------------------------------------------------

    def parse(self, src: str) -> T.Term:
        return P.parse_expression(src)

    def typeof(self, src: str) -> TypeScheme:
        """Infer the (generalized, value-restricted) type of an expression."""
        from ..core.limits import deep_recursion
        with deep_recursion():
            return infer_scheme(self.parse(src), self.type_env)

    def typeof_str(self, src: str) -> str:
        return pretty_scheme(self.typeof(src))

    def eval_term(self, term: T.Term, *, typecheck: bool = True) -> Value:
        from ..core.infer import record_type_annotations
        from ..core.limits import deep_recursion
        with deep_recursion():
            annotations = None
            if typecheck:
                with record_type_annotations() as annotations:
                    infer(term, self.type_env, level=1)
                if self.pure_views:
                    from ..analysis.effects import check_views_pure
                    check_views_pure(term, self.purity)
            return self._eval_planned(term, annotations)

    def eval(self, src: str) -> Value:
        """Type-check then evaluate an expression; returns the raw value."""
        return self.eval_term(self.parse(src))

    def eval_py(self, src: str):
        """Evaluate and convert the result to plain Python data."""
        return value_to_python(self.eval(src), self.machine)

    def show(self, src: str) -> str:
        """Evaluate and pretty print the result."""
        return pretty_value(self.eval(src))

    # -- bindings ---------------------------------------------------------

    def bind(self, name: str, src_or_term: "str | T.Term") -> TypeScheme:
        """Bind ``name`` to the value of an expression (like ``val``)."""
        from ..core.limits import deep_recursion
        with deep_recursion():
            return self._bind_inner(name, src_or_term)

    def _bind_inner(self, name: str,
                    src_or_term: "str | T.Term") -> TypeScheme:
        term = (self.parse(src_or_term)
                if isinstance(src_or_term, str) else src_or_term)
        scheme = infer_scheme(term, self.type_env)
        from ..analysis.effects import expression_is_impure
        if self.pure_views:
            from ..analysis.effects import check_views_pure
            check_views_pure(term, self.purity)
        value = self.machine.eval(term, self.runtime_env)
        self._install(name, scheme, value)
        self.purity.mark(name, expression_is_impure(term, self.purity))
        return scheme

    def _install(self, name: str, scheme: TypeScheme, value: Value) -> None:
        self.type_env = self.type_env.extend(name, scheme)
        self._global_frame[name] = value

    # -- transactions ---------------------------------------------------

    @contextmanager
    def transaction(self, budget: "Budget | None" = None,
                    on_commit: "Callable[[], None] | None" = None):
        """Execute a block atomically against this session.

        On *any* exception the session is restored exactly as it was:
        bindings, inferred types, purity marks, store contents (mutable
        fields, class extents) and the location-id counter all roll back,
        so a failed multi-declaration program leaves no trace.  Optionally
        enforces a :class:`~repro.runtime.Budget` for the duration;
        transactions nest.

        ``on_commit`` is the concurrency hook: it runs after the block but
        *before* the savepoint commits, and a raise from it (e.g. a
        :class:`~repro.errors.ConflictError` from the server's
        optimistic-concurrency validation) rolls the whole transaction
        back through the same machinery as any other failure.

        >>> s = Session()
        >>> s.exec('val joe = IDView([Name = "Joe", Salary := 2000])')
        >>> try:
        ...     with s.transaction():
        ...         s.exec('query(fn x => update(x, Salary, 9), joe)'
        ...                ' nonsense')
        ... except Exception:
        ...     pass
        >>> s.eval_py('query(fn x => x.Salary, joe)')
        2000
        """
        from ..runtime.transaction import SessionState
        state = SessionState.capture(self)
        store = self.machine.store
        sp = store.savepoint()
        with self._with_budget(budget):
            try:
                yield self
                if on_commit is not None:
                    on_commit()
            except BaseException:
                store.rollback(sp)
                state.restore(self)
                raise
            else:
                store.commit(sp)

    @contextmanager
    def _with_budget(self, budget: "Budget | None"):
        """Install ``budget`` on the machine for the duration (nestable)."""
        if budget is None:
            yield
            return
        previous = self.machine.budget
        self.machine.budget = budget.start(self.machine)
        try:
            yield
        finally:
            self.machine.budget = previous

    def exec(self, src: str, *, atomic: bool = False,
             budget: "Budget | None" = None) -> Value | None:
        """Run a program: ``val``/``fun`` declarations and expressions.

        Returns the value of the last bare expression, if any (also bound
        to ``it``).  With ``atomic=True`` the whole program runs in a
        :meth:`transaction`: a failure in any declaration rolls the
        session back to its pre-``exec`` state.  ``budget`` bounds the
        evaluation effort either way.
        """
        if atomic:
            with self.transaction(budget=budget):
                return self._exec_inner(src)
        with self._with_budget(budget):
            return self._exec_inner(src)

    def _exec_inner(self, src: str) -> Value | None:
        from ..core.limits import deep_recursion
        last: Value | None = None
        with deep_recursion():
            for decl in P.parse_program(src):
                if isinstance(decl, P.ValDecl):
                    self._bind_inner(decl.name, decl.expr)
                elif isinstance(decl, P.FunDecl):
                    self._exec_fun_group(decl.bindings)
                elif isinstance(decl, P.RecClassDecl):
                    self._exec_rec_classes(decl.bindings)
                else:
                    assert isinstance(decl, P.ExprDecl)
                    from ..core.infer import record_type_annotations
                    term = decl.expr
                    with record_type_annotations() as annotations:
                        scheme = infer_scheme(term, self.type_env)
                    if self.pure_views:
                        from ..analysis.effects import check_views_pure
                        check_views_pure(term, self.purity)
                    last = self._eval_planned(term, annotations)
                    self._install("it", scheme, last)
        return last

    def _exec_fun_group(self, bindings: list[FunBinding]) -> None:
        if len(bindings) == 1:
            b = bindings[0]
            from ..objects.algebra import mk_lam
            self.bind(b.name, T.Fix(b.name, mk_lam(b.params, b.body)))
            return
        # Mutual group: evaluate the record encoding once, then bind each
        # name to its field (monomorphic — see syntax.desugar docstring).
        names = [b.name for b in bindings]
        tuple_body = T.RecordExpr(
            [T.RecordField(n, T.Var(n), mutable=False) for n in names])
        term = desugar_fun_group(bindings, tuple_body)
        infer(term, self.type_env, level=1)
        record = self.machine.eval(term, self.runtime_env)
        for n in names:
            # Re-infer each field's type through a projection of the group.
            field_term = T.Dot(term, n)
            field_type = infer(field_term, self.type_env, level=1)
            occurs_adjust(None, field_type, 0)
            from ..eval.values import VRecord
            assert isinstance(record, VRecord)
            self._install(n, TypeScheme.mono(field_type), record.read(n))
        from ..analysis.effects import expression_is_impure
        for b in bindings:
            self.purity.mark(
                b.name,
                expression_is_impure(T.Lam("_g", b.body), self.purity))

    def _exec_rec_classes(
            self, bindings: list[tuple[str, T.ClassExpr]]) -> None:
        from ..classes.recursion import check_class_bindings
        names = [name for name, _ in bindings]
        check_class_bindings(names, bindings)
        # Typing mirrors rule (rec-class), Figure 6, against the session's
        # global environment.
        class_vars = {name: TVar(1) for name in names}
        env2 = self.type_env.extend_many({
            name: TypeScheme.mono(TClass(tv))
            for name, tv in class_vars.items()})
        for name, cls_expr in bindings:
            unify(infer(cls_expr, env2, level=1),
                  TClass(class_vars[name]))
        # Evaluation: create shells, bind them, then fill in order.
        shells = {name: VClass(VSet([]), []) for name in names}
        for name in names:
            self._global_frame[name] = shells[name]
        inner_env = self.runtime_env
        for name, cls_expr in bindings:
            self.machine._fill_class(shells[name], cls_expr, inner_env)
        for name, tv in class_vars.items():
            t: Type = TClass(tv)
            occurs_adjust(None, t, 0)
            self.type_env = self.type_env.extend(name, TypeScheme.mono(t))

    def lint(self, src: str, filename: str = "<session>"):
        """Run the static diagnostics engine over a program.

        Parses, type-checks against this session's environment, and runs
        every analysis pass (sharing/escape, view-update safety, dead
        code, effects) with the session's purity knowledge.  Nothing is
        evaluated and the session is not modified.  Returns a
        :class:`repro.analysis.LintResult`.
        """
        from ..analysis import lint_source
        return lint_source(src, filename, type_env=self.type_env,
                           latent_names=self.purity.snapshot())

    def explain_footprint(self, src: str) -> str:
        """Render the conservative static footprint of a program.

        The footprint (:mod:`repro.analysis.regions`) is the set of
        session-bound names whose reachable state the program may read
        or write — what :meth:`explain_workload` builds its conflict
        graph from.  ``writes: ⊤`` means the analysis could not bound
        the writes, so the program conflicts with every other one.
        Nothing is evaluated.
        """
        from ..analysis.regions import program_footprint
        return program_footprint(src, self.purity.snapshot()).render()

    def explain_workload(self, programs: dict, shards: int | None = None
                         ) -> str:
        """Render the static conflict graph of a workload of named
        programs — and, with ``shards``, the derived shard partition.

        ``programs`` maps program names to sources.  The graph is built
        *against this session*: footprint roots are resolved to live
        heap state, so name-disjoint programs whose roots reach shared
        objects (a class extent containing a named object) are still
        connected, and the partition keeps them in one shard.  Anomaly
        findings (RP6xx) are appended.  Nothing is evaluated.
        """
        from ..analysis.workload import (build_conflict_graph,
                                         render_conflict_graph,
                                         workload_anomalies)
        graph = build_conflict_graph(programs, session=self)
        parts = [render_conflict_graph(graph)]
        anomalies = workload_anomalies(graph).diagnostics
        if anomalies:
            parts.append("\n".join(
                f"{d.code} {d.severity.value}: {d.message}"
                for d in anomalies))
        if shards is not None:
            from ..analysis.partition import (partition_workload,
                                              render_partition)
            plan = partition_workload(graph, shards, session=self)
            parts.append(render_partition(plan, graph))
        return "\n\n".join(parts)

    def prepare(self, src: str) -> "PreparedQuery":
        """Parse and type-check once; run many times.

        The returned callable skips parsing and inference on each run —
        the pattern the benchmark harness uses for steady-state timings.
        The query is checked against the *current* environment; bindings
        made later are still visible at run time (the global frame is
        shared), but must already exist and be type-compatible when
        ``prepare`` is called.
        """
        from ..core.infer import record_type_annotations
        from ..core.limits import deep_recursion
        with deep_recursion():
            term = self.parse(src)
            with record_type_annotations() as annotations:
                scheme = infer_scheme(term, self.type_env)
            if self.pure_views:
                from ..analysis.effects import check_views_pure
                check_views_pure(term, self.purity)
        return PreparedQuery(self, term, scheme, annotations)

    # -- translations -------------------------------------------------------

    def translate_objects(self, src: str) -> T.Term:
        """Eliminate the object/view constructors (Figure 3)."""
        from ..objects.translate import translate_objects
        return translate_objects(self.parse(src))

    def translate_classes(self, src: str) -> T.Term:
        """Eliminate the class constructors (Figure 5 / Section 4.4)."""
        from ..classes.translate import translate_classes
        return translate_classes(self.parse(src))

    def translate_full(self, src: str) -> T.Term:
        """Classes -> objects -> core: the full compilation pipeline."""
        from ..classes.translate import translate_classes
        from ..objects.translate import translate_objects
        return translate_objects(translate_classes(self.parse(src)))


class PreparedQuery:
    """A parsed, type-checked query bound to a session (see
    :meth:`Session.prepare`)."""

    __slots__ = ("session", "term", "scheme", "annotations")

    def __init__(self, session: Session, term: T.Term, scheme: TypeScheme,
                 annotations: "dict | None" = None):
        self.session = session
        self.term = term
        self.scheme = scheme
        self.annotations = annotations

    def __call__(self) -> Value:
        return self.session._eval_planned(self.term, self.annotations)

    def run_py(self):
        """Run and convert to Python data."""
        return value_to_python(self(), self.session.machine)

    def type_str(self) -> str:
        return pretty_scheme(self.scheme)
