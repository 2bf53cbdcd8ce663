"""`QueryEngine` — plan, choose an access path, execute, explain.

The engine sits between :class:`~repro.lang.api.Session` and the machine.
``execute`` serves the statements the session hands it; it gives back
anything that is not a recognized, pure, unshadowed query shape, and the
session runs that unplanned, so the engine can never change what a
program means:

* **recognition** (:mod:`repro.query.ir`) lifts the term into a pipeline
  and fails on anything it cannot prove is the algebra's shape;
* **purity** — the whole term must be effect-free by the conservative
  analysis (:mod:`repro.analysis.effects`); an impure term is never
  planned, so planned execution cannot mutate anything;
* **binding identity** — the structural names the shape relies on
  (``hom``, ``union``, ``map``, ``filter``, ``eq``) must still be bound
  to the session's pristine builtin/prelude values;
* **abort** — any surprise during planned execution (an unexpected value
  shape, an evaluation error) hands the statement back to the unplanned
  run, which is safe precisely because planned execution is effect-free.

A statement is planned once per shape: recognition, the purity check and
the rewrites run on its first run, and the plan — or :data:`~repro.lang.
statements.DECLINED` — is kept in the statement (its statement-cache
entry, or a prepared query), with the shape's fingerprint text and the
values of the global names the term reads.  A later run checks only
identities: those globals, the structural names, and a view's globals.

Physical choices (cost model): a cached materialized view when a valid
one exists, else a hash-index bucket lookup when the leading stage is an
equality filter on an eligible field of a large-enough extent, else a
scan.  Every shortcut registers the reads the scan it replaced would have
made — through the store's tracker, so an OCC transaction's read set (and
therefore its conflicts) is the same whichever path ran.  Indexes and
views hold committed state only, so a statement of a server transaction
that has staged writes (:mod:`repro.server.occ`) is never planned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import terms as T
from ..core.terms import free_vars
from ..errors import EvalError
from ..eval.equality import value_key
from ..eval.store import Location
from ..eval.values import (VBool, VClass, VClosure, VInt, VObject,
                           VRecord, VSet,
                           VString, Value)
from ..lang.statements import DECLINED, is_param
from .cost import CostModel
from .indexes import IndexManager
from .ir import (ExtentSource, FilterStage, FuseStage, MapStage, Pipeline,
                 ProductSource, RelationStage, SelectStage, Stage,
                 TermSource, ViewStage, equality_key, recognize)
from .matview import MatView, ViewCache, build_stage_plan, run_element
from .rewrite import apply_rewrites
from .tracking import recording_reads

__all__ = ["QueryEngine", "QueryStats", "PlanReport", "PlanAbort"]


class PlanAbort(Exception):
    """Planned execution hit a surprise; fall back to naive evaluation."""


@dataclass
class QueryStats:
    """Counters for the planner's decisions (see also the managers'
    build/delta counters).  ``fallbacks`` counts statement shapes the
    planner declined (once per shape: the session does not ask again) and
    runs declined because a structural name was rebound."""

    planned: int = 0
    fallbacks: int = 0
    aborts: int = 0
    scans: int = 0
    index_hits: int = 0
    mv_hits: int = 0
    mv_builds: int = 0

    def snapshot(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in
                ("planned", "fallbacks", "aborts", "scans", "index_hits",
                 "mv_hits", "mv_builds")}


@dataclass
class PlanReport:
    """What ``explain()`` renders: the logical plan, the rewrites that
    fired, and the physical access path the engine would choose."""

    mode: str                      # "optimized" | "naive"
    reason: str | None = None      # why naive, when mode == "naive"
    pipeline_text: str | None = None
    rewrites: list[str] = field(default_factory=list)
    access: list[str] = field(default_factory=list)

    def render(self) -> str:
        if self.mode == "naive":
            return f"plan: naive evaluation — {self.reason}"
        lines = ["plan: optimized"]
        if self.pipeline_text:
            lines.append(self.pipeline_text)
        lines.append("rewrites: " + (", ".join(self.rewrites)
                                     if self.rewrites else "(none)"))
        for line in self.access:
            lines.append("access: " + line)
        return "\n".join(lines)


class _Plan:
    """A statement shape's plan: the rewritten pipeline (None when the
    shape is declined, with the ``reason``), the rewrites that fired, the
    shape's fingerprint ``text``, and ``globals`` — the values of the
    global names the term reads, as they were when it was planned."""

    __slots__ = ("pipe", "rewrites", "reason", "text", "globals")

    def __init__(self, pipe: Pipeline | None, rewrites: list[str],
                 reason: str | None) -> None:
        self.pipe = pipe
        self.rewrites = rewrites
        self.reason = reason
        self.text = "" if pipe is None else _shape_text(pipe)
        self.globals: dict[str, Value] = {}


#: Names whose runtime bindings must be the session's pristine values for
#: a recognized shape to mean what the algebra meant.
_STRUCTURAL = ("hom", "union", "map", "filter", "eq")


class QueryEngine:
    """One session's planner: indexes, cached views, and the cost model.

    Installs itself as the store's change observer.  It serves statements
    only when the session asks (``Session.optimize``); a session that does
    not plan still renders plans through it (``explain``).
    """

    def __init__(self, session, cost: CostModel | None = None) -> None:
        self.session = session
        self.machine = session.machine
        self.cost = cost if cost is not None else CostModel()
        self.indexes = IndexManager(self.machine)
        self.views = ViewCache(self.machine)
        self.stats = QueryStats()
        store = self.machine.store
        if store.observer is None:
            store.observer = self

    # -- store observer -----------------------------------------------------

    def location_written(self, loc: Location) -> None:
        self.indexes.location_written(loc)
        self.views.location_written(loc)

    def extent_replaced(self, cls: VClass, old_own,
                        old_version: int) -> None:
        self.indexes.extent_replaced(cls, old_own, old_version)
        self.views.extent_replaced(cls, old_own, old_version)

    # -- entry points --------------------------------------------------------

    def execute(self, stmt, env, args: tuple) -> "Value | None":
        """Serve ``stmt`` planned: its value, or None to give it back.

        ``args`` are the statement's parameter values and ``env`` binds
        them over the session's globals.  The statement's first run plans
        its shape and keeps the plan in ``stmt.plan`` (a declined shape
        is marked :data:`~repro.lang.statements.DECLINED`, and the
        session stops asking).  None also means that the transaction has
        staged writes, that a structural name is rebound, or that planned
        execution aborted; the session then runs the statement unplanned.
        """
        staging = self.machine.store.staging
        if staging is not None and staging.staged:
            return None
        try:
            plan = stmt.plan
            if plan is None or not _bound_as_planned(plan, env):
                plan = self._plan(stmt.term)
                if plan.pipe is None:
                    stmt.plan = DECLINED
                    self.stats.fallbacks += 1
                    return None
                plan.globals = self._globals_of(stmt.term, env)
                stmt.plan = plan
            if not self._names_pristine(plan.pipe.needs):
                self.stats.fallbacks += 1
                return None
            result = self._run(plan, env, args)
        except (PlanAbort, EvalError):
            # Planned execution is effect-free, so running the statement
            # unplanned is safe — and yields the error (or result) the
            # program's own semantics dictate.
            self.stats.aborts += 1
            return None
        self.stats.planned += 1
        return result

    def _stage_fn(self, term: T.Term, env) -> Value:
        """Evaluate a stage function, swapping in its compiled form.

        The compiled function is semantically identical (the differential
        suite pins closure compilation), so per-element application runs
        the lowered body instead of re-walking the term.
        """
        v = self.machine.eval(term, env)
        session = self.session
        if (getattr(session, "compile_mode", "off") != "off"
                and isinstance(v, VClosure)):
            compiled = session.compile_engine.compiled_predicate(v)
            if compiled is not None:
                return compiled
        return v

    def plan(self, term: T.Term, env) -> PlanReport:
        """Render the plan ``execute`` would use, without running it."""
        plan = self._plan(term)
        if plan.pipe is None:
            return PlanReport("naive", reason=plan.reason)
        report = PlanReport("optimized", pipeline_text=plan.pipe.render(),
                            rewrites=plan.rewrites)
        try:
            report.access = self._describe_access(plan.pipe, env)
        except EvalError:
            report.access = ["(sources not evaluable statically)"]
        return report

    # -- planning -----------------------------------------------------------

    def _plan(self, term: T.Term) -> _Plan:
        pipe = recognize(term)
        if pipe is None:
            return _Plan(None, [], "not a recognized query shape")
        if not pipe.extent_sources():
            return _Plan(None, [], "no class extent in the pipeline")
        from ..analysis.effects import expression_is_impure
        if expression_is_impure(term, self.session.purity):
            return _Plan(None, [], "the expression may have effects")
        if not self._names_pristine(pipe.needs):
            return _Plan(None, [],
                         "a structural builtin (hom/union/map/filter) "
                         "is rebound")
        pipe, rewrites = apply_rewrites(pipe)
        return _Plan(pipe, rewrites, None)

    def _names_pristine(self, needs) -> bool:
        pristine = getattr(self.session, "_pristine_names", None)
        if pristine is None:
            return False
        env = self.session.runtime_env
        for name in needs:
            expected = pristine.get(name)
            if expected is None:
                return False
            try:
                if env.lookup(name) is not expected:
                    return False
            except EvalError:
                return False
        return True

    # -- execution ----------------------------------------------------------

    def _run(self, plan: _Plan, env, args: tuple) -> Value:
        pipe = plan.pipe
        result = self._eval_top(plan, env, args)
        if pipe.finish is not None:
            fnv = self.machine.eval(pipe.finish, env)
            return self.machine.apply(fnv, result)
        return result

    def _eval_top(self, plan: _Plan, env, args: tuple) -> VSet:
        pipe = plan.pipe
        resolved: dict[int, VClass] = {}
        fingerprint = self._fingerprint(plan.text, pipe, env, resolved)
        if fingerprint is None or not self.cost.use_materialized_views:
            self.stats.scans += 1
            return self._exec_pipe(pipe, env, resolved)
        if args:
            # A statement parameter is a fresh value on every run: key
            # the view on its value.
            fingerprint += "\n#" + repr([value_key(a) for a in args])
        entry = self.views.lookup(fingerprint, plan.globals)
        if entry is not None:
            self.views.register_reads(entry)
            self.stats.mv_hits += 1
            return self.views.result_of(entry)
        count = self.views.note_seen(fingerprint)
        if self.cost.should_materialize(count):
            return self._materialize(pipe, env, resolved, fingerprint,
                                     plan.globals)
        self.stats.scans += 1
        return self._exec_pipe(pipe, env, resolved)

    def _globals_of(self, term: T.Term, env) -> dict[str, Value]:
        """The values of the global names ``term`` reads (its free names
        less the statement's parameters)."""
        out: dict[str, Value] = {}
        for name in free_vars(term):
            if is_param(name):
                continue
            try:
                out[name] = env.lookup(name)
            except EvalError:
                raise PlanAbort(f"unbound name {name!r}") from None
        return out

    def _fingerprint(self, text: str, pipe: Pipeline, env,
                     resolved: dict[int, VClass]) -> str | None:
        """A cache key for the plan of shape ``text``, or None when the
        plan reads sets the cache cannot validate (opaque term sources)."""
        classes: list[int] = []
        if not self._collect_classes(pipe, env, resolved, classes):
            return None
        return text + "\n@" + ",".join(str(oid) for oid in classes)

    def _collect_classes(self, pipe: Pipeline, env,
                         resolved: dict[int, VClass],
                         out: list[int]) -> bool:
        source = pipe.source
        if isinstance(source, ExtentSource):
            out.append(self._resolve_cls(source, env, resolved).oid)
            return True
        if isinstance(source, ProductSource):
            return all(self._collect_classes(p, env, resolved, out)
                       for p in source.parts)
        return False

    def _resolve_cls(self, source: ExtentSource, env,
                     resolved: dict[int, VClass]) -> VClass:
        cached = resolved.get(id(source))
        if cached is not None:
            return cached
        cls = self.machine.eval(source.cls_term, env)
        if not isinstance(cls, VClass):
            raise EvalError("'c-query' expects a class")
        resolved[id(source)] = cls
        return cls

    def _materialize(self, pipe: Pipeline, env,
                     resolved: dict[int, VClass], fingerprint: str,
                     globals_now: dict[str, Value]) -> VSet:
        machine = self.machine
        store = machine.store
        source = pipe.source
        delta_cls = None
        stage_plan = None
        if isinstance(source, ExtentSource):
            cls = self._resolve_cls(source, env, resolved)
            if not cls.includes:
                stage_plan = build_stage_plan(machine, pipe.stages, env)
                if stage_plan is not None:
                    delta_cls = cls
        if delta_cls is not None:
            with recording_reads(store) as deps:
                extent = machine.class_extent(delta_cls)
                pairs = [(value_key(e),
                          run_element(machine, stage_plan, e))
                         for e in extent.elems]
            result = machine.make_set([v for _k, outs in pairs
                                       for v in outs])
            entry = MatView(fingerprint, deps, globals_now, store._stamp,
                            result, source_cls=delta_cls,
                            stage_plan=stage_plan, pairs=pairs)
        else:
            with recording_reads(store) as deps:
                result = self._exec_pipe(pipe, env, resolved)
            entry = MatView(fingerprint, deps, globals_now, store._stamp,
                            result, results=result.elems)
        self.views.put(entry)
        self.stats.mv_builds += 1
        return result

    # -- pipeline execution --------------------------------------------------

    def _exec_pipe(self, pipe: Pipeline, env,
                   resolved: dict[int, VClass]) -> VSet:
        machine = self.machine
        stages = list(pipe.stages)
        elems: list[Value] | None = None
        # Hash join replacing the product (the product-elimination pass).
        if (stages and isinstance(stages[0], FuseStage)
                and stages[0].hash_join
                and isinstance(pipe.source, ProductSource)):
            part_sets = [self._exec_pipe(p, env, resolved)
                         for p in pipe.source.parts]
            elems = list(machine._fuse_extents(part_sets))
            stages = stages[1:]
        # Index lookup serving a leading equality filter/select.
        if elems is None and isinstance(pipe.source, ExtentSource) \
                and stages and isinstance(stages[0],
                                          (FilterStage, SelectStage)):
            hit = self._try_index(pipe.source, stages[0], env, resolved)
            if hit is not None:
                elems, replacement = hit
                stages = ([replacement] if replacement else []) + stages[1:]
        result = (self._source_set(pipe.source, env, resolved)
                  if elems is None else machine.make_set(elems))
        for stage in stages:
            result = self._apply_stage(stage, result.elems, env)
        return result

    def _source_set(self, source, env,
                    resolved: dict[int, VClass]) -> VSet:
        machine = self.machine
        if isinstance(source, ExtentSource):
            cls = self._resolve_cls(source, env, resolved)
            return machine.class_extent(cls)
        if isinstance(source, TermSource):
            v = machine.eval(source.term, env)
            if not isinstance(v, VSet):
                raise PlanAbort("source term did not evaluate to a set")
            return v
        assert isinstance(source, ProductSource)
        sets = [self._exec_pipe(p, env, resolved) for p in source.parts]
        return machine.make_set(self._product_rows(sets))

    def _product_rows(self, sets: list[VSet]) -> list[Value]:
        """Row-major tuple records — mirrors ``Machine._eval_prod``."""
        machine = self.machine
        if any(len(s) == 0 for s in sets):
            return []
        rows: list[Value] = []
        indices = [0] * len(sets)
        while True:
            machine.metrics.records_created += 1
            rows.append(VRecord(
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
                return rows

    def _try_index(self, source: ExtentSource, stage: Stage, env,
                   resolved: dict[int, VClass]):
        """Serve a leading equality predicate from a hash index.

        Returns ``(candidates, replacement_stage)`` or None.  For an
        exact equality the bucket *is* the filter result; a conjunction
        narrows to the bucket and re-runs the full predicate as residual.
        """
        pred = stage.pred
        key_info = equality_key(pred)
        if key_info is None:
            return None
        label, const_term, exact = key_info
        if not self._names_pristine({"eq"}):
            return None
        cls = self._resolve_cls(source, env, resolved)
        if not self.cost.should_index(len(cls.own.elems)):
            return None
        idx = self.indexes.get(cls, label)
        if idx is None:
            return None
        const_v = self.machine.eval(const_term, env)
        if not isinstance(const_v, (VInt, VString, VBool)):
            return None
        self.indexes.register_reads(idx)
        candidates = list(idx.lookup(value_key(const_v)))
        self.stats.index_hits += 1
        if exact and isinstance(stage, FilterStage):
            replacement = None
        elif exact:
            assert isinstance(stage, SelectStage)
            replacement = _ViewOnly(stage.view)
        else:
            replacement = stage  # residual: full predicate over candidates
        return candidates, replacement

    def _apply_stage(self, stage, elems: list[Value], env) -> VSet:
        """One pipeline stage, element order and dedup exactly as the
        naive right-to-left ``hom`` fold produces them."""
        machine = self.machine
        out_rev: list[Value] = []
        if isinstance(stage, MapStage):
            fnv = self._stage_fn(stage.fn, env)
            for e in reversed(elems):
                out_rev.append(machine.apply(fnv, e))
        elif isinstance(stage, _ViewOnly):
            viewv = self._stage_fn(stage.view, env)
            for e in reversed(elems):
                out_rev.append(machine.compose_view(
                    viewv, self._as_object(e)))
        elif isinstance(stage, FilterStage):
            predv = self._stage_fn(stage.pred, env)
            for e in reversed(elems):
                if self._verdict(predv, e):
                    out_rev.append(e)
        elif isinstance(stage, SelectStage):
            viewv = self._stage_fn(stage.view, env)
            predv = self._stage_fn(stage.pred, env)
            for e in reversed(elems):
                if self._verdict(predv, e):
                    out_rev.append(machine.compose_view(
                        viewv, self._as_object(e)))
        elif isinstance(stage, ViewStage):
            viewvs = [self._stage_fn(v, env) for v in stage.views]
            for e in reversed(elems):
                obj = self._as_object(e)
                for vv in viewvs:
                    obj = machine.compose_view(vv, obj)
                out_rev.append(obj)
        elif isinstance(stage, RelationStage):
            for e in reversed(elems):
                row = self._as_tuple(e, len(stage.binders))
                env2 = env
                for i, binder in enumerate(stage.binders):
                    env2 = env2.bind(binder, row.read(str(i + 1)))
                verdict = machine.eval(stage.pred, env2)
                if not isinstance(verdict, VBool):
                    raise EvalError("if condition must be a bool")
                if verdict.value:
                    out_rev.append(machine.eval(
                        T.RelObj(list(stage.fields)), env2))
        elif isinstance(stage, FuseStage):
            for e in reversed(elems):
                row = self._as_tuple(e, stage.arity)
                objs = [self._as_object(row.read(str(i + 1)))
                        for i in range(stage.arity)]
                out_rev.extend(machine.fuse_objects(objs).elems)
        else:  # pragma: no cover - recognizer/rewriter invariant
            raise PlanAbort(f"unknown stage {type(stage).__name__}")
        out_rev.reverse()
        return machine.make_set(out_rev)

    def _verdict(self, predv: Value, e: Value) -> bool:
        verdict = self.machine.apply(predv, e)
        if not isinstance(verdict, VBool):
            raise EvalError("if condition must be a bool")
        return verdict.value

    def _as_object(self, v: Value) -> VObject:
        if not isinstance(v, VObject):
            raise EvalError("'as' expects an object")
        return v

    def _as_tuple(self, v: Value, arity: int) -> VRecord:
        if not isinstance(v, VRecord):
            raise PlanAbort("product row is not a tuple record")
        return v

    # -- explain ------------------------------------------------------------

    def _describe_access(self, pipe: Pipeline, env) -> list[str]:
        resolved: dict[int, VClass] = {}
        lines: list[str] = []
        fingerprint = self._fingerprint(_shape_text(pipe), pipe, env,
                                        resolved)
        if fingerprint is not None and self.cost.use_materialized_views:
            entry = self.entries_peek(fingerprint)
            if entry is not None:
                lines.append(
                    f"materialized view ({len(entry.elements())} cached "
                    f"element(s), delta-maintained="
                    f"{'yes' if entry.pairs is not None else 'no'})")
                return lines
            seen = self.views.seen.get(fingerprint, 0)
            if self.cost.should_materialize(seen + 1):
                lines.append("will materialize result on this execution")
        self._describe_pipe_access(pipe, env, resolved, lines)
        if not lines:
            lines.append("full scan")
        return lines

    def entries_peek(self, fingerprint: str) -> MatView | None:
        """A currently-valid entry, without serving or registering reads."""
        entry = self.views.entries.get(fingerprint)
        if entry is None:
            return None
        return entry if self.views._refresh(entry) else None

    def _describe_pipe_access(self, pipe: Pipeline, env,
                              resolved: dict[int, VClass],
                              lines: list[str]) -> None:
        from ..syntax.pretty import pretty_term
        source = pipe.source
        if (isinstance(source, ExtentSource) and pipe.stages
                and isinstance(pipe.stages[0], (FilterStage, SelectStage))):
            key_info = equality_key(pipe.stages[0].pred)
            if key_info is not None:
                label, _const, exact = key_info
                cls = self._resolve_cls(source, env, resolved)
                name = pretty_term(source.cls_term)
                estimate = len(cls.own.elems)
                if not self.cost.should_index(estimate):
                    lines.append(
                        f"full scan of {name} (extent ~{estimate} below "
                        f"index threshold {self.cost.index_min_extent})")
                elif (cls.oid, label) in self.indexes.blacklist:
                    lines.append(f"full scan of {name} ({name}.{label} "
                                 "is not indexable)")
                else:
                    kind = "exact" if exact else "with residual predicate"
                    lines.append(f"index lookup on {name}.{label} "
                                 f"({kind}, extent ~{estimate})")
                return
        if isinstance(source, ExtentSource):
            cls = self._resolve_cls(source, env, resolved)
            lines.append(f"full scan of {pretty_term(source.cls_term)} "
                         f"(extent ~{len(cls.own.elems)})")
        elif isinstance(source, ProductSource):
            if (pipe.stages and isinstance(pipe.stages[0], FuseStage)
                    and pipe.stages[0].hash_join):
                lines.append("hash join on raw-object identity")
            for part in source.parts:
                self._describe_pipe_access(part, env, resolved, lines)
        else:
            lines.append("evaluate opaque set source")


def _shape_text(pipe: Pipeline) -> str:
    """The fingerprint text of a plan's shape: the rendered pipeline,
    and whether a finish runs (it runs on every serve)."""
    return pipe.render() + ("" if pipe.finish is None
                            else "\nfinish-present")


def _bound_as_planned(plan: _Plan, env) -> bool:
    """Whether every global name the plan's term reads is bound in
    ``env`` to the value it had when the shape was planned.  A
    statement-cache entry's always are (its pins drop it on a rebinding);
    a prepared query is re-planned when one is not."""
    lookup = env.lookup
    for name, value in plan.globals.items():
        try:
            if lookup(name) is not value:
                return False
        except EvalError:
            return False
    return True


class _ViewOnly(Stage):
    """Internal: apply a view to every element (an exact-index select's
    residual work)."""

    __slots__ = ("view",)

    def __init__(self, view: T.Term) -> None:
        self.view = view
