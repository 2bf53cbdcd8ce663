"""`QueryEngine` — plan, choose an access path, execute, explain.

The engine sits between :class:`~repro.lang.api.Session` and the machine.
``execute`` runs every expression the session hands it; anything that is
not a recognized, pure, unshadowed query shape falls straight through to
the naive evaluator, so the engine can never change what a program means:

* **recognition** (:mod:`repro.query.ir`) lifts the term into a pipeline
  and fails on anything it cannot prove is the algebra's shape;
* **purity** — the whole term must be effect-free by the conservative
  analysis (:mod:`repro.analysis.effects`); an impure term is never
  planned, so planned execution cannot mutate anything;
* **binding identity** — the structural names the shape relies on
  (``hom``, ``union``, ``map``, ``filter``, ``eq``) must still be bound
  to the session's pristine builtin/prelude values;
* **abort** — any surprise during planned execution (an unexpected value
  shape, an evaluation error) falls back to the naive evaluator, which is
  safe precisely because planned execution is effect-free.

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
from typing import Callable

from ..core import terms as T
from ..core.terms import free_vars
from ..errors import EvalError
from ..eval.equality import value_key
from ..eval.store import Location
from ..eval.values import (VBool, VClass, VClosure, VInt, VObject,
                           VRecord, VSet,
                           VString, Value)
from ..lang.statements import is_param
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
    build/delta counters)."""

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
    __slots__ = ("pipe", "rewrites", "reason")

    def __init__(self, pipe: Pipeline | None, rewrites: list[str],
                 reason: str | None) -> None:
        self.pipe = pipe
        self.rewrites = rewrites
        self.reason = reason


#: Names whose runtime bindings must be the session's pristine values for
#: a recognized shape to mean what the algebra meant.
_STRUCTURAL = ("hom", "union", "map", "filter", "eq")


class QueryEngine:
    """One session's planner: indexes, cached views, and the cost model.

    Installs itself as the store's change observer; with ``enabled=False``
    it only renders plans (``explain``) and never affects evaluation.
    """

    def __init__(self, session, enabled: bool = True,
                 cost: CostModel | None = None) -> None:
        self.session = session
        self.machine = session.machine
        self.enabled = enabled
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

    def execute(self, term: T.Term, env, naive: Callable[[], Value]
                ) -> Value:
        """Evaluate ``term`` — planned when possible, else ``naive()``.

        ``env`` binds the statement's parameters (if any) over the
        session's globals; ``naive`` runs the statement unplanned
        (compiled when the session compiles).
        """
        staging = self.machine.store.staging
        if not self.enabled or (staging is not None and staging.staged):
            return naive()
        plan = self._plan(term)
        if plan.pipe is None:
            self.stats.fallbacks += 1
            return naive()
        try:
            result = self._run(term, plan.pipe, env)
        except PlanAbort:
            self.stats.aborts += 1
            return naive()
        except EvalError:
            # Planned execution is effect-free, so re-running naively is
            # safe — and yields the error (or result) the program's own
            # semantics dictate.
            self.stats.aborts += 1
            return naive()
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

    def _run(self, term: T.Term, pipe: Pipeline, env) -> Value:
        result = self._eval_top(term, pipe, env)
        if pipe.finish is not None:
            fnv = self.machine.eval(pipe.finish, env)
            return self.machine.apply(fnv, result)
        return result

    def _eval_top(self, term: T.Term, pipe: Pipeline, env) -> VSet:
        resolved: dict[int, VClass] = {}
        fingerprint = self._fingerprint(pipe, env, resolved)
        if fingerprint is None or not self.cost.use_materialized_views:
            self.stats.scans += 1
            return self._exec_pipe(pipe, env, resolved)
        globals_now = self._globals_of(term, env)
        params = sorted(n for n in globals_now if is_param(n))
        if params:
            # A statement parameter is a fresh value on every run: key
            # the view on its value, and pin only real globals.
            fingerprint += "\n#" + repr(
                [value_key(globals_now.pop(n)) for n in params])
        entry = self.views.lookup(fingerprint, globals_now)
        if entry is not None:
            self.views.register_reads(entry)
            self.stats.mv_hits += 1
            return self.machine.make_set(entry.elements())
        count = self.views.note_seen(fingerprint)
        if self.cost.should_materialize(count):
            return self._materialize(pipe, env, resolved, fingerprint,
                                     globals_now)
        self.stats.scans += 1
        return self._exec_pipe(pipe, env, resolved)

    def _globals_of(self, term: T.Term, env) -> dict[str, Value]:
        out: dict[str, Value] = {}
        for name in free_vars(term):
            try:
                out[name] = env.lookup(name)
            except EvalError:
                raise PlanAbort(f"unbound name {name!r}") from None
        return out

    def _fingerprint(self, pipe: Pipeline, env,
                     resolved: dict[int, VClass]) -> str | None:
        """A cache key for the plan, or None when the plan reads sets the
        cache cannot validate (opaque term sources)."""
        classes: list[int] = []
        if not self._collect_classes(pipe, env, resolved, classes):
            return None
        finish = ("" if pipe.finish is None
                  else "\nfinish-present")  # finish runs per serve
        return (pipe.render() + finish + "\n@"
                + ",".join(str(oid) for oid in classes))

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
                            source_cls=delta_cls, stage_plan=stage_plan,
                            pairs=pairs)
        else:
            with recording_reads(store) as deps:
                result = self._exec_pipe(pipe, env, resolved)
            entry = MatView(fingerprint, deps, globals_now, store._stamp,
                            results=list(result.elems))
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
        if elems is None:
            elems = self._source_elems(pipe.source, env, resolved)
        elems = machine.make_set(elems).elems
        for stage in stages:
            elems = self._apply_stage(stage, elems, env)
        return machine.make_set(elems)

    def _source_elems(self, source, env,
                      resolved: dict[int, VClass]) -> list[Value]:
        machine = self.machine
        if isinstance(source, ExtentSource):
            cls = self._resolve_cls(source, env, resolved)
            return list(machine.class_extent(cls).elems)
        if isinstance(source, TermSource):
            v = machine.eval(source.term, env)
            if not isinstance(v, VSet):
                raise PlanAbort("source term did not evaluate to a set")
            return list(v.elems)
        assert isinstance(source, ProductSource)
        sets = [self._exec_pipe(p, env, resolved) for p in source.parts]
        return self._product_rows(sets)

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

    def _apply_stage(self, stage, elems: list[Value], env) -> list[Value]:
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
        return machine.make_set(out_rev).elems

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
        fingerprint = self._fingerprint(pipe, env, resolved)
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


class _ViewOnly(Stage):
    """Internal: apply a view to every element (an exact-index select's
    residual work)."""

    __slots__ = ("view",)

    def __init__(self, view: T.Term) -> None:
        self.view = view
