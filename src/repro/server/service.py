"""The concurrent, self-healing database service in front of a catalog.

One :class:`Server` owns one :class:`~repro.db.catalog.Catalog` (and
therefore one session, store and WAL) and serves many clients from a
worker pool.  The pieces compose the runtime primitives of the earlier
robustness layer:

* the evaluator is not thread-safe, so every **statement** runs under the
  catalog lock — but a client *transaction* spans many statements, and
  the lock is released between them, so transactions genuinely
  interleave;
* every transaction runs dynamic OCC (:mod:`repro.server.occ`): reads
  are tracked against the store's version stamps, writes take latches,
  and commit validates the read set, so interference between
  interleaved transactions surfaces as a recoverable
  :class:`~repro.errors.ConflictError`;
* conflicts are retried with jittered exponential backoff
  (:mod:`repro.server.retry`);
* a bounded admission queue sheds load
  (:class:`~repro.errors.OverloadedError`) instead of stalling, and the
  WAL circuit breaker degrades the server to read-only instead of
  wedging on a dead disk (:mod:`repro.server.admission`);
* dead workers are respawned and their in-flight request re-queued, so a
  worker crash is invisible to clients;
* on startup, a WAL path is recovered through the doctor
  (:mod:`repro.server.recover`) before the first request is admitted.

Client view::

    server = Server(wal="db.wal")
    client = server.connect()
    client.run(lambda txn: txn.exec("query(fn x => update(x, Salary, 9), "
                                    "joe)"))
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

# Unused: kept because benchmarks/e2e/tracing.py patches both names here.
from ..analysis.regions import program_footprint, resolve_footprint  # noqa: F401
from ..db.catalog import Catalog
from ..errors import ConflictError, OverloadedError, ReadOnlyError
from ..runtime.budget import Budget
from ..runtime.faults import fire
from .admission import AdmissionQueue, CircuitBreaker
from .occ import LatchTable, OCCTransaction
from .recover import RecoveryReport, recover
from .retry import RetryPolicy

__all__ = ["ServerConfig", "Server", "ClientSession", "ClientTransaction",
           "ServerStats"]

_request_ids = itertools.count(1)


@dataclass
class ServerConfig:
    """Tunables for one server instance."""

    workers: int = 4
    queue_size: int = 64
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 5
    breaker_cooldown: float = 0.5
    #: How often idle workers wake to check for shutdown (seconds).
    poll_interval: float = 0.05


class ServerStats:
    """Monotonic service counters plus a service-time sample (thread-safe).

    Counters are listed in ``FIELDS`` (subclasses override it — the wire
    protocol keeps its own counter set on the same machinery).  Service
    times land in a bounded ring buffer via :meth:`record_service`; the
    p50/p99 summary feeds the ``stats`` wire operation and the server's
    own ``retry_after`` estimates, so the shedding-curve benchmark reads
    the server's view of its latency rather than re-deriving one.
    """

    FIELDS = ("submitted", "committed", "conflicts", "retries", "shed",
              "failed", "read_only_rejected", "worker_deaths",
              "wal_failures")

    #: Ring-buffer capacity for service-time samples.
    SERVICE_SAMPLES = 2048

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._service: deque = deque(maxlen=self.SERVICE_SAMPLES)
        for name in self.FIELDS:
            setattr(self, name, 0)

    def incr(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self.FIELDS}

    # -- service-time sample ------------------------------------------------

    def record_service(self, seconds: float) -> None:
        """Record one request's dequeue-to-completion service time."""
        with self._lock:
            self._service.append(seconds)

    def service_summary(self) -> dict:
        """p50/p99 of recorded service times, in milliseconds."""
        with self._lock:
            data = sorted(self._service)
        if not data:
            return {"samples": 0, "p50_ms": None, "p99_ms": None}

        def pct(p: float) -> float:
            return data[min(len(data) - 1, int(p * len(data)))] * 1000.0

        return {"samples": len(data),
                "p50_ms": round(pct(0.50), 3),
                "p99_ms": round(pct(0.99), 3)}

    def service_p50(self) -> float | None:
        """Median service time in *seconds* (None before any sample)."""
        summary = self.service_summary()
        if not summary["samples"]:
            return None
        return summary["p50_ms"] / 1000.0


class _Request:
    """One submitted transaction and its completion slot."""

    __slots__ = ("seq", "fn", "budget", "done", "result", "error",
                 "abandoned")

    def __init__(self, fn, budget: Budget | None):
        self.seq = next(_request_ids)
        self.fn = fn
        self.budget = budget
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.abandoned = False

    def finish(self, result) -> None:
        self.result = result
        self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()


class ClientTransaction:
    """The handle a transaction body receives: statement-level access to
    the shared catalog under OCC tracking.

    Each method is one *statement*: it takes the catalog lock, arms the
    transaction's tracker on the store, runs, and releases — so
    statements of different transactions interleave, and the OCC layer
    is what keeps the interleaving serializable.  Values returned by
    query methods are plain Python data (the conversion itself is a
    tracked read).

    Transactions are for queries and DML.  ``val``/``fun`` declarations
    made through :meth:`exec` take effect per-statement and are *not*
    undone by a transaction abort — route schema work through
    :meth:`Server.execute_exclusive` instead.
    """

    __slots__ = ("_server", "_txn", "_budget", "_wal_buffer", "_meta_undo",
                 "_finished")

    def __init__(self, server: "Server", txn: OCCTransaction,
                 budget: Budget | None):
        self._server = server
        self._txn = txn
        self._budget = budget
        self._wal_buffer: list[tuple[str, dict]] = []
        # Catalog *metadata* undo (ClassSpec.own membership lists), which
        # lives outside the store and so outside OCC's store-level undo.
        # Keyed by class name, not spec identity: a concurrent _atomic
        # failure can rebind the registries to a deep copy, and the
        # extent latch guarantees nobody else changed this class's
        # membership in between.
        self._meta_undo: list[tuple[str, list]] = []
        self._finished = False

    # -- statements ---------------------------------------------------------

    def _statement(self, run, mutating: bool):
        server = self._server
        if self._finished:
            raise RuntimeError("transaction is already finished")
        if mutating and not server._breaker.write_allowed():
            server.stats.incr("read_only_rejected")
            raise ReadOnlyError(
                "server is read-only (persistence circuit breaker open); "
                "writes resume once a WAL probe succeeds",
                retry_after=server._breaker.retry_after())
        with server._lock:
            session = server.session
            store = session.machine.store
            store.tracker = self._txn
            server.catalog._log_sink = self._wal_buffer
            try:
                if mutating:
                    # Statement atomicity rides the savepoint machinery;
                    # on_commit eagerly validates the read set so a
                    # transaction already doomed by a concurrent commit
                    # fails fast instead of doing more work.
                    with session.transaction(budget=self._budget,
                                             on_commit=self._txn.validate):
                        return run(session)
                else:
                    with session._with_budget(self._budget):
                        return run(session)
            finally:
                store.tracker = None
                server.catalog._log_sink = None

    def eval_py(self, src: str):
        """Evaluate an expression; returns plain Python data."""
        return self._statement(lambda s: s.eval_py(src), mutating=False)

    def exec(self, src: str):
        """Run a program statement (updates, inserts, declarations)."""
        return self._statement(lambda s: s.exec(src), mutating=True)

    # -- catalog-level operations (WAL-logged at commit) --------------------

    def update_object(self, name: str, label: str, value) -> None:
        """Update a mutable field of a named catalog object."""
        self._statement(
            lambda s: self._server.catalog.update_object(name, label, value),
            mutating=True)

    def _membership(self, class_name: str, run) -> None:
        """A membership-changing statement, with metadata undo recorded
        on success (a *failed* statement is already restored by the
        catalog's own all-or-nothing machinery)."""
        cat = self._server.catalog

        def wrapped(_session):
            spec = cat.classes.get(class_name)
            old_own = list(spec.own) if spec is not None else None
            run()
            if old_own is not None:
                self._meta_undo.append((class_name, old_own))

        self._statement(wrapped, mutating=True)

    def insert(self, class_name: str, object_name: str,
               view: str | None = None) -> None:
        """Insert a named object into a class extent."""
        self._membership(
            class_name,
            lambda: self._server.catalog.insert(class_name, object_name,
                                                view=view))

    def delete(self, class_name: str, object_name: str) -> None:
        """Remove a named object from a class's own extent."""
        self._membership(
            class_name,
            lambda: self._server.catalog.delete(class_name, object_name))

    def extent(self, class_name: str) -> list[dict]:
        """The materialized extent of a class, as Python dicts."""
        return self._statement(
            lambda s: self._server.catalog.extent(class_name),
            mutating=False)

    def query(self, class_name: str, fn_src: str):
        """A set-level query against a class extent.

        On a server with query optimization enabled, an indexed or
        cached-view read registers the same extent/location reads in
        this transaction's OCC read set that the scan it replaced would
        have — so it conflicts with concurrent updates exactly like a
        naive query."""
        return self._statement(
            lambda s: self._server.catalog.query(class_name, fn_src),
            mutating=False)

    def explain(self, class_name: str, fn_src: str) -> str:
        """Render the plan :meth:`query` would use (read-only)."""
        return self._statement(
            lambda s: self._server.catalog.explain(class_name, fn_src),
            mutating=False)


class ClientSession:
    """A client's handle on the server: submit transactions, get results.

    Thin and stateless — any number of threads may share one, or each
    thread may :meth:`Server.connect` its own.
    """

    __slots__ = ("_server",)

    def __init__(self, server: "Server"):
        self._server = server

    def run(self, fn, budget: Budget | None = None,
            timeout: float | None = None):
        """Run ``fn(txn)`` as one retried, atomic transaction.

        ``fn`` must be re-runnable: on conflict it is called again from
        scratch against a rolled-back view of the catalog.  Returns
        ``fn``'s result once the transaction commits.
        """
        return self._server.call(fn, budget=budget, timeout=timeout)

    def exec(self, src: str, budget: Budget | None = None,
             timeout: float | None = None):
        """One-shot write transaction around a single program."""
        return self.run(lambda txn: txn.exec(src), budget=budget,
                        timeout=timeout)

    def eval_py(self, src: str, budget: Budget | None = None,
                timeout: float | None = None):
        """One-shot read transaction around a single expression."""
        return self.run(lambda txn: txn.eval_py(src), budget=budget,
                        timeout=timeout)

    def update_object(self, name: str, label: str, value,
                      budget: Budget | None = None,
                      timeout: float | None = None) -> None:
        self.run(lambda txn: txn.update_object(name, label, value),
                 budget=budget, timeout=timeout)

    def extent(self, class_name: str, budget: Budget | None = None,
               timeout: float | None = None) -> list[dict]:
        return self.run(lambda txn: txn.extent(class_name), budget=budget,
                        timeout=timeout)


class Server:
    """A multi-client service over one shared catalog.

    Parameters
    ----------
    catalog:
        An existing catalog to serve.  When omitted, one is built — and
        if ``wal`` names an existing log, it is first **recovered**
        through :func:`repro.server.recover.recover` (the report lands in
        :attr:`recovery`).
    wal / snapshot:
        Paths for durability and startup recovery (optional).
    config:
        A :class:`ServerConfig`; defaults are test-friendly.

    Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, catalog: Catalog | None = None, *,
                 wal: str | None = None, snapshot: str | None = None,
                 config: ServerConfig | None = None,
                 wal_fsync: bool = True, optimize: bool = False):
        self.config = config if config is not None else ServerConfig()
        self.recovery: RecoveryReport | None = None
        if catalog is None:
            if wal is not None:
                catalog, self.recovery = recover(
                    wal, snapshot_path=snapshot, fsync=wal_fsync)
            else:
                catalog = Catalog()
        if optimize:
            # The planner consults this flag per evaluation, so enabling
            # it after recovery replay is safe (and means replay itself
            # ran naively, building no stale plan state).
            catalog.session.optimize = True
        self.catalog = catalog
        self.session = catalog.session
        self._lock = catalog.lock
        self._latches = LatchTable()
        self._queue = AdmissionQueue(self.config.queue_size)
        self._breaker = CircuitBreaker(self.config.breaker_threshold,
                                       self.config.breaker_cooldown)
        self.stats = ServerStats()
        self._stop = threading.Event()
        self._threads_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        for _ in range(self.config.workers):
            self._spawn_worker()

    # -- client API ---------------------------------------------------------

    def connect(self) -> ClientSession:
        """A new client handle (cheap; one per client thread is idiomatic)."""
        return ClientSession(self)

    def submit(self, fn, budget: Budget | None = None) -> _Request:
        """Admit a transaction; returns immediately with its request.

        Raises :class:`~repro.errors.OverloadedError` (shed load) when
        the queue is full — nothing was executed.
        """
        if self._stop.is_set():
            raise RuntimeError("server is closed")
        self.stats.incr("submitted")
        req = _Request(fn, budget)
        if budget is not None and not budget.enqueued:
            # The wire protocol anchors at frame receipt; anchor here
            # only for direct in-process submissions.
            budget.note_enqueued()
        try:
            self._queue.put(req)
        except OverloadedError as exc:
            self.stats.incr("shed")
            if exc.retry_after is None:
                exc.retry_after = self.suggest_retry_after()
            raise
        return req

    def wait(self, req: _Request, timeout: float | None = None):
        """Block for a request's result; re-raises its failure.

        On timeout the request is *abandoned*: a worker that picks it up
        (or is mid-retry) drops it at the next attempt boundary.
        """
        if not req.done.wait(timeout):
            req.abandoned = True
            raise TimeoutError(
                f"request #{req.seq} did not complete within {timeout}s")
        if req.error is not None:
            raise req.error
        return req.result

    def call(self, fn, budget: Budget | None = None,
             timeout: float | None = None):
        """``submit`` + ``wait`` in one step."""
        return self.wait(self.submit(fn, budget=budget), timeout=timeout)

    def execute_exclusive(self, fn):
        """Run ``fn(catalog)`` serially, excluding every transaction.

        The schema path: DDL (``new_object``, ``define_class``, …) mutates
        the session's type environment, which OCC does not version — so
        it runs under the catalog lock with the PR-2 all-or-nothing
        machinery instead.
        """
        with self._lock:
            return fn(self.catalog)

    # -- introspection ------------------------------------------------------

    @property
    def read_only(self) -> bool:
        """True while the persistence breaker refuses writes."""
        return not self._breaker.write_allowed()

    @property
    def breaker_state(self) -> str:
        return self._breaker.state

    def pending(self) -> int:
        return len(self._queue)

    def compile_snapshot(self) -> dict:
        """The served session's closure-compilation counters.

        Worker transactions execute through the shared session,
        so these count the programs the server actually lowered
        (``compiled_programs``), handed back to the interpreter
        (``compile_fallbacks``) and served from the program cache
        (``compile_cache_hits``).  Part of the ``stats`` wire operation
        and ``repro-server --stats``.
        """
        snap = self.session.compile_stats
        return {
            "compiled_programs": snap["programs_compiled"],
            "compile_fallbacks": snap["fallbacks"],
            "compile_cache_hits": snap["cache_hits"],
            "compile_invalidations": snap["invalidations"],
            "compiled_runs": snap["compiled_runs"],
        }

    def suggest_retry_after(self) -> float:
        """The explicit backoff hint attached to shed requests (seconds).

        Little's-law flavored: the current backlog divided over the
        worker pool, priced at the median observed service time — i.e.
        roughly when the queue will have drained to where a resubmission
        can be admitted.  Clamped to [5 ms, 2 s] so a cold server never
        hints zero and a deep backlog never tells clients to vanish.
        """
        per_request = self.stats.service_p50() or 0.005
        depth = len(self._queue)
        estimate = (depth + 1) * per_request / max(1, self.config.workers)
        return min(2.0, max(0.005, estimate))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop admitting, fail the backlog as shed, join the workers."""
        if self._stop.is_set():
            return
        self._stop.set()
        for req in self._queue.close():
            self.stats.incr("shed")
            req.fail(OverloadedError("server shut down before this "
                                     "request was served"))
        with self._threads_lock:
            threads = list(self._threads)
        for t in threads:
            t.join(timeout=5.0)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the worker pool ----------------------------------------------------

    def _spawn_worker(self) -> None:
        t = threading.Thread(target=self._worker_loop,
                             name="repro-server-worker", daemon=True)
        with self._threads_lock:
            self._threads.append(t)
        t.start()

    def _worker_loop(self) -> None:
        req: _Request | None = None
        try:
            while not self._stop.is_set():
                req = self._queue.get(timeout=self.config.poll_interval)
                if req is None:
                    continue
                fire("server.worker")  # the worker-death window
                started = time.perf_counter()
                self._process(req)
                self.stats.record_service(time.perf_counter() - started)
                req = None
        except BaseException:
            # Worker death: self-heal.  The request it held goes back to
            # the front of the queue (it was already admitted), and a
            # replacement thread takes this one's place.
            self.stats.incr("worker_deaths")
            if not self._stop.is_set():
                if req is not None and not req.done.is_set():
                    self._queue.put_front(req)
                self._spawn_worker()
        finally:
            with self._threads_lock:
                me = threading.current_thread()
                if me in self._threads:
                    self._threads.remove(me)

    def _process(self, req: _Request) -> None:
        budget = req.budget
        if budget is not None and budget.queue_expired():
            # The deadline died in the queue: shed load, not a failure of
            # anything we evaluated (nothing was).
            self.stats.incr("shed")
            req.fail(OverloadedError(
                f"request #{req.seq} spent {budget.queue_wait():.3f}s "
                "queued, past its deadline; shed without executing",
                retry_after=self.suggest_retry_after()))
            return
        if req.abandoned:
            return
        policy = self.config.retry
        rng = random.Random(req.seq)
        attempt = 0
        while True:
            txn = OCCTransaction(self._latches)
            handle = ClientTransaction(self, txn, budget)
            try:
                result = req.fn(handle)
                self._commit(txn, handle)
            except BaseException as exc:
                self._rollback(txn, handle)
                if isinstance(exc, ConflictError):
                    self.stats.incr("conflicts")
                if (policy.is_retriable(exc)
                        and attempt + 1 < policy.max_attempts
                        and not req.abandoned
                        and not self._stop.is_set()):
                    self.stats.incr("retries")
                    time.sleep(policy.backoff_for(exc, attempt, rng))
                    attempt += 1
                    continue
                self.stats.incr("failed")
                req.fail(exc)
                return
            handle._finished = True
            self.stats.incr("committed")
            req.finish(result)
            return

    def _commit(self, txn: OCCTransaction,
                handle: ClientTransaction) -> None:
        """Validate, flush the WAL, publish — all under the catalog lock."""
        with self._lock:
            fire("server.conflict")
            txn.validate()
            buffer = handle._wal_buffer
            if buffer and self.catalog.wal is not None:
                try:
                    self._breaker.run(lambda: self._flush_wal(buffer))
                except BaseException:
                    self.stats.incr("wal_failures")
                    raise
            txn.finalize()

    def _flush_wal(self, buffer: list[tuple[str, dict]]) -> None:
        """Group-commit the transaction's records as one WAL append."""
        if len(buffer) == 1:
            op, args = buffer[0]
            self.catalog.wal.append(op, args)
        else:
            self.catalog.wal.append(
                "txn", {"ops": [{"op": op, "args": args}
                                for op, args in buffer]})

    def _rollback(self, txn: OCCTransaction,
                  handle: ClientTransaction) -> None:
        with self._lock:
            txn.rollback()
            for class_name, old_own in reversed(handle._meta_undo):
                spec = self.catalog.classes.get(class_name)
                if spec is not None:
                    spec.own = list(old_own)
            handle._meta_undo.clear()
