"""Outside-in spans for the traced run of the end-to-end benchmark.

Nothing in ``src/`` knows about these spans.  ``server.py --trace``
replaces each layer's public entry point with a timing wrapper after the
catalog is populated and before it serves, and ``run.py`` wraps the
client's connect call in the load generator.  A span is one timed call,
kept as a list::

    [id, name, start, end, thread, parent, rid, info]

* ``start`` and ``end`` are ``time.monotonic_ns()`` readings.  Linux's
  CLOCK_MONOTONIC is shared by every process on the host, so server
  spans and the generator's op timestamps are on one clock.
* ``parent`` is the id of the enclosing span on the same thread, or 0.
* ``rid`` is the request the span served: the admission
  ``_Request.seq`` on worker threads and on the ``Server.call`` span
  that submitted it, the frame ``id`` on the event loop, else None.
* ``info`` names the exception that escaped the call, or holds a flag a
  layer's note set: ``hit``, ``fast`` or ``summary``.

A layer's self time is its span's duration minus the durations of its
child spans.  Two names are containers, not stages, and coverage leaves
them out: ``service.call``, whose work runs on a worker thread, and
``catalog.lock_hold``, during which the other stages run.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter, defaultdict
from time import monotonic_ns

ID, NAME, START, END, THREAD, PARENT, RID, INFO = range(8)

#: Every stage span name, in request order; ``<name>_us`` is its self
#: time per op.
STAGES = ("client.dial", "protocol.decode", "service.submit", "admission.put",
          "admission.queue_wait", "catalog.lock_wait", "regions.footprint",
          "interference.resolve", "parser.parse", "infer.infer",
          "compile.lookup", "eval.run", "transaction.snapshot",
          "occ.validate", "wal.append", "protocol.encode")


class Tracer:
    """The spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, first_id: int = 1):
        self.spans: list[list] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        #: Admission time of each queued request, keyed by its seq.
        self.enqueued: dict = {}

    def stack(self) -> list:
        """The calling thread's open spans, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.rid = None
            return self._local.stack

    def set_rid(self, rid) -> None:
        """Tag the calling thread's later spans with request ``rid``."""
        self.stack()
        self._local.rid = rid

    def _new(self, name: str, start: int, parent: int) -> list:
        return [next(self._ids), name, start, 0, threading.get_ident(),
                parent, self._local.rid, None]

    def record(self, name: str, start: int, end: int) -> None:
        """A finished span inside the thread's innermost open span."""
        stack = self.stack()
        span = self._new(name, start, stack[-1][ID] if stack else 0)
        span[END] = end
        self.spans.append(span)

    def begin(self, name: str, start: int) -> list:
        """A span that is closed by :meth:`end` and is nobody's parent."""
        self.stack()
        return self._new(name, start, 0)

    def end(self, span: list) -> None:
        span[END] = monotonic_ns()
        self.spans.append(span)

    def wrap(self, name: str, fn, note=None, before=None):
        """``fn``, timed as a span called ``name``.

        A call made while a span of the same name is open on the thread
        (recursion, a parse inside a parse) is not timed again.
        ``before(args)`` runs ahead of each timed call; after it returns,
        ``note(span, args, result, early)`` gets what ``before`` gave.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack()
            for frame in stack:
                if frame[NAME] == name:
                    return fn(*args, **kwargs)
            early = before(args) if before is not None else None
            span = tracer._new(name, monotonic_ns(),
                               stack[-1][ID] if stack else 0)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = type(exc).__name__
                raise
            finally:
                span[END] = monotonic_ns()
                stack.pop()
                tracer.spans.append(span)
            if note is not None:
                note(span, args, result, early)
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in list(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def load(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TimedLock:
    """A stand-in for the reentrant ``Catalog.lock`` that records
    ``catalog.lock_wait`` and ``catalog.lock_hold`` for each outermost
    acquire.  A hold that ends in an exception records its type."""

    def __init__(self, lock, tracer: Tracer):
        self._lock = lock
        self._tracer = tracer
        self._local = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        local = self._local
        depth = getattr(local, "depth", 0)
        if depth:
            got = self._lock.acquire(blocking, timeout)
        else:
            start = monotonic_ns()
            got = self._lock.acquire(blocking, timeout)
            now = monotonic_ns()
            self._tracer.record("catalog.lock_wait", start, now)
            if got:
                local.hold = self._tracer.begin("catalog.lock_hold", now)
        if got:
            local.depth = depth + 1
        return got

    def release(self) -> None:
        local = self._local
        local.depth -= 1
        if local.depth == 0:
            self._tracer.end(local.hold)
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, etype, exc, tb) -> None:
        if etype is not None and self._local.depth == 1:
            self._local.hold[INFO] = etype.__name__
        self.release()


def install_server(tracer: Tracer, catalog) -> None:
    """Time every layer of the serving stack in this process, at the
    names its callers look up, and swap ``catalog.lock`` for a
    :class:`TimedLock`.  Call before the ``Server`` is built: it keeps a
    reference to the catalog's lock."""
    from repro.compile.compiler import CompiledProgram
    from repro.compile.engine import CompileEngine
    from repro.db.wal import WriteAheadLog
    from repro.eval.machine import Machine
    from repro.lang import api
    from repro.runtime.transaction import SessionState
    from repro.server import protocol, service
    from repro.server.admission import AdmissionQueue
    from repro.server.occ import OCCTransaction
    from repro.syntax import parser

    def patch(owner, attr: str, name: str, **hooks) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    def frame_id_of_result(span, args, result, early):
        if isinstance(result, dict):
            span[RID] = result.get("id")

    def frame_id_of_arg(span, args, result, early):
        if isinstance(args[0], dict):
            span[RID] = args[0].get("id")

    def flag_summary(span, args, result, early):
        if args[0] is not None:
            span[INFO] = "summary"

    def claim_request(span, args, req, early):
        span[RID] = req.seq
        stack = tracer.stack()
        if stack and stack[-1][NAME] == "service.call":
            stack[-1][RID] = req.seq

    def note_enqueued(span, args, result, early):
        tracer.enqueued[args[1].seq] = span[END]

    def flag_hit(span, args, result, hits_before):
        if args[0].stats.cache_hits != hits_before:
            span[INFO] = "hit"

    def flag_fast(span, args, result, early):
        if args[0].fast:
            span[INFO] = "fast"

    # Module attributes, looked up by their callers on every call.
    patch(parser, "parse_program", "parser.parse")
    patch(parser, "parse_expression", "parser.parse")
    patch(protocol, "decode_payload", "protocol.decode",
          note=frame_id_of_result)
    patch(protocol, "encode_frame", "protocol.encode", note=frame_id_of_arg)
    patch(protocol, "jsonable", "protocol.encode")
    # Names imported into the calling module.
    patch(api, "infer", "infer.infer")
    patch(api, "infer_scheme", "infer.infer")
    patch(service, "program_footprint", "regions.footprint")
    patch(service, "resolve_footprint", "interference.resolve",
          note=flag_summary)
    # Methods.
    patch(service.Server, "call", "service.call")
    patch(service.Server, "submit", "service.submit", note=claim_request)
    patch(AdmissionQueue, "put", "admission.put", note=note_enqueued)
    patch(CompileEngine, "decide", "compile.lookup",
          before=lambda args: args[0].stats.cache_hits, note=flag_hit)
    patch(CompiledProgram, "run", "eval.run")
    patch(Machine, "eval", "eval.run")
    patch(OCCTransaction, "validate", "occ.validate", note=flag_fast)
    patch(WriteAheadLog, "append", "wal.append")
    SessionState.capture = classmethod(tracer.wrap(
        "transaction.snapshot", SessionState.__dict__["capture"].__func__))

    get = AdmissionQueue.get

    def dequeue(queue, timeout):
        req = get(queue, timeout)
        if req is not None:
            now = monotonic_ns()
            tracer.set_rid(req.seq)
            start = tracer.enqueued.pop(req.seq, None)
            if start is not None:
                tracer.record("admission.queue_wait", start, now)
        return req

    AdmissionQueue.get = dequeue
    catalog.lock = TimedLock(catalog.lock, tracer)


def install_client(tracer: Tracer):
    """Time the client's connect call; returns a function that undoes it."""
    from repro import client
    connect = client.socket.create_connection
    client.socket.create_connection = tracer.wrap("client.dial", connect)
    return lambda: setattr(client.socket, "create_connection", connect)


def layer_metrics(spans: list[list], t0: int, t1: int, *, ops: int,
                  writes: int, latency_ns: int, oneshot_latency_ns: int,
                  wal_bytes: int) -> dict:
    """Per-layer metrics of the spans that start in ``[t0, t1)``.

    ``ops`` and ``writes`` count the ops the generator completed in the
    window; ``latency_ns`` sums their client-side latency and
    ``oneshot_latency_ns`` that of the one-shot ones.  Times are self
    time per op in µs.  A ratio whose denominator is 0 is None.
    """
    children: Counter = Counter()
    covered: Counter = Counter()  # worker-side self time per request seq
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]] += span[END] - span[START]
    own = {span[ID]: span[END] - span[START] - children[span[ID]]
           for span in spans}
    for span in spans:
        if (isinstance(span[RID], int) and span[NAME] in STAGES
                and span[NAME] != "service.submit"):
            covered[span[RID]] += own[span[ID]]

    calls: Counter = Counter()
    flags: Counter = Counter()
    self_ns: defaultdict = defaultdict(int)
    held_ns = call_ns = other_ns = 0
    for span in spans:
        if not t0 <= span[START] < t1:
            continue
        name = span[NAME]
        calls[name] += 1
        flags[name, span[INFO]] += 1
        if name == "service.call":
            call_ns += span[END] - span[START]
            other_ns += own[span[ID]] - covered[span[RID]]
        elif name == "catalog.lock_hold":
            held_ns += span[END] - span[START]
        else:
            self_ns[name] += own[span[ID]]

    def per_op(ns: float) -> float:
        return ns / ops / 1e3

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None

    metrics = {f"{name}_us": per_op(self_ns[name]) for name in STAGES}
    one_shots = calls["service.call"]
    lookups = flags["interference.resolve", "summary"]
    metrics.update({
        "client.dials_per_op": calls["client.dial"] / ops,
        "protocol.frames_per_op": calls["protocol.decode"] / ops,
        "protocol.outside_call_us": (per_op(oneshot_latency_ns - call_ns)
                                     if one_shots else None),
        "admission.shed_per_op":
            flags["service.submit", "OverloadedError"] / ops,
        "service.call_us": per_op(call_ns) if one_shots else None,
        "service.other_us": per_op(other_ns) if one_shots else None,
        "catalog.lock_hold_us": per_op(held_ns),
        "catalog.lock_acquires_per_op": calls["catalog.lock_hold"] / ops,
        "parser.calls_per_op": calls["parser.parse"] / ops,
        "regions.summary_hit_ratio": (
            1 - calls["regions.footprint"] / lookups if lookups else None),
        "interference.fast_path_ratio": ratio(flags["occ.validate", "fast"],
                                              calls["occ.validate"]),
        "compile.cache_hit_ratio": ratio(flags["compile.lookup", "hit"],
                                         calls["compile.lookup"]),
        "occ.conflicts_per_commit":
            flags["catalog.lock_hold", "ConflictError"] / ops,
        "wal.appends_per_write": ratio(calls["wal.append"], writes),
        "wal.bytes_per_write": ratio(wal_bytes, writes),
        "trace.coverage": sum(self_ns.values()) / latency_ns,
    })
    return metrics
