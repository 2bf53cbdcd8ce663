"""The wire protocol: an asyncio socket front door for the server.

:class:`~repro.server.service.Server` is in-process only; this module
puts a real network boundary in front of it so the robustness properties
of the serving stack — OCC and retry, admission control, read-only
degradation, crash recovery — are exercised by *remote* clients with all
the failure modes a socket brings: disconnects, torn frames, slow
writers, oversized payloads.

Frames
------
Every message is one length-prefixed frame::

    +-------+----------------+------------------+
    | codec |  payload length |     payload      |
    | 1 byte|  4 bytes (!I)   |  `length` bytes  |
    +-------+----------------+------------------+

``codec`` is ``0x4A`` (``'J'``) for UTF-8 JSON or ``0x4D`` (``'M'``) for
msgpack when the optional ``msgpack`` package is installed; replies use
the request's codec.  A frame whose declared length exceeds the
configured maximum is **drained and refused** with a structured
``FrameTooLarge`` error — the connection stays usable for the frames
after it.

Requests and replies
--------------------
A request is an object ``{"op": ..., "id": ..., "deadline": ...}`` plus
per-op fields.  One-shot operations (``exec``, ``eval``, ``query``,
``extent``, ``update``, ``insert``, ``delete``, ``explain``) run as one
retried server transaction each.  Interactive transactions span frames:
``txn.begin`` / ``txn.op`` / ``txn.commit`` / ``txn.abort``, at most one
open per connection; a disconnect before the commit frame rolls the
transaction back, a disconnect after it leaves the commit durable —
never half-applied.  ``ping`` and ``stats`` are served inline.

Replies are ``{"id", "ok", "ro", "result"}`` or ``{"id", "ok": false,
"ro", "error": {"type", "message", "retryable", "retry_after"?}}``.
``ro`` surfaces the WAL circuit breaker's read-only state on *every*
reply, so clients observe degradation without a dedicated probe, and
``retry_after`` is the server's explicit backoff hint (see
:meth:`~repro.server.service.Server.suggest_retry_after`).

Admission at the protocol boundary
----------------------------------
* **Reader backpressure** — each connection has a bounded in-flight
  window; once full, the server simply stops reading frames (TCP pushes
  back) instead of buffering requests without bound.  The reader also
  pauses briefly while the admission queue is full.
* **Shedding** — a request the admission queue refuses gets a structured
  ``OverloadedError`` reply with ``retry_after``; the connection lives.
  One-shots enter it from the event loop.  ``txn.begin`` runs on the
  loop and is shed while the queue is full; the later frames of an
  admitted interactive transaction go ahead of every one-shot and are
  never shed.
* **Deadlines** — a request's ``deadline`` (seconds) becomes a
  :class:`~repro.runtime.budget.Budget` anchored at *frame receipt*, so
  protocol parsing and queue wait consume the same budget evaluation
  does, exactly like in-process enqueue-anchored budgets.
* **Slow-loris** — a frame that stalls mid-read past
  ``frame_timeout`` closes the connection (other clients unaffected),
  and an idle *open transaction* past ``txn_idle_timeout`` is rolled
  back so an abandoned client cannot hold a connection and its staged
  writes forever.

Exactly-once
------------
Clients attach generated request ids to mutating requests; committed
outcomes are remembered in a bounded LRU.  A retry of an
already-committed id — the reply was lost to a disconnect — replays the
recorded reply (``"replayed": true``) instead of re-executing, which is
what makes "commit durably or roll back cleanly" observable from the
client side of a mid-commit disconnect.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import (BudgetExceededError, ConflictError, FrameTooLargeError,
                      OverloadedError, ProtocolError, ReadOnlyError)
from ..runtime.budget import Budget
from ..runtime.faults import fire
from ..syntax.pretty import pretty_value
from .occ import OCCTransaction
from .service import ClientTransaction, Server, ServerConfig, ServerStats

try:  # msgpack is optional; JSON is always available
    import msgpack
except ImportError:  # pragma: no cover - exercised where msgpack exists
    msgpack = None

__all__ = ["PROTOCOL_VERSION", "CODEC_JSON", "CODEC_MSGPACK",
           "DEFAULT_MAX_FRAME", "encode_frame", "encode_payload",
           "decode_payload", "jsonable", "ProtocolConfig", "ProtocolStats",
           "ProtocolServer", "main"]

PROTOCOL_VERSION = 1

#: Frame header: one codec byte + a 4-byte big-endian payload length.
HEADER = struct.Struct("!BI")

CODEC_JSON = 0x4A    # 'J'
CODEC_MSGPACK = 0x4D  # 'M'

DEFAULT_MAX_FRAME = 1 << 20

#: One-shot request operations and the subset that mutates the catalog
#: (mutations participate in exactly-once dedup when they carry an id).
ONESHOT_OPS = ("exec", "eval", "query", "extent", "update", "insert",
               "delete", "explain")
MUTATING_OPS = frozenset({"exec", "update", "insert", "delete"})


# -- framing ----------------------------------------------------------------

def encode_payload(codec: int, obj) -> bytes:
    if codec == CODEC_JSON:
        return json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if codec == CODEC_MSGPACK:
        if msgpack is None:
            raise ProtocolError("msgpack codec requested but the msgpack "
                                "package is not installed")
        return msgpack.packb(obj, use_bin_type=True)
    raise ProtocolError(f"unknown frame codec byte 0x{codec:02X}")


def decode_payload(codec: int, data: bytes):
    try:
        if codec == CODEC_JSON:
            return json.loads(data.decode("utf-8"))
        if codec == CODEC_MSGPACK:
            if msgpack is None:
                raise ProtocolError("msgpack frame received but the msgpack "
                                    "package is not installed")
            return msgpack.unpackb(data, raw=False)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}")
    raise ProtocolError(f"unknown frame codec byte 0x{codec:02X}")


def encode_frame(obj, codec: int = CODEC_JSON) -> bytes:
    """One wire frame: header + encoded payload."""
    payload = encode_payload(codec, obj)
    return HEADER.pack(codec, len(payload)) + payload


def jsonable(value):
    """Fold evaluator results into wire-safe data (sets become lists)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [jsonable(v) for v in value]
        try:
            return sorted(items)
        except TypeError:
            return items
    return repr(value)


# -- statements shared by one-shots and interactive transactions ------------

def _render(value, store) -> "str | None":
    """An ``exec`` result as the wire carries it: its printed form."""
    return None if value is None else pretty_value(value, store)


def _apply_stmt(txn: ClientTransaction, stmt: dict):
    """Run one statement against a transaction handle."""
    op = stmt.get("op")

    def need(field: str):
        if field not in stmt:
            raise ProtocolError(f"'{op}' needs a '{field}' field")
        return stmt[field]

    if op == "exec":
        src = need("src")
        # Render the result while the statement still holds the
        # transaction's staging, so a record shows its own writes.
        return txn._statement(
            lambda s: _render(s._exec_inner(src, bind_it=False),
                              s.machine.store), mutating=True)
    if op == "eval":
        return txn.eval_py(need("src"))
    if op == "query":
        return txn.query(need("class"), need("fn"))
    if op == "explain":
        return txn.explain(need("class"), need("fn"))
    if op == "extent":
        return txn.extent(need("class"))
    if op == "update":
        return txn.update_object(need("object"), need("label"), need("value"))
    if op == "insert":
        return txn.insert(need("class"), need("object"), stmt.get("view"))
    if op == "delete":
        return txn.delete(need("class"), need("object"))
    raise ProtocolError(f"unknown statement operation '{op}'")


def error_payload(exc: BaseException) -> dict:
    """The structured error object of an error reply frame."""
    retryable = isinstance(exc, (ConflictError, OverloadedError,
                                 ReadOnlyError))
    payload = {"type": type(exc).__name__, "message": str(exc),
               "retryable": retryable}
    hint = getattr(exc, "retry_after", None)
    if hint is not None:
        payload["retry_after"] = hint
    if isinstance(exc, BudgetExceededError):
        payload["dimension"] = exc.dimension
    return payload


# -- configuration and stats ------------------------------------------------

@dataclass
class ProtocolConfig:
    """Tunables for one protocol front end."""

    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port; :meth:`ProtocolServer.start` returns it.
    port: int = 0
    #: Hard ceiling on a frame's declared payload length.
    max_frame: int = DEFAULT_MAX_FRAME
    #: Per-connection in-flight request window; the reader stops reading
    #: frames once it is full (TCP backpressure, not unbounded buffers).
    inflight_per_conn: int = 8
    #: Seconds a partially-received frame may stall before the
    #: connection is closed (the slow-loris guard).
    frame_timeout: float = 10.0
    #: Seconds an *open transaction* may sit idle before it is rolled
    #: back and its connection closed (abandoned clients).
    txn_idle_timeout: float = 30.0
    #: How long the reader pauses while the admission queue is full
    #: before letting the request through to be shed with a structured
    #: reply.
    backpressure_wait: float = 0.05
    backpressure_poll: float = 0.005
    #: Server-side completion wait for requests without a deadline.
    default_timeout: float = 30.0
    #: Entries in the exactly-once reply cache.
    dedup_cache: int = 1024


class ProtocolStats(ServerStats):
    """Wire-level counters, on the same machinery as `ServerStats`
    (its service-time ring buffer records frame-receipt-to-reply
    latency here)."""

    FIELDS = ("connections", "frames_in", "frames_out", "torn_frames",
              "frames_too_large", "slowloris_closed", "shed_replies",
              "deduped_replies", "txns_begun", "txns_committed",
              "txns_rolled_back", "protocol_errors")


class _WireTxn:
    """One interactive transaction, bound to one connection."""

    __slots__ = ("txn", "handle", "state")

    def __init__(self, txn: OCCTransaction, handle: ClientTransaction):
        self.txn = txn
        self.handle = handle
        self.state = "open"  # open | committed | aborted


class _Conn:
    """Per-connection protocol state."""

    __slots__ = ("reader", "writer", "sem", "wlock", "txn_lock", "tasks",
                 "wtxn", "last_txn_activity")

    def __init__(self, reader, writer, config: ProtocolConfig):
        self.reader = reader
        self.writer = writer
        self.sem = asyncio.Semaphore(config.inflight_per_conn)
        self.wlock = asyncio.Lock()
        self.txn_lock = asyncio.Lock()
        self.tasks: set = set()
        self.wtxn: _WireTxn | None = None
        self.last_txn_activity = time.monotonic()


class ProtocolServer:
    """The asyncio front door, serving one :class:`Server` over TCP.

    Runs its event loop in a dedicated thread so blocking callers (and
    tests) drive it naturally::

        with Server(wal="db.wal") as server:
            with ProtocolServer(server) as front:
                host, port = front.address
                ...

    The front end owns nothing durable — every commit still flows
    through the server's OCC, WAL group commit and circuit breaker — so
    closing it never loses state.
    """

    def __init__(self, server: Server, config: ProtocolConfig | None = None):
        self.server = server
        self.config = config if config is not None else ProtocolConfig()
        self.stats = ProtocolStats()
        self.address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._closing = False
        self._shutdown: asyncio.Event | None = None
        self._conns: set[_Conn] = set()
        self._handlers: set = set()
        self._dedup: OrderedDict = OrderedDict()
        self._dedup_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind and serve; returns the listening ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("protocol server already started")
        self._thread = threading.Thread(target=self._run_loop, daemon=True,
                                        name="repro-protocol")
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("protocol server failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self.address

    def close(self) -> None:
        """Stop accepting, roll back open transactions, join the loop."""
        if self._thread is None or self._closing:
            return
        self._closing = True
        loop = self._loop
        if loop is not None and self._shutdown is not None:
            try:
                loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:  # loop already closed
                pass
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "ProtocolServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        self._shutdown = asyncio.Event()
        cfg = self.config
        try:
            listener = await asyncio.start_server(
                self._handle_conn, cfg.host, cfg.port)
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        sock = listener.sockets[0]
        self.address = sock.getsockname()[:2]
        self._started.set()
        await self._shutdown.wait()
        listener.close()
        await listener.wait_closed()
        # Abort live connections; their handlers observe the reset, roll
        # back any open transaction, and finish.
        for conn in list(self._conns):
            try:
                conn.writer.transport.abort()
            except Exception:
                pass
        if self._handlers:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*list(self._handlers),
                                   return_exceptions=True), timeout=5.0)
            except asyncio.TimeoutError:  # pragma: no cover - safety net
                pass

    # -- the connection handler ---------------------------------------------

    async def _handle_conn(self, reader, writer) -> None:
        conn = _Conn(reader, writer, self.config)
        self.stats.incr("connections")
        self._conns.add(conn)
        self._handlers.add(asyncio.current_task())
        try:
            while not self._closing:
                event = await self._read_frame(conn)
                if event is None:
                    break
                if event == "handled":
                    continue
                codec, msg, arrival = event
                # The in-flight window: once full, this await blocks and
                # the reader stops pulling frames off the socket.
                await conn.sem.acquire()
                task = asyncio.ensure_future(
                    self._dispatch(conn, codec, msg, arrival))
                conn.tasks.add(task)

                def _done(t, conn=conn):
                    conn.tasks.discard(t)
                    conn.sem.release()

                task.add_done_callback(_done)
        finally:
            self._handlers.discard(asyncio.current_task())
            await self._cleanup_conn(conn)

    async def _read_frame(self, conn: _Conn):
        """Read one frame.

        Returns ``(codec, msg, arrival)``, ``"handled"`` when a framing
        error was answered in place (the connection stays usable), or
        ``None`` when the connection must close.
        """
        cfg = self.config
        reader = conn.reader
        # Reader backpressure: while the admission queue is full, stop
        # reading frames for a bounded moment instead of buffering them;
        # if the queue is still full afterwards the request is shed with
        # a structured reply rather than silently queued.
        waited = 0.0
        while (self.server.pending() >= self.server.config.queue_size
               and waited < cfg.backpressure_wait and not self._closing):
            await asyncio.sleep(cfg.backpressure_poll)
            waited += cfg.backpressure_poll
        codec = CODEC_JSON
        try:
            # First header byte: wait patiently (idle connections are
            # fine), but poll so an abandoned open transaction is rolled
            # back instead of being held open forever.
            first = None
            while first is None:
                if self._closing:
                    return None
                try:
                    first = await asyncio.wait_for(reader.readexactly(1),
                                                   timeout=1.0)
                except asyncio.TimeoutError:
                    wtxn = conn.wtxn
                    if (wtxn is not None and wtxn.state == "open"
                            and (time.monotonic() - conn.last_txn_activity
                                 > cfg.txn_idle_timeout)):
                        return None  # cleanup rolls the transaction back
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            return None  # clean close between frames
        arrival = time.monotonic()
        try:
            rest = await asyncio.wait_for(
                reader.readexactly(HEADER.size - 1),
                timeout=cfg.frame_timeout)
            codec, length = HEADER.unpack(first + rest)
            if length > cfg.max_frame:
                await asyncio.wait_for(self._drain(reader, length),
                                       timeout=cfg.frame_timeout)
                self.stats.incr("frames_too_large")
                await self._send_error(conn, None, codec, FrameTooLargeError(
                    f"frame of {length} bytes exceeds the {cfg.max_frame}"
                    "-byte limit; the payload was discarded and the "
                    "connection remains usable"))
                return "handled"
            payload = await asyncio.wait_for(reader.readexactly(length),
                                             timeout=cfg.frame_timeout)
        except asyncio.TimeoutError:
            # Slow-loris writer: a frame that stalls mid-read would pin
            # this connection's reader forever; cut it loose.
            self.stats.incr("slowloris_closed")
            await self._send_error(conn, None, codec, ProtocolError(
                f"frame stalled for more than {cfg.frame_timeout}s "
                "mid-read; closing this connection"))
            return None
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # Torn frame: the peer vanished mid-frame.  Nothing was
            # dispatched, so nothing needs undoing here; an open
            # interactive transaction is rolled back by cleanup.
            self.stats.incr("torn_frames")
            return None
        self.stats.incr("frames_in")
        try:
            msg = decode_payload(codec, payload)
            if not isinstance(msg, dict):
                raise ProtocolError("a request frame must decode to an "
                                    "object with an 'op' field")
        except ProtocolError as exc:
            self.stats.incr("protocol_errors")
            await self._send_error(conn, None, codec, exc, count=False)
            return "handled"
        return codec, msg, arrival

    @staticmethod
    async def _drain(reader, length: int) -> None:
        """Consume and discard an oversized frame's payload so the
        stream stays framed."""
        remaining = length
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                raise asyncio.IncompleteReadError(b"", remaining)
            remaining -= len(chunk)

    async def _cleanup_conn(self, conn: _Conn) -> None:
        self._conns.discard(conn)
        if conn.tasks:
            await asyncio.gather(*list(conn.tasks), return_exceptions=True)
        wtxn = conn.wtxn
        if wtxn is not None and wtxn.state == "open":
            # Disconnect mid-transaction (including a torn commit frame):
            # drop its staging, here on the loop.  A commit whose frame
            # *arrived* has already run to completion above — never
            # half-applied.
            self._txn_rollback(conn, wtxn)
        try:
            conn.writer.close()
        except Exception:
            pass

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self, conn: _Conn, codec: int, msg: dict,
                        arrival: float) -> None:
        rid = msg.get("id")
        try:
            fire("proto.frame")
            op = msg.get("op")
            if not isinstance(op, str):
                raise ProtocolError("request frame needs a string 'op'")
            if op == "ping":
                result = {"pong": True, "version": PROTOCOL_VERSION,
                          "read_only": self.server.read_only}
            elif op == "stats":
                result = self.stats_payload()
            elif op.startswith("txn."):
                await self._dispatch_txn(conn, codec, msg, arrival)
                return
            elif op in ONESHOT_OPS:
                cached = self._dedup_get(rid)
                if cached is not None:
                    self.stats.incr("deduped_replies")
                    await self._send_reply(conn, codec,
                                           dict(cached, replayed=True))
                    return
                result = await self._oneshot(msg, arrival)
            else:
                raise ProtocolError(f"unknown operation '{op}'")
            reply = {"id": rid, "ok": True, "ro": self.server.read_only,
                     "result": jsonable(result)}
            if rid is not None and op in MUTATING_OPS:
                self._dedup_put(rid, reply)
            self.stats.record_service(time.monotonic() - arrival)
        except asyncio.CancelledError:  # pragma: no cover - shutdown
            raise
        except BaseException as exc:
            await self._send_error(conn, rid, codec, exc)
            return
        await self._send_reply(conn, codec, reply)

    async def _dispatch_txn(self, conn: _Conn, codec: int, msg: dict,
                            arrival: float) -> None:
        """Interactive-transaction frames, serialized per connection."""
        rid = msg.get("id")
        op = msg["op"]
        async with conn.txn_lock:
            if op == "txn.commit":
                cached = self._dedup_get(rid)
                if cached is not None:
                    # The classic lost-ack window: this commit already
                    # happened; replay its recorded outcome.
                    self.stats.incr("deduped_replies")
                    await self._send_reply(conn, codec,
                                           dict(cached, replayed=True))
                    return
            if op == "txn.begin":
                result = self._txn_begin(conn, msg, arrival)
            else:
                result = await asyncio.wrap_future(self.server.submit_step(
                    lambda: self._run_txn_step(conn, msg, arrival)).future)
            reply = {"id": rid, "ok": True, "ro": self.server.read_only,
                     "result": jsonable(result)}
            if op == "txn.commit" and rid is not None:
                self._dedup_put(rid, reply)
            self.stats.record_service(time.monotonic() - arrival)
            await self._send_reply(conn, codec, reply)

    async def _send(self, conn: _Conn, codec: int, payload: dict) -> None:
        data = encode_frame(jsonable(payload), codec)
        async with conn.wlock:
            fire("proto.reply")
            conn.writer.write(data)
            await conn.writer.drain()
        self.stats.incr("frames_out")

    async def _send_reply(self, conn: _Conn, codec: int,
                          payload: dict) -> None:
        """Write a success reply; a failed write is a *lost ack*.

        The request's effects stand — a committed outcome is already in
        the dedup cache — so the transport is aborted and the client's
        same-id retry replays the recorded reply: exactly-once, never a
        second execution and never a silent hang."""
        try:
            await self._send(conn, codec, payload)
        except BaseException:
            try:
                conn.writer.transport.abort()
            except Exception:
                pass

    async def _send_error(self, conn: _Conn, rid, codec: int,
                          exc: BaseException, count: bool = True) -> None:
        if count:
            if isinstance(exc, OverloadedError):
                self.stats.incr("shed_replies")
            elif isinstance(exc, ProtocolError):
                self.stats.incr("protocol_errors")
        payload = {"id": rid, "ok": False, "ro": self.server.read_only,
                   "error": error_payload(exc)}
        try:
            await self._send(conn, codec, payload)
        except BaseException:
            # Even the error reply could not be written: abort so the
            # client observes a disconnect instead of waiting forever.
            try:
                conn.writer.transport.abort()
            except Exception:
                pass

    # -- request execution (server workers) ---------------------------------

    def _budget_for(self, msg: dict, arrival: float) -> Budget | None:
        deadline = msg.get("deadline")
        if deadline is None:
            return None
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise ProtocolError("'deadline' must be a number of seconds")
        if deadline <= 0:
            raise ProtocolError("'deadline' must be positive")
        budget = Budget(max_seconds=deadline, max_queue_wait=deadline)
        # Anchor at frame receipt: parsing, admission queueing and
        # evaluation all spend the same deadline.
        budget.note_enqueued(now=arrival)
        return budget

    async def _oneshot(self, msg: dict, arrival: float):
        """Admit a one-shot; past the completion wait, abandon it."""
        req = self.server.submit(lambda txn: _apply_stmt(txn, msg),
                                 budget=self._budget_for(msg, arrival))
        deadline = msg.get("deadline")  # a valid number, if set
        timeout = (float(deadline) + 1.0 if deadline is not None
                   else self.config.default_timeout)
        try:
            return await asyncio.wait_for(asyncio.wrap_future(req.future),
                                          timeout)
        except asyncio.TimeoutError:
            raise TimeoutError(f"request #{req.seq} did not complete "
                               f"within {timeout}s") from None

    def _txn_begin(self, conn: _Conn, msg: dict, arrival: float) -> dict:
        """Admit an interactive transaction, on the event loop.

        Beginning takes no lock and touches no catalog state, so it
        needs no worker.  It is the transaction's admission, though: a
        full queue or a closed server sheds it, counted the way
        :meth:`Server.submit` counts a shed one-shot."""
        if conn.wtxn is not None and conn.wtxn.state == "open":
            raise ProtocolError("a transaction is already open on this "
                                "connection")
        server = self.server
        budget = self._budget_for(msg, arrival)
        server.stats.incr("submitted")
        if (server._stop.is_set()
                or server.pending() >= server.config.queue_size):
            server.stats.incr("shed")
            raise OverloadedError(
                "no room for a new transaction (the request queue is "
                "full or the server is closed); back off and resubmit",
                retry_after=server.suggest_retry_after())
        txn = OCCTransaction()
        conn.wtxn = _WireTxn(txn, ClientTransaction(server, txn, budget))
        conn.last_txn_activity = time.monotonic()
        self.stats.incr("txns_begun")
        return {"txn": txn.txn_id}

    def _run_txn_step(self, conn: _Conn, msg: dict, arrival: float):
        op = msg["op"]
        server = self.server
        wtxn = conn.wtxn
        if op == "txn.abort":
            if wtxn is not None and wtxn.state == "open":
                self._txn_rollback(conn, wtxn)
            return {"aborted": True}
        if wtxn is None or wtxn.state != "open":
            raise ConflictError(
                "no transaction is open on this connection (it may have "
                "been rolled back after an error or a disconnect); re-run "
                "the transaction from the start")
        conn.last_txn_activity = time.monotonic()
        if op == "txn.op":
            stmt = msg.get("stmt")
            if not isinstance(stmt, dict):
                raise ProtocolError("txn.op needs a 'stmt' object")
            try:
                return _apply_stmt(wtxn.handle, stmt)
            except BaseException as exc:
                # One failed statement dooms the transaction: roll back
                # everything so no half-applied prefix can ever commit.
                if isinstance(exc, ConflictError):
                    server.stats.incr("conflicts")
                self._txn_rollback(conn, wtxn)
                server.stats.incr("failed")
                raise
        if op == "txn.commit":
            try:
                server._commit(wtxn.txn, wtxn.handle)
            except BaseException as exc:
                if isinstance(exc, ConflictError):
                    server.stats.incr("conflicts")
                self._txn_rollback(conn, wtxn)
                server.stats.incr("failed")
                raise
            wtxn.handle._finished = True
            wtxn.state = "committed"
            conn.wtxn = None
            server.stats.incr("committed")
            self.stats.incr("txns_committed")
            return {"committed": True}
        raise ProtocolError(f"unknown transaction operation '{op}'")

    def _txn_rollback(self, conn: _Conn, wtxn: _WireTxn) -> None:
        wtxn.txn.rollback()
        wtxn.handle._finished = True
        wtxn.state = "aborted"
        conn.wtxn = None
        self.stats.incr("txns_rolled_back")

    # -- dedup (exactly-once replies) ---------------------------------------

    def _dedup_get(self, rid) -> dict | None:
        if rid is None:
            return None
        with self._dedup_lock:
            hit = self._dedup.get(rid)
            if hit is not None:
                self._dedup.move_to_end(rid)
            return hit

    def _dedup_put(self, rid, reply: dict) -> None:
        with self._dedup_lock:
            self._dedup[rid] = reply
            self._dedup.move_to_end(rid)
            while len(self._dedup) > self.config.dedup_cache:
                self._dedup.popitem(last=False)

    # -- introspection ------------------------------------------------------

    def stats_payload(self) -> dict:
        """The ``stats`` wire operation's result (also what
        ``repro-server --stats`` prints)."""
        server = self.server
        return {
            "version": PROTOCOL_VERSION,
            "read_only": server.read_only,
            "breaker": server.breaker_state,
            "queue_depth": server.pending(),
            "queue_size": server.config.queue_size,
            "workers": server.config.workers,
            "server": server.stats.snapshot(),
            "compile": server.compile_snapshot(),
            "service": server.stats.service_summary(),
            "protocol": self.stats.snapshot(),
            "wire_service": self.stats.service_summary(),
        }


# -- the repro-server CLI ---------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve a repro catalog over the wire protocol, or "
                    "query a running server's stats.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7477)
    parser.add_argument("--wal", default=None,
                        help="WAL path (recovered on startup when present)")
    parser.add_argument("--snapshot", default=None)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-size", type=int, default=64)
    parser.add_argument("--optimize", action="store_true",
                        help="enable the query planner")
    parser.add_argument("--max-frame", type=int, default=DEFAULT_MAX_FRAME)
    parser.add_argument("--stats", action="store_true",
                        help="one-shot: print a running server's stats as "
                             "JSON and exit")
    args = parser.parse_args(argv)

    if args.stats:
        from ..client import Client
        client = Client(args.host, args.port, pool_size=1)
        try:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        finally:
            client.close()
        return 0

    config = ServerConfig(workers=args.workers, queue_size=args.queue_size)
    server = Server(wal=args.wal, snapshot=args.snapshot, config=config,
                    optimize=args.optimize)
    if server.recovery is not None:
        print(server.recovery.summary())
    front = ProtocolServer(server, ProtocolConfig(
        host=args.host, port=args.port, max_frame=args.max_frame))
    host, port = front.start()
    print(f"repro-server listening on {host}:{port}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        front.close()
        server.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
