"""repro.client — a thin blocking client for the wire protocol.

The network-facing counterpart of
:class:`repro.server.service.ClientSession`::

    from repro.client import Client

    client = Client(host, port)
    client.exec('query(fn x => update(x, Salary, 9), joe)')

    def give_raise(txn):
        salary = txn.eval_py("query(fn x => x.Salary, joe)")
        txn.update_object("joe", "Salary", salary + 500)

    client.run(give_raise)        # interactive txn, retried on conflict

What it adds over a socket:

* **connection pooling** — a small pool of persistent connections,
  re-dialed transparently when the server restarts or a worker respawn
  drops one mid-flight;
* **deadlines** — a per-request ``deadline`` (seconds) rides in the
  request frame and becomes the server's enqueue-anchored
  :class:`~repro.runtime.budget.Budget`; the client's socket timeout is
  the same clock, so both sides give up together instead of the client
  abandoning work the server still burns cycles on;
* **retries** — full-jitter exponential backoff on retriable errors
  (:class:`~repro.errors.ConflictError`,
  :class:`~repro.errors.OverloadedError`,
  :class:`~repro.errors.ReadOnlyError`) and on transport failures,
  preferring the server's explicit ``retry_after`` hint over computed
  jitter (:meth:`~repro.server.retry.RetryPolicy.backoff_for`);
* **exactly-once writes** — every mutating request carries a generated
  request id that is *stable across retries*; if a reply is lost to a
  disconnect, the retry replays the server's recorded outcome instead
  of re-executing the write.  A ``txn.commit`` whose acknowledgement
  vanished is probed with the same id on a fresh connection, so a
  mid-commit disconnect resolves to "committed" or "re-run", never
  "maybe".
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
import uuid
from contextlib import contextmanager

from . import errors as _errors_module
from .errors import (ConflictError, OverloadedError, ProtocolError,
                     ReadOnlyError, ReproError)
from .server.protocol import (CODEC_JSON, CODEC_MSGPACK, DEFAULT_MAX_FRAME,
                              HEADER, decode_payload, encode_frame)
from .server.retry import RetryPolicy

__all__ = ["Client", "WireTransaction", "exception_from_wire"]

#: Errors the client retries by default.  Conflicts mean "run me again";
#: overload and read-only mean "later" and usually carry retry_after.
DEFAULT_RETRY_ON = (ConflictError, OverloadedError, ReadOnlyError)

_ERROR_TYPES = {
    name: value for name, value in vars(_errors_module).items()
    if isinstance(value, type) and issubclass(value, ReproError)
}


def exception_from_wire(error: dict) -> BaseException:
    """Rebuild a raisable exception from a structured error object."""
    etype = error.get("type", "ReproError")
    message = error.get("message", "unknown server error")
    retry_after = error.get("retry_after")
    if etype == "OverloadedError":
        return OverloadedError(message, retry_after=retry_after)
    if etype == "ReadOnlyError":
        return ReadOnlyError(message, retry_after=retry_after)
    if etype == "BudgetExceededError":
        from .errors import BudgetExceededError
        return BudgetExceededError(message,
                                   dimension=error.get("dimension", "?"),
                                   limit=None)
    if etype == "TimeoutError":
        return TimeoutError(message)
    if etype == "InjectedFault":
        from .runtime.faults import InjectedFault
        return InjectedFault(message)
    cls = _ERROR_TYPES.get(etype)
    if cls is not None:
        try:
            exc = cls(message)
        except TypeError:  # a constructor needing extra arguments
            pass
        else:
            if retry_after is not None:
                # Preserve the server's backoff hint on every exception
                # type that carries one: the retry policy prefers it
                # over computed jitter.
                exc.retry_after = retry_after
            return exc
    return ReproError(f"{etype}: {message}")


class _Conn:
    """One pooled connection: a socket plus framing."""

    __slots__ = ("sock", "codec", "max_frame")

    def __init__(self, host: str, port: int, connect_timeout: float,
                 codec: int, max_frame: int):
        self.sock = socket.create_connection((host, port),
                                             timeout=connect_timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.codec = codec
        self.max_frame = max_frame

    def send(self, msg: dict) -> None:
        self.sock.sendall(encode_frame(msg, self.codec))

    def recv(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        header = self._recv_exact(HEADER.size, deadline)
        codec, length = HEADER.unpack(header)
        if length > self.max_frame:
            raise ProtocolError(f"server sent a {length}-byte frame, over "
                                f"this client's {self.max_frame}-byte limit")
        payload = self._recv_exact(length, deadline)
        msg = decode_payload(codec, payload)
        if not isinstance(msg, dict):
            raise ProtocolError("reply frame did not decode to an object")
        return msg

    def _recv_exact(self, n: int, deadline: float) -> bytes:
        chunks = []
        remaining = n
        while remaining > 0:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise socket.timeout("deadline expired awaiting a reply")
            self.sock.settimeout(budget)
            chunk = self.sock.recv(remaining)
            if not chunk:
                raise ConnectionResetError("server closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    @property
    def closed(self) -> bool:
        return self.sock.fileno() == -1


class WireTransaction:
    """The client-side handle of one interactive wire transaction.

    Mirrors :class:`~repro.server.service.ClientTransaction`: each
    method is one statement, one round trip.  The server rolls the whole
    transaction back on any statement error, so a failed statement means
    "re-run from the start" (which :meth:`Client.run` automates).
    """

    __slots__ = ("_client", "_conn", "_deadline", "_finished", "txn_id")

    def __init__(self, client: "Client", conn: _Conn,
                 deadline: float | None):
        self._client = client
        self._conn = conn
        self._deadline = deadline
        self._finished = False
        self.txn_id: int | None = None

    # -- statements ---------------------------------------------------------

    def exec(self, src: str):
        return self._stmt({"op": "exec", "src": src})

    def eval_py(self, src: str):
        return self._stmt({"op": "eval", "src": src})

    def query(self, class_name: str, fn_src: str):
        return self._stmt({"op": "query", "class": class_name, "fn": fn_src})

    def explain(self, class_name: str, fn_src: str) -> str:
        return self._stmt({"op": "explain", "class": class_name,
                           "fn": fn_src})

    def extent(self, class_name: str):
        return self._stmt({"op": "extent", "class": class_name})

    def update_object(self, name: str, label: str, value) -> None:
        self._stmt({"op": "update", "object": name, "label": label,
                    "value": value})

    def insert(self, class_name: str, object_name: str,
               view: str | None = None) -> None:
        self._stmt({"op": "insert", "class": class_name,
                    "object": object_name, "view": view})

    def delete(self, class_name: str, object_name: str) -> None:
        self._stmt({"op": "delete", "class": class_name,
                    "object": object_name})

    # -- lifecycle ----------------------------------------------------------

    def _begin(self) -> None:
        reply = self._roundtrip({"op": "txn.begin"})
        self.txn_id = reply["result"].get("txn")

    def _stmt(self, stmt: dict):
        if self._finished:
            raise RuntimeError("transaction is already finished")
        reply = self._roundtrip({"op": "txn.op", "stmt": stmt})
        return reply["result"]

    def _commit(self) -> dict:
        """Commit; on a lost acknowledgement, probe with the same id.

        An error reply leaves the transaction unfinished, so the caller
        aborts it, exactly as after a failed statement."""
        cid = self._client._new_id()
        try:
            reply = self._roundtrip({"op": "txn.commit", "id": cid})
        except (OSError, ConnectionError, socket.timeout):
            # The commit frame may or may not have arrived; the dedup
            # cache knows.  Probe on a fresh connection: a recorded
            # outcome replays, an unknown one raises a retriable
            # ConflictError ("re-run").
            self._finished = True
            return self._client._request({"op": "txn.commit"},
                                         request_id=cid,
                                         deadline=self._deadline,
                                         retry_errors=False)
        self._finished = True
        return reply

    def _abort(self) -> None:
        self._finished = True
        try:
            self._roundtrip({"op": "txn.abort"})
        except ReproError:
            # The server rolls back on disconnect anyway.
            self._conn.close()
            raise

    def _roundtrip(self, msg: dict) -> dict:
        if msg.get("id") is None:
            msg["id"] = self._client._new_id()
        if self._deadline is not None:
            msg["deadline"] = self._deadline
        timeout = self._client._recv_timeout(self._deadline)
        try:
            self._conn.send(msg)
            reply = self._conn.recv(timeout)
        except BaseException:
            # No whole reply: the stream is in an unknown state.
            self._conn.close()
            raise
        return self._client._accept(reply, msg["id"])


class Client:
    """A blocking, pooling, retrying client for one protocol server.

    Thread-safe: any number of threads may share one client; each
    in-flight request holds one pooled connection.

    Parameters
    ----------
    host, port:
        The protocol server's address.
    pool_size:
        Idle connections kept for reuse (in-flight requests may dial
        beyond this; the pool only bounds what is retained).
    deadline:
        Default per-request deadline in seconds (None = no deadline;
        the client still applies ``timeout`` to each socket read).
    retry:
        A :class:`~repro.server.retry.RetryPolicy`; the default retries
        conflicts, overload and read-only with full jitter, honoring
        server ``retry_after`` hints.
    codec:
        ``"json"`` (always available) or ``"msgpack"`` (needs the
        optional msgpack package on both ends).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7477, *,
                 pool_size: int = 2, deadline: float | None = None,
                 retry: RetryPolicy | None = None,
                 connect_timeout: float = 5.0, timeout: float = 30.0,
                 max_frame: int = DEFAULT_MAX_FRAME, codec: str = "json"):
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.deadline = deadline
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.max_frame = max_frame
        if codec == "json":
            self.codec = CODEC_JSON
        elif codec == "msgpack":
            self.codec = CODEC_MSGPACK
        else:
            raise ValueError(f"unknown codec '{codec}'")
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=6, base_delay=0.01, max_delay=0.5,
            retry_on=DEFAULT_RETRY_ON)
        self._rng = random.Random()
        self._token = uuid.uuid4().hex[:12]
        self._ids = itertools.count(1)
        self._pool: list[_Conn] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        #: The last reply's read-only flag — how a client observes the
        #: server's degradation state without a dedicated probe.
        self.server_read_only: bool | None = None

    # -- one-shot operations ------------------------------------------------

    def ping(self) -> dict:
        return self._call({"op": "ping"}, retry_errors=False)

    def stats(self) -> dict:
        """The server's own counters, queue depth and latency summary."""
        return self._call({"op": "stats"}, retry_errors=False)

    def exec(self, src: str, deadline: float | None = None):
        return self._call({"op": "exec", "src": src}, deadline=deadline)

    def eval_py(self, src: str, deadline: float | None = None):
        return self._call({"op": "eval", "src": src}, deadline=deadline)

    def query(self, class_name: str, fn_src: str,
              deadline: float | None = None):
        return self._call({"op": "query", "class": class_name,
                           "fn": fn_src}, deadline=deadline)

    def explain(self, class_name: str, fn_src: str,
                deadline: float | None = None) -> str:
        return self._call({"op": "explain", "class": class_name,
                           "fn": fn_src}, deadline=deadline)

    def extent(self, class_name: str, deadline: float | None = None):
        return self._call({"op": "extent", "class": class_name},
                          deadline=deadline)

    def update_object(self, name: str, label: str, value,
                      deadline: float | None = None) -> None:
        self._call({"op": "update", "object": name, "label": label,
                    "value": value}, deadline=deadline)

    def insert(self, class_name: str, object_name: str,
               view: str | None = None,
               deadline: float | None = None) -> None:
        self._call({"op": "insert", "class": class_name,
                    "object": object_name, "view": view}, deadline=deadline)

    def delete(self, class_name: str, object_name: str,
               deadline: float | None = None) -> None:
        self._call({"op": "delete", "class": class_name,
                    "object": object_name}, deadline=deadline)

    # -- interactive transactions -------------------------------------------

    @contextmanager
    def transaction(self, deadline: float | None = None):
        """One unretried interactive transaction (commit on clean exit,
        abort on exception).  Prefer :meth:`run` for conflict retry."""
        deadline = deadline if deadline is not None else self.deadline
        conn = self._acquire()
        txn = WireTransaction(self, conn, deadline)
        try:
            txn._begin()
            yield txn
            txn._commit()
        except BaseException:
            if txn.txn_id is not None and not txn._finished:
                try:
                    txn._abort()
                except BaseException:
                    pass
            raise
        finally:
            # A connection that lost a reply was closed on the spot; one
            # whose last reply arrived whole, error or not, still works.
            self._release(conn)

    def run(self, fn, deadline: float | None = None):
        """Run ``fn(txn)`` as one atomic wire transaction, retried.

        ``fn`` must be re-runnable, exactly like the in-process
        :meth:`~repro.server.service.ClientSession.run`: on conflict,
        overload, a server restart or a lost connection, the whole body
        is re-run against a rolled-back view.
        """
        policy = self.retry
        attempt = 0
        while True:
            try:
                with self.transaction(deadline=deadline) as txn:
                    result = fn(txn)
                return result
            except BaseException as exc:
                transient = isinstance(
                    exc, (ConnectionError, socket.timeout, OSError))
                if ((policy.is_retriable(exc) or transient)
                        and attempt + 1 < policy.max_attempts
                        and not self._closed):
                    time.sleep(policy.backoff_for(exc, attempt, self._rng))
                    attempt += 1
                    continue
                raise

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the request core ---------------------------------------------------

    def _new_id(self) -> str:
        return f"{self._token}-{next(self._ids)}"

    def _recv_timeout(self, deadline: float | None) -> float:
        # The socket wait slightly outlives the server-side deadline so
        # a deadline failure arrives as a structured reply, not a
        # client-side timeout racing it.
        if deadline is not None:
            return deadline + 2.0
        return self.timeout

    def _call(self, msg: dict, deadline: float | None = None,
              retry_errors: bool = True):
        deadline = deadline if deadline is not None else self.deadline
        reply = self._request(msg, request_id=self._new_id(),
                              deadline=deadline, retry_errors=retry_errors)
        return reply.get("result")

    def _request(self, msg: dict, *, request_id: str,
                 deadline: float | None, retry_errors: bool) -> dict:
        """Send one logical request, retrying transport and (optionally)
        retriable error replies.  The request id is stable across every
        attempt — that is what makes retried writes exactly-once."""
        if self._closed:
            raise RuntimeError("client is closed")
        policy = self.retry
        attempt = 0
        while True:
            msg_out = dict(msg, id=request_id)
            if deadline is not None:
                msg_out["deadline"] = deadline
            conn = None
            try:
                conn = self._acquire()
                conn.send(msg_out)
                reply = conn.recv(self._recv_timeout(deadline))
            except (OSError, ConnectionError, socket.timeout) as exc:
                if conn is not None:
                    conn.close()
                if attempt + 1 < policy.max_attempts and not self._closed:
                    time.sleep(policy.backoff(attempt, self._rng))
                    attempt += 1
                    continue
                raise ConnectionError(
                    f"request to {self.host}:{self.port} failed after "
                    f"{attempt + 1} attempts: {exc}") from exc
            # A whole reply arrived, so the connection is reusable whether
            # the reply carries a result or an error.
            self._release(conn)
            try:
                return self._accept(reply, request_id)
            except BaseException as exc:
                if (retry_errors and policy.is_retriable(exc)
                        and attempt + 1 < policy.max_attempts
                        and not self._closed):
                    time.sleep(policy.backoff_for(exc, attempt, self._rng))
                    attempt += 1
                    continue
                raise

    def _accept(self, reply: dict, request_id) -> dict:
        """Validate a reply frame; raise its error if it carries one."""
        self.server_read_only = reply.get("ro")
        rid = reply.get("id")
        if rid is not None and rid != request_id:
            raise ProtocolError(f"reply id {rid!r} does not match request "
                                f"id {request_id!r}")
        if reply.get("ok"):
            return reply
        raise exception_from_wire(reply.get("error", {}))

    # -- the pool -----------------------------------------------------------

    def _acquire(self) -> _Conn:
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
        return _Conn(self.host, self.port, self.connect_timeout,
                     self.codec, self.max_frame)

    def _release(self, conn: _Conn) -> None:
        if conn.closed or self._closed:
            conn.close()
            return
        with self._pool_lock:
            if len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()
