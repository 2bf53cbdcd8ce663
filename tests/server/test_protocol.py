"""The wire protocol: framing, roundtrips, admission and degradation.

Network *fault* scenarios (torn frames, disconnects mid-commit,
slow-loris) live in ``test_protocol_faults.py``; client reconnect
semantics in ``test_client_reconnect.py``.  This file covers the happy
paths and the protocol-boundary admission behavior: backpressure,
shedding with ``retry_after``, read-only surfacing, deadlines and
exactly-once dedup.
"""

import sys
import threading
import time

import pytest

from repro.client import Client, exception_from_wire
from repro.db.catalog import Catalog
from repro.errors import (BudgetExceededError, ConflictError, EvalError,
                          OverloadedError, ProtocolError, ReadOnlyError)
from repro.runtime.faults import inject
from repro.server import Server, ServerConfig
from repro.server.protocol import (CODEC_JSON, CODEC_MSGPACK, HEADER,
                                   PROTOCOL_VERSION, ProtocolConfig,
                                   ProtocolServer, decode_payload,
                                   encode_frame, encode_payload, jsonable)
from repro.server.retry import RetryPolicy


def _catalog():
    cat = Catalog()
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("amy", Name="Amy", mutable={"Salary": 200})
    cat.define_class("Emp", own=["joe"])
    return cat


@pytest.fixture()
def stack():
    cat = _catalog()
    with Server(cat, config=ServerConfig(workers=2)) as server:
        with ProtocolServer(server) as front:
            client = Client(*front.address)
            try:
                yield cat, server, front, client
            finally:
                client.close()


# -- framing ----------------------------------------------------------------

def test_frame_roundtrip_json():
    msg = {"op": "exec", "src": "1 + 1", "id": "x-1", "n": [1, 2, 3]}
    frame = encode_frame(msg, CODEC_JSON)
    codec, length = HEADER.unpack(frame[:HEADER.size])
    assert codec == CODEC_JSON
    assert length == len(frame) - HEADER.size
    assert decode_payload(codec, frame[HEADER.size:]) == msg


def test_unknown_codec_rejected():
    with pytest.raises(ProtocolError):
        encode_payload(0x00, {"op": "ping"})
    with pytest.raises(ProtocolError):
        decode_payload(0x00, b"{}")


def test_msgpack_codec_gated_or_functional():
    # msgpack is optional: with the package absent the codec must fail
    # *structurally* (ProtocolError), never with an ImportError.
    from repro.server import protocol
    if protocol.msgpack is None:
        with pytest.raises(ProtocolError):
            encode_payload(CODEC_MSGPACK, {"op": "ping"})
        with pytest.raises(ProtocolError):
            decode_payload(CODEC_MSGPACK, b"\x80")
    else:  # pragma: no cover - image has no msgpack
        msg = {"op": "ping", "id": "m-1"}
        assert decode_payload(
            CODEC_MSGPACK, encode_payload(CODEC_MSGPACK, msg)) == msg


def test_undecodable_payload_maps_to_protocol_error():
    with pytest.raises(ProtocolError):
        decode_payload(CODEC_JSON, b"{not json")


def test_jsonable_folds_sets_and_objects():
    assert jsonable({1, 3, 2}) == [1, 2, 3]
    assert jsonable({"k": (1, 2)}) == {"k": [1, 2]}
    assert jsonable(None) is None


def test_exception_from_wire_mapping():
    exc = exception_from_wire({"type": "OverloadedError", "message": "full",
                               "retry_after": 0.25})
    assert isinstance(exc, OverloadedError)
    assert exc.retry_after == 0.25
    assert isinstance(exception_from_wire(
        {"type": "ReadOnlyError", "message": "ro"}), ReadOnlyError)
    assert isinstance(exception_from_wire(
        {"type": "EvalError", "message": "boom"}), EvalError)
    assert isinstance(exception_from_wire(
        {"type": "BudgetExceededError", "message": "slow",
         "dimension": "seconds"}), BudgetExceededError)
    assert isinstance(exception_from_wire(
        {"type": "NoSuchError", "message": "?"}), Exception)


# -- roundtrips -------------------------------------------------------------

def test_ping_and_version(stack):
    _, _, _, client = stack
    pong = client.ping()
    assert pong["pong"] is True
    assert pong["version"] == PROTOCOL_VERSION


def test_oneshot_statements_over_the_wire(stack):
    cat, _, _, client = stack
    assert client.extent("Emp") == [{"Name": "Joe", "Salary": 100}]
    client.update_object("joe", "Salary", 150)
    assert client.eval_py("query(fn x => x.Salary, joe)") == 150
    client.insert("Emp", "amy")
    assert client.query("Emp", "fn S => size(S)") == 2
    assert "extent(Emp)" in client.explain("Emp", "fn S => size(S)")
    client.delete("Emp", "amy")
    assert len(client.extent("Emp")) == 1
    assert cat.extent("Emp")[0]["Salary"] == 150


def test_evaluation_error_comes_back_typed(stack):
    from repro.errors import KindError
    _, _, _, client = stack
    with pytest.raises(KindError):
        client.eval_py("query(fn x => x.NoSuchField, joe)")
    # The connection (and the server) survive a failed statement.
    assert client.ping()["pong"] is True


def test_unknown_operation_is_a_protocol_error(stack):
    _, _, _, client = stack
    with pytest.raises(ProtocolError):
        client._call({"op": "warp-core"}, retry_errors=False)
    assert client.ping()["pong"] is True


def test_stats_wire_op(stack):
    _, server, front, client = stack
    client.update_object("joe", "Salary", 1)
    st = client.stats()
    assert st["version"] == PROTOCOL_VERSION
    assert st["read_only"] is False
    assert st["queue_size"] == server.config.queue_size
    assert st["server"]["committed"] >= 1
    assert st["protocol"]["frames_in"] >= 2
    assert "p99_ms" in st["wire_service"]


# -- interactive transactions -----------------------------------------------

def test_wire_transaction_commit(stack):
    cat, _, front, client = stack

    def mixed(txn):
        txn.insert("Emp", "amy")
        salary = txn.eval_py("query(fn x => x.Salary, joe)")
        txn.update_object("joe", "Salary", salary + 1)
        return sorted(r["Name"] for r in txn.extent("Emp"))

    assert client.run(mixed) == ["Amy", "Joe"]
    assert cat.extent("Emp")[0]["Salary"] == 101
    assert front.stats.txns_committed == 1


def test_wire_exec_result_shows_the_transactions_own_writes(stack):
    # The rendered result of a wire exec reads each field through the
    # transaction's staging, as eval_py does: it shows the staged 999,
    # not the committed 100.
    cat, _, _, client = stack

    class Abort(Exception):
        pass

    with pytest.raises(Abort):
        with client.transaction() as txn:
            txn.update_object("joe", "Salary", 999)
            assert txn.exec("query(fn x => x, joe)") == (
                '[Name = "Joe", Salary := 999]')
            assert txn.eval_py("query(fn x => x.Salary, joe)") == 999
            raise Abort()
    assert client.exec("query(fn x => x, joe)") == (
        '[Name = "Joe", Salary := 100]')
    assert cat.extent("Emp")[0]["Salary"] == 100


def test_wire_exec_of_a_placeholder_is_a_lex_error(stack):
    # ``#`` is where a lifted key holds an int literal, so this text
    # equals the key of the cached shape; it must still fail to lex, and
    # stage nothing.
    from repro.errors import LexError
    cat, _, _, client = stack
    client.exec("query(fn x => update(x, Salary, 5), joe)")
    with pytest.raises(LexError):
        client.exec("query(fn x => update(x, Salary, #), joe)")
    assert cat.extent("Emp")[0]["Salary"] == 5
    assert client.eval_py("query(fn x => x.Salary, joe)") == 5


def test_wire_transaction_statement_error_rolls_back_all(stack):
    from repro.errors import KindError
    cat, _, front, client = stack
    with pytest.raises(KindError):
        with client.transaction() as txn:
            txn.update_object("joe", "Salary", 999)
            txn.insert("Emp", "amy")
            txn.eval_py("query(fn x => x.NoSuchField, joe)")
    # Everything rolled back — store values and class membership alike.
    assert cat.extent("Emp") == [{"Name": "Joe", "Salary": 100}]
    assert front.stats.txns_rolled_back == 1


def test_wire_transaction_client_abort(stack):
    cat, _, front, client = stack

    class Nope(Exception):
        pass

    with pytest.raises(Nope):
        with client.transaction() as txn:
            txn.update_object("joe", "Salary", 999)
            raise Nope()
    assert cat.extent("Emp")[0]["Salary"] == 100
    assert front.stats.txns_rolled_back == 1
    # The connection went back to the pool healthy.
    assert client.eval_py("query(fn x => x.Salary, joe)") == 100


def test_wire_transactions_conflict_and_retry(stack):
    # Two clients increment the same salary concurrently through wire
    # transactions; OCC plus client-side retry must not lose an update.
    cat, _, front, _ = stack
    host, port = front.address
    barrier = threading.Barrier(2)

    def bump():
        attempts = [0]
        with Client(host, port) as c:
            def body(txn):
                attempts[0] += 1
                salary = txn.eval_py("query(fn x => x.Salary, joe)")
                if attempts[0] == 1:
                    # Rendezvous once so both first attempts overlap;
                    # retries run free.
                    barrier.wait(timeout=10)
                txn.update_object("joe", "Salary", salary + 1)
            c.run(body)

    threads = [threading.Thread(target=bump) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert cat.extent("Emp")[0]["Salary"] == 102


# -- exactly-once dedup -----------------------------------------------------

def test_mutating_request_with_same_id_replays(stack):
    cat, _, front, client = stack
    rid = client._new_id()
    msg = {"op": "update", "object": "joe", "label": "Salary", "value": 7}
    first = client._request(msg, request_id=rid, deadline=None,
                            retry_errors=False)
    assert not first.get("replayed")
    second = client._request(msg, request_id=rid, deadline=None,
                             retry_errors=False)
    assert second.get("replayed") is True
    assert front.stats.deduped_replies == 1
    assert cat.extent("Emp")[0]["Salary"] == 7


def test_reads_are_not_deduped(stack):
    _, _, front, client = stack
    rid = client._new_id()
    msg = {"op": "extent", "class": "Emp"}
    client._request(msg, request_id=rid, deadline=None, retry_errors=False)
    reply = client._request(msg, request_id=rid, deadline=None,
                            retry_errors=False)
    assert not reply.get("replayed")
    assert front.stats.deduped_replies == 0


# -- admission at the protocol boundary -------------------------------------

def test_overload_sheds_with_retry_after(tmp_path):
    cat = _catalog()
    config = ServerConfig(workers=1, queue_size=1)
    with Server(cat, config=config) as server:
        with ProtocolServer(server) as front:
            host, port = front.address
            release = threading.Event()
            started = threading.Event()

            def blocker(txn):
                started.set()
                release.wait(10)

            server.submit(blocker)
            assert started.wait(10)
            server.submit(lambda txn: None)  # fills the queue
            # No client-side retries: observe the raw shed.
            with Client(host, port, retry=__import__(
                    "repro.server.retry", fromlist=["RetryPolicy"]
                    ).RetryPolicy(max_attempts=1)) as c:
                with pytest.raises(OverloadedError) as info:
                    c.update_object("joe", "Salary", 1)
            assert info.value.retry_after is not None
            assert info.value.retry_after > 0
            assert front.stats.shed_replies >= 1
            release.set()


def test_client_retries_shed_requests_until_capacity_returns(tmp_path):
    cat = _catalog()
    config = ServerConfig(workers=1, queue_size=1)
    with Server(cat, config=config) as server:
        with ProtocolServer(server) as front:
            host, port = front.address
            release = threading.Event()
            started = threading.Event()

            def blocker(txn):
                started.set()
                release.wait(10)

            server.submit(blocker)
            assert started.wait(10)
            server.submit(lambda txn: None)
            # The saturating work finishes shortly; the client's jittered
            # retries (honoring retry_after) ride out the overload.
            timer = threading.Timer(0.1, release.set)
            timer.start()
            try:
                with Client(host, port) as c:
                    c.update_object("joe", "Salary", 3)
            finally:
                timer.cancel()
            assert cat.extent("Emp")[0]["Salary"] == 3


def test_read_only_mode_surfaces_over_the_wire(tmp_path):
    cat = Catalog(wal=str(tmp_path / "db.wal"))
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.define_class("Emp", own=["joe"])
    config = ServerConfig(breaker_threshold=1, breaker_cooldown=30.0)
    with Server(cat, config=config) as server:
        with ProtocolServer(server) as front:
            host, port = front.address
            healthy_append = cat.wal.append

            def dead_disk(op, args):
                raise OSError("injected: disk gone")

            with Client(host, port) as c:
                cat.wal.append = dead_disk
                with pytest.raises(Exception):
                    c.update_object("joe", "Salary", 2)
                assert server.read_only
                # Writes now refuse up front with a retry hint; the ro
                # flag rides on every reply, reads included.
                from repro.server.retry import RetryPolicy
                c.retry = RetryPolicy(max_attempts=1)
                with pytest.raises(ReadOnlyError) as info:
                    c.update_object("joe", "Salary", 2)
                assert info.value.retry_after is not None
                assert c.server_read_only is True
                assert c.extent("Emp")[0]["Salary"] == 100
                assert c.server_read_only is True
                assert c.stats()["read_only"] is True
                cat.wal.append = healthy_append


def test_deadline_is_enforced_end_to_end(tmp_path):
    # A request whose deadline expires while it waits behind a slow one
    # is shed (queue-expired), not evaluated late.
    cat = _catalog()
    config = ServerConfig(workers=1, queue_size=8)
    with Server(cat, config=config) as server:
        with ProtocolServer(server) as front:
            host, port = front.address
            release = threading.Event()
            started = threading.Event()

            def blocker(txn):
                started.set()
                release.wait(10)

            server.submit(blocker)
            assert started.wait(10)
            try:
                from repro.server.retry import RetryPolicy
                with Client(host, port,
                            retry=RetryPolicy(max_attempts=1)) as c:
                    t0 = time.monotonic()
                    # Shed at dequeue when a worker frees up in time
                    # (Overloaded/BudgetExceeded), or the bounded
                    # completion wait expires first (TimeoutError) —
                    # either way the failure is prompt and nothing runs.
                    with pytest.raises((OverloadedError,
                                        BudgetExceededError,
                                        TimeoutError)):
                        c.update_object("joe", "Salary", 9, deadline=0.1)
                    # The failure arrived promptly — bounded by the
                    # deadline, not by the blocker's duration.
                    assert time.monotonic() - t0 < 5.0
            finally:
                release.set()
            assert cat.extent("Emp")[0]["Salary"] == 100


def test_inflight_window_serializes_but_completes(tmp_path):
    # More concurrent requests than the per-connection window: the
    # reader simply stops pulling frames (TCP backpressure); every
    # request still completes.
    cat = _catalog()
    with Server(cat, config=ServerConfig(workers=2)) as server:
        cfg = ProtocolConfig(inflight_per_conn=2)
        with ProtocolServer(server, cfg) as front:
            host, port = front.address
            with Client(host, port, pool_size=1) as c:
                results = [c.eval_py("query(fn x => x.Salary, joe)")
                           for _ in range(12)]
            assert results == [100] * 12
            assert front.stats.frames_in >= 12


def test_oneshot_requests_reuse_the_pooled_connection(stack):
    # A successful one-shot returns its connection to the pool, so a
    # run of sequential requests dials once, not once per request.
    _, _, front, _ = stack
    with Client(*front.address, pool_size=1) as c:
        results = [c.eval_py("query(fn x => x.Salary, joe)")
                   for _ in range(20)]
    assert results == [100] * 20
    assert front.stats.snapshot()["connections"] == 1


def test_commit_error_reply_keeps_the_pooled_connection(stack):
    # A commit refused with an error reply (here a stale read) arrived
    # whole, so its connection still works and goes back to the pool.
    _, _, front, _ = stack
    with Client(*front.address, pool_size=1) as c, \
            Client(*front.address, pool_size=1) as other:
        with pytest.raises(ConflictError):
            with c.transaction() as txn:
                txn.eval_py("query(fn x => x.Salary, joe)")
                other.update_object("joe", "Salary", 7)
        dialed = front.stats.snapshot()["connections"]
        assert c.eval_py("query(fn x => x.Salary, joe)") == 7
        assert front.stats.snapshot()["connections"] == dialed


def test_lost_commit_ack_does_not_pool_the_closed_socket(stack):
    # The commit's ack is lost: the transaction closes its socket and
    # probes on a fresh connection.  Only the working one is pooled.
    cat, _, front, _ = stack
    with Client(*front.address) as c:
        with inject("proto.reply", at=3):  # begin, op, then the commit
            with c.transaction() as txn:
                txn.update_object("joe", "Salary", 321)
        assert front.stats.deduped_replies == 1
        assert c._pool and all(conn.sock.fileno() != -1
                               for conn in c._pool)
        assert c.ping()["pong"] is True
    assert cat.extent("Emp")[0]["Salary"] == 321


def test_open_transaction_does_not_block_other_connections(stack):
    _, _, front, client = stack
    host, port = front.address
    with Client(host, port) as other:
        with client.transaction() as txn:
            txn.update_object("joe", "Salary", 500)
            # A second connection keeps serving disjoint work while the
            # first holds an open transaction (and its staged write).
            assert other.eval_py("query(fn x => x.Salary, amy)") == 200
            other.update_object("amy", "Salary", 250)
        assert other.eval_py("query(fn x => x.Salary, joe)") == 500
        assert other.eval_py("query(fn x => x.Salary, amy)") == 250


# -- one pool, one queue ----------------------------------------------------

def _wait_until(cond, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.002)


def _block_worker(server):
    """Occupy one server worker until the returned event is set."""
    release, started = threading.Event(), threading.Event()

    def blocker(txn):
        started.set()
        release.wait(10)

    held = server.submit(blocker)
    assert started.wait(10)
    return release, held


def test_admission_queue_sees_wire_requests():
    # A one-shot goes from the event loop straight into the admission
    # queue, so with the only worker busy the queue fills to its bound
    # and the excess is shed with a retry_after hint.
    cat = _catalog()
    with Server(cat, config=ServerConfig(workers=1,
                                         queue_size=8)) as server:
        with ProtocolServer(server) as front:
            release, held = _block_worker(server)
            outcomes = []

            def one_shot():
                with Client(*front.address,
                            retry=RetryPolicy(max_attempts=1)) as c:
                    try:
                        outcomes.append(
                            c.eval_py("query(fn x => x.Salary, joe)"))
                    except OverloadedError as exc:
                        outcomes.append(exc)

            threads = [threading.Thread(target=one_shot) for _ in range(12)]
            for t in threads:
                t.start()
            peak = 0

            def saturated():
                nonlocal peak
                peak = max(peak, server.pending())
                return peak >= 8 and len(outcomes) >= 4

            try:
                _wait_until(saturated)
            finally:
                release.set()
            for t in threads:
                t.join(timeout=30)
            server.wait(held, timeout=10)
    assert not any(t.is_alive() for t in threads)
    shed = [o for o in outcomes if isinstance(o, OverloadedError)]
    assert peak == 8
    assert len(shed) == 4
    assert all(exc.retry_after > 0 for exc in shed)
    assert outcomes.count(100) == 8


def test_txn_begin_is_shed_when_the_queue_is_full():
    # The only worker is busy and one one-shot fills the queue.  A new
    # interactive transaction is refused at txn.begin, like a further
    # one-shot, instead of being queued past the bound.
    cat = _catalog()
    with Server(cat, config=ServerConfig(workers=1,
                                         queue_size=1)) as server:
        with ProtocolServer(server) as front, \
                Client(*front.address, timeout=5.0,
                       retry=RetryPolicy(max_attempts=1)) as c:
            release, held = _block_worker(server)
            try:
                queued = server.submit(lambda txn: None)
                with pytest.raises(OverloadedError):
                    c.eval_py("query(fn x => x.Salary, joe)")
                with pytest.raises(OverloadedError) as info:
                    with c.transaction():
                        pass
                assert info.value.retry_after > 0
                assert server.pending() == 1
                assert server.stats.shed == 2
                assert front.stats.txns_begun == 0
            finally:
                release.set()
            for req in (held, queued):
                server.wait(req, timeout=10)
            # Room again: the transaction is admitted and commits.
            with c.transaction() as txn:
                txn.update_object("joe", "Salary", 5)
    assert cat.extent("Emp")[0]["Salary"] == 5
    assert front.stats.txns_committed == 1


def test_wire_transaction_steps_run_first_and_are_never_shed():
    # txn.begin admitted the transaction; its later frames are steps,
    # queued ahead of admitted one-shots and past the queue bound.
    cat = _catalog()
    with Server(cat, config=ServerConfig(workers=1,
                                         queue_size=4)) as server:
        with ProtocolServer(server) as front, Client(*front.address) as c:
            # Per one-shot: whether the wire transaction had staged its
            # op's write, amy's committed Salary, and wire commits.
            seen = []
            began, go, gate, gated = (threading.Event() for _ in range(4))
            errors = []

            def observe(txn):
                staged = any(conn.wtxn is not None and conn.wtxn.txn.staged
                             for conn in list(front._conns))
                salary = txn.eval_py("query(fn x => x.Salary, amy)")
                seen.append((staged, salary, front.stats.txns_committed))

            def observe_then_hold(txn):
                observe(txn)
                gated.set()
                gate.wait(10)

            def wire():
                try:
                    with c.transaction() as txn:
                        began.set()
                        go.wait(10)
                        txn.update_object("amy", "Salary", 999)
                except BaseException as exc:
                    errors.append(exc)

            wire_thread = threading.Thread(target=wire)
            wire_thread.start()
            try:
                assert began.wait(10)
                release, held = _block_worker(server)
                queued = [server.submit(observe_then_hold)]
                queued += [server.submit(observe) for _ in range(3)]
                go.set()  # txn.op: one past the full queue's bound
                _wait_until(lambda: server.pending() == 5)
                release.set()
                assert gated.wait(10)
                # The op ran before the first one-shot; the commit frame,
                # sent on the op's reply, now waits ahead of the rest.
                _wait_until(lambda: server.pending() == 4)
            finally:
                release.set()
                gate.set()
                go.set()
            wire_thread.join(timeout=10)
            for req in [held, *queued]:
                server.wait(req, timeout=10)
    assert errors == []
    assert seen == [(True, 200, 0)] + [(False, 999, 1)] * 3
    assert server.stats.shed == 0


def test_open_transaction_commits_while_readers_see_the_committed_value():
    # One-shot readers of a location an open transaction wrote read the
    # committed value, never the uncommitted one and never a conflict;
    # their reads must not starve the writer's commit step.
    cat = _catalog()
    with Server(cat, config=ServerConfig(workers=2)) as server:
        with ProtocolServer(server) as front:
            reads, stop = [], threading.Event()

            def reader():
                with Client(*front.address) as c:
                    while not stop.is_set():
                        reads.append(
                            c.eval_py("query(fn x => x.Salary, joe)"))

            readers = [threading.Thread(target=reader) for _ in range(4)]
            try:
                with Client(*front.address) as writer:
                    with writer.transaction() as txn:
                        txn.update_object("joe", "Salary", 99)
                        for r in readers:
                            r.start()
                        _wait_until(lambda: len(reads) >= 8)
                        read_while_open = list(reads)
                        t0 = time.monotonic()
                    commit_s = time.monotonic() - t0
                _wait_until(lambda: 99 in reads)
            finally:
                stop.set()
                for r in readers:
                    r.join(timeout=30)
    assert not any(r.is_alive() for r in readers)
    assert set(read_while_open) == {100}
    assert commit_s < 5.0
    assert set(reads) == {100, 99}
    assert server.stats.conflicts == 0


def test_loop_to_worker_handoff_loses_no_updates_under_preemption():
    # Futures cross from worker threads to the event loop on every
    # request; with a tiny switch interval, more workers than cores and
    # one-shots mixed with wire transactions, every acknowledged
    # increment must land exactly once.
    cat = _catalog()
    acked, failures = [], []
    retry = RetryPolicy(max_attempts=60, base_delay=0.001, max_delay=0.05)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Server(cat, config=ServerConfig(workers=3)) as server:
            with ProtocolServer(server) as front:
                def client(i):
                    def bump(txn):
                        salary = txn.eval_py("query(fn x => x.Salary, joe)")
                        txn.update_object("joe", "Salary", salary + 1)

                    try:
                        with Client(*front.address, retry=retry) as c:
                            for _ in range(6):
                                if i % 2:
                                    c.run(bump)
                                else:
                                    c.exec("query(fn x => update(x, Salary,"
                                           " x.Salary + 1), joe)")
                                acked.append(i)
                    except BaseException as exc:  # pragma: no cover
                        failures.append(exc)

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert cat.extent("Emp")[0]["Salary"] == 100 + len(acked) == 136


class _Abort(Exception):
    pass


@pytest.mark.parametrize("kind,optimize", [
    pytest.param("location", False, id="location"),
    pytest.param("extent", False, id="extent"),
    pytest.param("location", True, id="location-planner"),
    pytest.param("extent", True, id="extent-planner")])
def test_oneshots_do_not_read_an_open_transactions_writes(kind, optimize):
    # The writer stages its writes and then aborts: a one-shot that reads
    # (or copies) the written state meanwhile gets the committed value,
    # and no later read sees the aborted write, served by the planner or
    # not.
    cat = _catalog()
    quick = ServerConfig(retry=RetryPolicy(max_attempts=2,
                                           base_delay=0.0001,
                                           max_delay=0.001))
    with Server(cat, config=quick, optimize=optimize) as server, \
            ProtocolServer(server) as front:
        with Client(*front.address, retry=RetryPolicy(max_attempts=1)) as c:
            with pytest.raises(_Abort):
                with c.transaction() as txn:
                    if kind == "location":
                        txn.exec("query(fn x => update(x, Salary, 99), joe)")
                        assert c.eval_py("query(fn x => x.Salary, joe)") \
                            == 100
                        c.exec("query(fn a => update(a, Salary, "
                               "query(fn j => j.Salary, joe)), amy)")
                    else:
                        txn.insert("Emp", "amy")
                        assert c.extent("Emp") == [{"Name": "Joe",
                                                    "Salary": 100}]
                    raise _Abort()
            copied = 100 if kind == "location" else 200
            assert c.eval_py("query(fn x => x.Salary, amy)") == copied
            assert c.eval_py("query(fn x => x.Salary, joe)") == 100
            assert c.extent("Emp") == [{"Name": "Joe", "Salary": 100}]
    assert server.stats.conflicts == 0


def test_wire_transaction_never_rereads_an_aborted_write():
    # Read joe, another transaction writes joe, read joe again, the
    # writer aborts, copy the re-read into amy: both reads saw the
    # committed 100, so the reader commits.
    cat = _catalog()
    with Server(cat) as server, ProtocolServer(server) as front:
        with Client(*front.address) as c, Client(*front.address) as w:
            with c.transaction() as reader:
                assert reader.eval_py(
                    "query(fn x => x.Salary, joe)") == 100
                with pytest.raises(_Abort):
                    with w.transaction() as writer:
                        writer.update_object("joe", "Salary", 99)
                        seen = reader.eval_py(
                            "query(fn x => x.Salary, joe)")
                        raise _Abort()
                assert seen == 100
                reader.update_object("amy", "Salary", seen)
            assert c.eval_py("query(fn x => x.Salary, amy)") == 100
            assert c.eval_py("query(fn x => x.Salary, joe)") == 100


def test_disconnect_after_server_close_rolls_back_inline():
    # The server closed under an open wire transaction; the disconnect's
    # cleanup drops the transaction's staging on the event loop, with no
    # worker and no lock.
    cat = _catalog()
    server = Server(cat, config=ServerConfig(workers=1))
    with ProtocolServer(server) as front, Client(*front.address) as c:
        with pytest.raises(_Abort):
            with c.transaction() as txn:
                txn.update_object("joe", "Salary", 99)
                server.close()
                (wtxn,) = [conn.wtxn for conn in list(front._conns)
                           if conn.wtxn is not None]
                assert wtxn.txn.staged
                txn._conn.close()  # disconnect mid-transaction
                _wait_until(lambda: front.stats.txns_rolled_back == 1)
                raise _Abort()
    assert not wtxn.txn.staged
    assert cat.extent("Emp")[0]["Salary"] == 100


def test_server_close_runs_a_queued_wire_rollback():
    # A txn.abort frame waits as a step behind a busy worker when the
    # server closes: close() runs it rather than shedding it.
    cat = _catalog()
    server = Server(cat, config=ServerConfig(workers=1))
    with ProtocolServer(server) as front, Client(*front.address) as c:
        staged, abort = threading.Event(), threading.Event()
        errors = []

        def wire():
            try:
                with c.transaction() as txn:
                    txn.update_object("joe", "Salary", 99)
                    staged.set()
                    abort.wait(10)
                    raise _Abort()
            except _Abort:
                pass
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        wire_thread = threading.Thread(target=wire)
        wire_thread.start()
        assert staged.wait(10)
        release, held = _block_worker(server)
        try:
            abort.set()  # the txn.abort frame queues behind the blocker
            _wait_until(lambda: server.pending() == 1)
            closer = threading.Thread(target=server.close)
            closer.start()
            _wait_until(lambda: front.stats.txns_rolled_back == 1)
        finally:
            release.set()
        closer.join(timeout=10)
        wire_thread.join(timeout=10)
    assert not closer.is_alive() and not wire_thread.is_alive()
    assert errors == []
    assert cat.extent("Emp")[0]["Salary"] == 100
    assert server.stats.shed == 0
