"""The wire protocol: framing, roundtrips, admission and degradation.

Network *fault* scenarios (torn frames, disconnects mid-commit,
slow-loris) live in ``test_protocol_faults.py``; client reconnect
semantics in ``test_client_reconnect.py``.  This file covers the happy
paths and the protocol-boundary admission behavior: backpressure,
shedding with ``retry_after``, read-only surfacing, deadlines and
exactly-once dedup.
"""

import threading
import time

import pytest

from repro.client import Client, exception_from_wire
from repro.db.catalog import Catalog
from repro.errors import (BudgetExceededError, ConflictError, EvalError,
                          FrameTooLargeError, OverloadedError, ProtocolError,
                          ReadOnlyError)
from repro.server import Server, ServerConfig
from repro.server.protocol import (CODEC_JSON, CODEC_MSGPACK, HEADER,
                                   PROTOCOL_VERSION, ProtocolConfig,
                                   ProtocolServer, decode_payload,
                                   encode_frame, encode_payload, jsonable)


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


def test_open_transaction_does_not_block_other_connections(stack):
    _, _, front, client = stack
    host, port = front.address
    with Client(host, port) as other:
        with client.transaction() as txn:
            txn.update_object("joe", "Salary", 500)
            # A second connection keeps serving disjoint work while the
            # first holds an open transaction (and its write latch).
            assert other.eval_py("query(fn x => x.Salary, amy)") == 200
            other.update_object("amy", "Salary", 250)
        assert other.eval_py("query(fn x => x.Salary, joe)") == 500
        assert other.eval_py("query(fn x => x.Salary, amy)") == 250
