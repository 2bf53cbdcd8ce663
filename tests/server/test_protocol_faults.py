"""The *network* fault matrix, plus over-the-wire stress.

Every named network fault below must leave the server consistent: no
half-applied transaction and no stuck connection slot — and the
scenario table is checked for completeness against
:data:`NETWORK_FAULTS` so a new fault name cannot be declared without a
recovery scenario.  The rule under test is the tentpole's: a transaction
interrupted by the network **commits durably or rolls back cleanly**,
never in between.
"""

import socket
import threading
import time

import pytest

from repro.client import Client
from repro.db.catalog import Catalog
from repro.errors import FrameTooLargeError, ProtocolError
from repro.runtime import faults
from repro.runtime.faults import inject
from repro.server import Server, ServerConfig
from repro.server.protocol import (CODEC_JSON, HEADER, ProtocolConfig,
                                   ProtocolServer, decode_payload,
                                   encode_frame)
from repro.server.retry import RetryPolicy


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.reset()


def _catalog():
    cat = Catalog()
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("amy", Name="Amy", mutable={"Salary": 200})
    cat.define_class("Emp", own=["joe"])
    return cat


def _observe(cat):
    return {
        "objects": sorted(cat.objects),
        "classes": {name: list(spec.own)
                    for name, spec in cat.classes.items()},
        "extent": cat.extent("Emp"),
    }


# -- raw-socket helpers (the misbehaving peer) ------------------------------

def _connect(front):
    sock = socket.create_connection(front.address, timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _send(sock, msg):
    sock.sendall(encode_frame(msg, CODEC_JSON))


def _recv(sock, timeout=10.0):
    sock.settimeout(timeout)
    header = _recv_exact(sock, HEADER.size)
    codec, length = HEADER.unpack(header)
    return decode_payload(codec, _recv_exact(sock, length))


def _recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionResetError("peer closed")
        buf += chunk
    return buf


def _wait_stat(stats, name, value, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if getattr(stats, name) >= value:
            return True
        time.sleep(0.01)
    return False


def _assert_recovered(cat, server, front, before=None):
    """The invariant every scenario ends on: catalog consistent (or
    unchanged), and a fresh client can transact."""
    if before is not None:
        assert _observe(cat) == before
    with Client(*front.address) as probe:
        probe.run(lambda txn: txn.update_object("amy", "Salary", 777))
        assert probe.eval_py("query(fn x => x.Salary, amy)") == 777
        probe.update_object("amy", "Salary", 200)


# -- the scenarios ----------------------------------------------------------

def _torn_frame(cat, server, front):
    # The peer dies mid-payload: nothing dispatches, nothing changes.
    before = _observe(cat)
    sock = _connect(front)
    frame = encode_frame({"op": "update", "object": "joe",
                          "label": "Salary", "value": 1}, CODEC_JSON)
    sock.sendall(frame[:len(frame) - 3])
    sock.close()
    assert _wait_stat(front.stats, "torn_frames", 1)
    _assert_recovered(cat, server, front, before)


def _truncated_header(cat, server, front):
    # Even less arrives — part of the 5-byte header.
    before = _observe(cat)
    sock = _connect(front)
    sock.sendall(b"\x4a\x00")
    sock.close()
    assert _wait_stat(front.stats, "torn_frames", 1)
    _assert_recovered(cat, server, front, before)


def _oversized_frame(cat, server, front):
    # A frame over the limit is drained and refused with a *structured*
    # reply; the same connection then serves normal traffic.
    before = _observe(cat)
    sock = _connect(front)
    big = b"x" * (front.config.max_frame + 1)
    sock.sendall(HEADER.pack(CODEC_JSON, len(big)) + big)
    reply = _recv(sock)
    assert reply["ok"] is False
    assert reply["error"]["type"] == "FrameTooLargeError"
    _send(sock, {"op": "ping", "id": "after-big"})
    pong = _recv(sock)
    assert pong["ok"] is True and pong["id"] == "after-big"
    sock.close()
    assert front.stats.frames_too_large == 1
    _assert_recovered(cat, server, front, before)


def _garbage_payload(cat, server, front):
    # A well-framed but undecodable payload: structured error, usable
    # connection.
    before = _observe(cat)
    sock = _connect(front)
    junk = b"{this is not json"
    sock.sendall(HEADER.pack(CODEC_JSON, len(junk)) + junk)
    reply = _recv(sock)
    assert reply["ok"] is False
    assert reply["error"]["type"] == "ProtocolError"
    _send(sock, {"op": "ping", "id": "after-junk"})
    assert _recv(sock)["ok"] is True
    sock.close()
    _assert_recovered(cat, server, front, before)


def _slow_loris(cat, server, front):
    # A frame that stalls mid-read past frame_timeout gets the
    # connection closed; other clients are unaffected throughout.
    before = _observe(cat)
    sock = _connect(front)
    sock.sendall(HEADER.pack(CODEC_JSON, 64) + b'{"op"')  # ...and stall
    assert _wait_stat(front.stats, "slowloris_closed", 1,
                      timeout=front.config.frame_timeout + 5)
    sock.close()
    _assert_recovered(cat, server, front, before)


def _disconnect_before_commit(cat, server, front):
    # A wire transaction with applied statements loses its connection
    # before the commit frame: full rollback.
    before = _observe(cat)
    sock = _connect(front)
    _send(sock, {"op": "txn.begin", "id": "t-1"})
    assert _recv(sock)["ok"] is True
    _send(sock, {"op": "txn.op", "id": "t-2",
                 "stmt": {"op": "update", "object": "joe",
                          "label": "Salary", "value": 999}})
    assert _recv(sock)["ok"] is True
    _send(sock, {"op": "txn.op", "id": "t-3",
                 "stmt": {"op": "insert", "class": "Emp",
                          "object": "amy"}})
    assert _recv(sock)["ok"] is True
    sock.close()  # vanish without committing
    assert _wait_stat(front.stats, "txns_rolled_back", 1)
    _assert_recovered(cat, server, front, before)


def _torn_commit_frame(cat, server, front):
    # The commit frame itself is torn: it never dispatches, so the
    # transaction rolls back — "commit durably or roll back cleanly".
    before = _observe(cat)
    sock = _connect(front)
    _send(sock, {"op": "txn.begin", "id": "c-1"})
    assert _recv(sock)["ok"] is True
    _send(sock, {"op": "txn.op", "id": "c-2",
                 "stmt": {"op": "update", "object": "joe",
                          "label": "Salary", "value": 555}})
    assert _recv(sock)["ok"] is True
    commit = encode_frame({"op": "txn.commit", "id": "c-3"}, CODEC_JSON)
    sock.sendall(commit[:len(commit) - 2])
    sock.close()
    assert _wait_stat(front.stats, "txns_rolled_back", 1)
    assert front.stats.txns_committed == 0
    _assert_recovered(cat, server, front, before)


def _disconnect_after_commit(cat, server, front):
    # The commit frame *arrived* but the ack was lost (injected fault at
    # the reply write): the commit is durable, and a same-id probe on a
    # fresh connection replays it instead of re-executing.
    sock = _connect(front)
    _send(sock, {"op": "txn.begin", "id": "a-1"})
    assert _recv(sock)["ok"] is True
    _send(sock, {"op": "txn.op", "id": "a-2",
                 "stmt": {"op": "update", "object": "joe",
                          "label": "Salary", "value": 444}})
    assert _recv(sock)["ok"] is True
    with inject("proto.reply"):
        _send(sock, {"op": "txn.commit", "id": "a-commit"})
        with pytest.raises((ConnectionError, socket.timeout)):
            _recv(sock, timeout=5.0)
    sock.close()
    assert cat.extent("Emp")[0]["Salary"] == 444  # committed, durably
    probe = _connect(front)
    _send(probe, {"op": "txn.commit", "id": "a-commit"})
    reply = _recv(probe)
    probe.close()
    assert reply["ok"] is True
    assert reply["replayed"] is True
    assert front.stats.txns_committed == 1  # once, not twice
    assert front.stats.deduped_replies == 1
    _assert_recovered(cat, server, front)


def _abandoned_transaction(cat, server, front):
    # An open transaction that goes idle past txn_idle_timeout is rolled
    # back, so an abandoned client cannot hold it open forever.
    before = _observe(cat)
    sock = _connect(front)
    _send(sock, {"op": "txn.begin", "id": "z-1"})
    assert _recv(sock)["ok"] is True
    _send(sock, {"op": "txn.op", "id": "z-2",
                 "stmt": {"op": "update", "object": "joe",
                          "label": "Salary", "value": 333}})
    assert _recv(sock)["ok"] is True
    # ...and the client wanders off without closing the socket.
    assert _wait_stat(front.stats, "txns_rolled_back", 1,
                      timeout=front.config.txn_idle_timeout + 5)
    sock.close()
    _assert_recovered(cat, server, front, before)


NETWORK_FAULTS = {
    "torn-frame": _torn_frame,
    "truncated-header": _truncated_header,
    "oversized-frame": _oversized_frame,
    "garbage-payload": _garbage_payload,
    "slow-loris": _slow_loris,
    "disconnect-before-commit": _disconnect_before_commit,
    "torn-commit-frame": _torn_commit_frame,
    "disconnect-after-commit": _disconnect_after_commit,
    "abandoned-transaction": _abandoned_transaction,
}

#: The declared matrix; the completeness test pins the scenario table to
#: it so the two cannot drift apart.
NETWORK_POINTS = (
    "torn-frame", "truncated-header", "oversized-frame", "garbage-payload",
    "slow-loris", "disconnect-before-commit", "torn-commit-frame",
    "disconnect-after-commit", "abandoned-transaction",
)


def test_network_matrix_is_complete():
    assert set(NETWORK_FAULTS) == set(NETWORK_POINTS)


@pytest.mark.parametrize("fault", NETWORK_POINTS)
def test_network_fault_recovers(fault):
    cat = _catalog()
    config = ProtocolConfig(frame_timeout=0.3, txn_idle_timeout=0.5)
    with Server(cat, config=ServerConfig(workers=2)) as server:
        with ProtocolServer(server, config) as front:
            NETWORK_FAULTS[fault](cat, server, front)


# -- over-the-wire stress ---------------------------------------------------

def test_sixteen_clients_with_chaos_lose_no_updates():
    """16 networked clients increment a shared counter under OCC while
    chaos connections tear frames and stall mid-read; every committed
    increment must land exactly once."""
    cat = _catalog()
    clients, increments = 16, 4
    config = ProtocolConfig(frame_timeout=0.5)
    stress_retry = RetryPolicy(max_attempts=60, base_delay=0.001,
                               max_delay=0.05)
    with Server(cat, config=ServerConfig(workers=4)) as server:
        with ProtocolServer(server, config) as front:
            host, port = front.address
            stop = threading.Event()
            failures = []

            def chaos():
                # A rotating cast of misbehaving peers on their own
                # connections: torn frames, junk, and stalls.
                step = 0
                while not stop.is_set():
                    try:
                        sock = socket.create_connection((host, port),
                                                        timeout=5)
                        mode = step % 3
                        if mode == 0:
                            frame = encode_frame({"op": "ping"},
                                                 CODEC_JSON)
                            sock.sendall(frame[:3])
                        elif mode == 1:
                            sock.sendall(HEADER.pack(CODEC_JSON, 32)
                                         + b'{"op"')
                            time.sleep(0.05)
                        else:
                            sock.sendall(b"\xff\xff")
                        sock.close()
                    except OSError:
                        pass
                    step += 1
                    time.sleep(0.01)

            def worker():
                try:
                    with Client(host, port, retry=stress_retry) as c:
                        for _ in range(increments):
                            def bump(txn):
                                v = txn.eval_py(
                                    "query(fn x => x.Salary, joe)")
                                txn.update_object("joe", "Salary", v + 1)
                            c.run(bump)
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            chaos_threads = [threading.Thread(target=chaos, daemon=True)
                             for _ in range(2)]
            threads = [threading.Thread(target=worker)
                       for _ in range(clients)]
            for t in chaos_threads + threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stop.set()
            for t in chaos_threads:
                t.join(timeout=10)

            assert not failures, failures
            # Zero lost updates, zero double-applies.
            assert cat.extent("Emp")[0]["Salary"] == (
                100 + clients * increments)
            assert front.stats.txns_committed == clients * increments
            assert front.stats.torn_frames > 0  # the chaos really ran
