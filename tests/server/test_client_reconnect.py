"""Client reconnect semantics: worker respawn and server restart.

The pooled client must ride out the two big lifecycle faults — a dead
worker thread inside a live server, and a full server restart with WAL
recovery — surfacing nothing (respawn) or only retryable transport
errors (restart), with committed transactions visible afterwards.
"""

import threading
import time

import pytest

from repro.client import Client
from repro.db.catalog import Catalog
from repro.runtime import faults
from repro.runtime.faults import inject
from repro.server import Server
from repro.server.protocol import ProtocolConfig, ProtocolServer
from repro.server.retry import RetryPolicy


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.reset()


def _catalog(wal=None):
    cat = Catalog(wal=wal)
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("amy", Name="Amy", mutable={"Salary": 200})
    cat.define_class("Emp", own=["joe"])
    return cat


def test_worker_respawn_is_invisible_over_the_wire():
    # The worker that picks up the request dies mid-service; the pool
    # respawns it and re-queues the request.  The networked client sees
    # a normal (if slower) success — no error, no duplicate.
    cat = _catalog()
    with Server(cat) as server:
        with ProtocolServer(server) as front:
            with Client(*front.address) as c:
                with inject("server.worker"):
                    # One-shots flow through the worker pool; the pool
                    # respawns the dead worker and re-queues the request.
                    c.update_object("joe", "Salary", 111, deadline=30)
                assert server.stats.worker_deaths == 1
                assert cat.extent("Emp")[0]["Salary"] == 111
                assert c.eval_py("query(fn x => x.Salary, joe)") == 111


def test_server_restart_committed_work_survives(tmp_path):
    # Commit over the wire, kill the whole stack, recover from the WAL
    # on the same port: the same client object reconnects through its
    # pool and sees the committed transaction.
    wal = str(tmp_path / "db.wal")
    cat = _catalog(wal=wal)
    server = Server(cat)
    front = ProtocolServer(server)
    host, port = front.start()
    client = Client(host, port,
                    retry=RetryPolicy(max_attempts=20, base_delay=0.01,
                                      max_delay=0.2))
    try:
        client.run(lambda txn: txn.update_object("joe", "Salary", 321))
        assert client.eval_py("query(fn x => x.Salary, joe)") == 321
        front.close()
        server.close()
        cat.wal.close()

        # While the server is down, requests fail with a retryable
        # transport error once the attempts run out — never a hang.
        with pytest.raises(ConnectionError):
            Client(host, port,
                   retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                                     max_delay=0.01)).ping()

        # The server recovers the WAL on startup; the front end rebinds
        # the same port.
        recovered = Server(wal=wal)
        front2 = ProtocolServer(recovered,
                                ProtocolConfig(host=host, port=port))
        front2.start()
        try:
            # Same client instance: its pooled (dead) connections are
            # discarded and re-dialed transparently.
            assert client.eval_py("query(fn x => x.Salary, joe)") == 321
            client.run(lambda txn: txn.update_object("joe", "Salary", 322))
            assert client.eval_py("query(fn x => x.Salary, joe)") == 322
        finally:
            front2.close()
            recovered.close()
    finally:
        client.close()
        if front._thread is not None and not front._closing:
            front.close()
            server.close()


def test_restart_mid_session_surfaces_retryable_then_recovers(tmp_path):
    # A client caught *mid-stream* by the restart: in-flight requests
    # fail over to the recovered server via transport retries, and the
    # session total reflects every acknowledged commit exactly once.
    wal = str(tmp_path / "db.wal")
    cat = _catalog(wal=wal)
    server = Server(cat)
    front = ProtocolServer(server)
    host, port = front.start()
    policy = RetryPolicy(max_attempts=200, base_delay=0.005, max_delay=0.1)
    acknowledged = []
    stop_restarting = threading.Event()

    def restarter():
        # One bounce, roughly mid-run.
        time.sleep(0.15)
        front.close()
        server.close()
        cat.wal.close()
        time.sleep(0.1)
        recovered = Server(wal=wal)
        front2 = ProtocolServer(recovered,
                                ProtocolConfig(host=host, port=port))
        front2.start()
        stop_restarting.set()
        return recovered, front2

    bounce = {}

    def run_restarter():
        bounce["stack"] = restarter()

    t = threading.Thread(target=run_restarter)
    t.start()
    try:
        with Client(host, port, retry=policy) as c:
            for i in range(20):
                def bump(txn):
                    v = txn.eval_py("query(fn x => x.Salary, joe)")
                    txn.update_object("joe", "Salary", v + 1)
                    return v + 1
                acknowledged.append(c.run(bump, deadline=10))
                time.sleep(0.02)
    finally:
        t.join(timeout=30)
    recovered, front2 = bounce["stack"]
    try:
        final = recovered.catalog.extent("Emp")[0]["Salary"]
        # Every acknowledged commit is present: the final value is at
        # least the last acknowledged one (an unacknowledged commit that
        # raced the shutdown may add more — durable is durable).
        assert len(acknowledged) == 20
        assert final >= acknowledged[-1]
        # And monotone growth with no lost update among acknowledged
        # increments: strictly increasing by 1 each time.
        assert acknowledged == sorted(acknowledged)
    finally:
        front2.close()
        recovered.close()
