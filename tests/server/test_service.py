"""Integration tests for the Server: transactions, degradation, recovery."""

import threading
import time

import pytest

from repro import Budget
from repro.db.catalog import Catalog
from repro.errors import (ConflictError, EvalError, OverloadedError,
                          ReadOnlyError, ReproError, TypeInferenceError)
from repro.server import Server, ServerConfig
from repro.syntax import parser


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("amy", Name="Amy", mutable={"Salary": 200})
    cat.define_class("Emp", own=["joe"])
    return cat


@pytest.fixture()
def server(catalog):
    with Server(catalog) as s:
        yield s


def test_round_trip_statements(server):
    client = server.connect()
    assert client.extent("Emp") == [{"Name": "Joe", "Salary": 100}]
    client.update_object("joe", "Salary", 150)
    assert client.eval_py("query(fn x => x.Salary, joe)") == 150

    def mixed(txn):
        txn.insert("Emp", "amy")
        return sorted(r["Name"] for r in txn.extent("Emp"))

    assert client.run(mixed) == ["Amy", "Joe"]
    assert client.run(lambda txn: txn.query("Emp", "fn S => size(S)")) == 2
    client.run(lambda txn: txn.delete("Emp", "amy"))
    assert len(client.extent("Emp")) == 1


def test_transaction_rolls_back_all_statements(server, catalog):
    client = server.connect()

    def doomed(txn):
        txn.update_object("joe", "Salary", 999)
        txn.insert("Emp", "amy")
        raise EvalError("client-side failure after two statements")

    with pytest.raises(EvalError):
        client.run(doomed)
    # Both the store state and the catalog membership metadata rolled back.
    assert client.extent("Emp") == [{"Name": "Joe", "Salary": 100}]
    assert catalog.classes["Emp"].own == [("joe", None)]


def test_lost_update_is_detected_and_retried(server):
    client = server.connect()
    read_done = threading.Event()
    other_committed = threading.Event()
    attempts = []

    def slow_bump(txn):
        attempts.append(1)
        salary = txn.eval_py("query(fn x => x.Salary, joe)")
        if len(attempts) == 1:
            read_done.set()
            other_committed.wait(10)
        txn.update_object("joe", "Salary", salary + 1)
        return salary + 1

    req = server.submit(slow_bump)
    assert read_done.wait(10)
    client.run(lambda txn: txn.update_object(
        "joe", "Salary", txn.eval_py("query(fn x => x.Salary, joe)") + 1))
    other_committed.set()
    # The slow transaction's first attempt read 100; committing it would
    # lose the concurrent increment.  It must conflict, retry, and land
    # on 102.
    assert server.wait(req, timeout=10) == 102
    assert len(attempts) == 2
    assert server.stats.conflicts >= 1
    assert client.eval_py("query(fn x => x.Salary, joe)") == 102


def test_conflict_surfaces_after_retries_exhaust(catalog):
    from repro.server.retry import RetryPolicy
    config = ServerConfig(retry=RetryPolicy(
        max_attempts=2, base_delay=0.0001, max_delay=0.001))
    with Server(catalog, config=config) as server:
        bumps = iter(range(1, 10))

        def stale_reader(txn):
            salary = txn.eval_py("query(fn x => x.Salary, joe)")
            # Another transaction commits joe before this one can, so
            # every attempt's read is stale at its commit.
            server.call(lambda other: other.update_object(
                "joe", "Salary", next(bumps)))
            txn.update_object("amy", "Salary", salary)

        # After max_attempts the conflict surfaces to the client instead
        # of retrying forever.
        with pytest.raises(ConflictError, match="stale read"):
            server.connect().run(stale_reader)
        assert server.stats.conflicts == 2
        assert server.connect().eval_py(
            "query(fn x => x.Salary, amy)") == 200


def test_full_queue_sheds_load(catalog):
    config = ServerConfig(workers=1, queue_size=1)
    with Server(catalog, config=config) as server:
        release = threading.Event()
        started = threading.Event()

        def blocker(txn):
            started.set()
            release.wait(10)

        held = server.submit(blocker)
        assert started.wait(10)
        queued = server.submit(lambda txn: None)  # fills the queue
        with pytest.raises(OverloadedError):
            server.submit(lambda txn: None)  # shed
        assert server.stats.shed == 1
        release.set()
        server.wait(held, timeout=10)
        server.wait(queued, timeout=10)


def test_exec_binds_no_it_so_an_aborted_read_cannot_leak(server):
    # The session is shared: an ``it`` bound inside a transaction that
    # then aborts would hand its uncommitted value to every later reader.
    client = server.connect()

    def doomed(txn):
        txn.update_object("joe", "Salary", 999)
        txn.exec("query(fn x => x.Salary, joe)")
        raise EvalError("client-side failure after the read")

    with pytest.raises(EvalError):
        client.run(doomed)
    assert client.eval_py("query(fn x => x.Salary, joe)") == 100
    with pytest.raises(TypeInferenceError, match="unbound variable 'it'"):
        client.eval_py("it")


def test_request_timeout_abandons_the_request(server):
    release = threading.Event()

    def blocker(txn):
        release.wait(10)

    with pytest.raises(TimeoutError):
        server.call(blocker, timeout=0.05)
    release.set()
    # The server is still healthy afterwards.
    assert server.connect().eval_py("query(fn x => x.Salary, joe)") == 100


def test_deadline_expired_in_queue_is_shed_not_evaluated(catalog):
    config = ServerConfig(workers=1, queue_size=8)
    with Server(catalog, config=config) as server:
        release = threading.Event()
        started = threading.Event()

        def blocker(txn):
            started.set()
            release.wait(10)

        held = server.submit(blocker)
        assert started.wait(10)
        ran = []
        req = server.submit(lambda txn: ran.append(1),
                            budget=Budget(max_queue_wait=0.01))
        time.sleep(0.05)  # let the deadline die while queued
        release.set()
        with pytest.raises(OverloadedError):
            server.wait(req, timeout=10)
        assert ran == []  # shed without evaluating anything
        server.wait(held, timeout=10)
        assert server.stats.shed == 1


def test_wal_failures_trip_the_breaker_into_read_only(tmp_path):
    cat = Catalog(wal=str(tmp_path / "db.wal"))
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.define_class("Emp", own=["joe"])
    config = ServerConfig(breaker_threshold=2, breaker_cooldown=0.05)
    with Server(cat, config=config) as server:
        client = server.connect()
        healthy_append = cat.wal.append

        def dead_disk(op, args):
            raise OSError("injected: disk gone")

        cat.wal.append = dead_disk
        for _ in range(2):
            with pytest.raises(OSError):
                client.update_object("joe", "Salary", 1)
        # Failed commits rolled back: memory never ran ahead of the log.
        assert client.eval_py("query(fn x => x.Salary, joe)") == 100
        assert server.read_only
        assert server.stats.wal_failures == 2
        # Writes are rejected up front while open; reads still flow.
        with pytest.raises(ReadOnlyError):
            client.update_object("joe", "Salary", 2)
        assert server.stats.read_only_rejected == 1
        assert client.extent("Emp") == [{"Name": "Joe", "Salary": 100}]
        # Disk comes back; after the cooldown the half-open probe commits
        # and the breaker closes.
        cat.wal.append = healthy_append
        time.sleep(0.06)
        client.update_object("joe", "Salary", 3)
        assert server.breaker_state == "closed"
        assert not server.read_only
        assert client.eval_py("query(fn x => x.Salary, joe)") == 3


def test_server_recovers_from_wal_on_startup(tmp_path):
    wal = str(tmp_path / "db.wal")
    cat = Catalog(wal=wal)
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.define_class("Emp", own=["joe"])
    cat.update_object("joe", "Salary", 777)
    del cat  # "crash"

    with Server(wal=wal) as server:
        assert server.recovery is not None
        assert server.recovery.replayed == 3
        client = server.connect()
        assert client.extent("Emp") == [{"Name": "Joe", "Salary": 777}]
        # And the recovered server keeps appending to the same log.
        client.update_object("joe", "Salary", 778)
    with Server(wal=wal) as server:
        assert server.connect().extent("Emp") == [
            {"Name": "Joe", "Salary": 778}]


def test_close_closes_only_the_wal_the_server_opened(tmp_path):
    server = Server(wal=str(tmp_path / "db.wal"))
    server.close()
    assert server.catalog.wal._file.closed
    cat = Catalog(wal=str(tmp_path / "own.wal"))
    Server(cat).close()
    assert not cat.wal._file.closed  # the caller's catalog, the caller's log
    cat.wal.close()


def test_execute_exclusive_runs_ddl(server):
    server.execute_exclusive(
        lambda cat: cat.define_class("Payroll", own=["joe", "amy"]))
    assert len(server.connect().extent("Payroll")) == 2


def test_close_fails_backlog_and_rejects_new_work(catalog):
    # No workers: everything submitted stays queued, so close() must fail
    # the whole backlog as shed load rather than losing it silently.
    server = Server(catalog, config=ServerConfig(workers=0, queue_size=8))
    backlog = [server.submit(lambda txn: None) for _ in range(3)]
    server.close()
    for req in backlog:
        with pytest.raises(OverloadedError):
            server.wait(req, timeout=1)
    assert server.stats.shed == 3
    with pytest.raises(RuntimeError):
        server.submit(lambda txn: None)


def test_close_wakes_idle_workers_at_once(catalog):
    # Idle workers block in the queue without polling; close() must wake
    # and join every one of them promptly.
    server = Server(catalog, config=ServerConfig(workers=4))
    workers = list(server._threads)
    assert len(workers) == 4
    t0 = time.monotonic()
    server.close()
    assert time.monotonic() - t0 < 1.0
    assert not any(t.is_alive() for t in workers)


def test_errors_inside_transactions_are_repro_errors(server):
    client = server.connect()
    with pytest.raises(ReproError):
        client.exec("query(fn x => x.NoSuchField, joe)")
    # The session survives arbitrary client errors.
    assert client.eval_py("query(fn x => x.Salary, joe)") == 100


def test_contended_counter_never_loses_updates():
    """8 threads of one-shot read-modify-writes on one counter: under
    dynamic OCC the loser of each race aborts and retries, and the
    counter ends equal to the number of increments reported as
    committed."""
    cat = Catalog()
    cat.new_object("ctr", Name="counter", mutable={"Count": 0})
    threads, per = 8, 12
    successes = []
    with Server(cat) as server:
        def worker():
            client = server.connect()
            for _ in range(per):
                try:
                    client.exec(
                        "query(fn x => update(x, Count, x.Count + 1), ctr)")
                except ConflictError:
                    continue
                successes.append(1)
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        final = server.connect().eval_py("query(fn x => x.Count, ctr)")
        stats = server.stats.snapshot()
    assert final == len(successes)
    assert final > 0
    assert stats["committed"] == len(successes) + 1  # + the final read


def test_oneshot_exec_beside_inflight_writer_reconciles():
    """A one-shot ``exec`` of the counter runs while a Python-body
    read-modify-write of the same counter is in flight; whichever
    commits, the total reconciles."""
    cat = Catalog()
    cat.new_object("ctr", Name="counter", mutable={"Count": 0})
    with Server(cat) as server:
        client = server.connect()
        entered = threading.Event()
        release = threading.Event()

        def slow_writer(txn):
            count = txn.eval_py("query(fn x => x.Count, ctr)")
            entered.set()
            release.wait(10)
            txn.update_object("ctr", "Count", count + 1)

        req = server.submit(slow_writer)
        assert entered.wait(10)
        try:
            client.exec("query(fn x => update(x, Count, x.Count + 1), ctr)")
            exec_won = 1
        except ConflictError:
            exec_won = 0
        release.set()
        try:
            server.wait(req, timeout=10)
            slow_won = 1
        except ConflictError:
            slow_won = 0
        final = client.eval_py("query(fn x => x.Count, ctr)")
        assert final == exec_won + slow_won
        assert final >= 1


def test_oneshot_statement_is_parsed_once(catalog, monkeypatch):
    """The front end runs once per statement: a one-shot ``exec`` of a
    text the server has never seen calls the parser exactly once."""
    calls = []
    parse_program = parser.parse_program

    def counting(*args, **kwargs):
        calls.append(args)
        return parse_program(*args, **kwargs)

    src = "query(fn x => update(x, Salary, x.Salary + 17), joe)"
    with Server(catalog) as server:
        client = server.connect()
        monkeypatch.setattr(parser, "parse_program", counting)
        client.exec(src)
        assert calls == [(src,)]
        assert client.eval_py("query(fn x => x.Salary, joe)") == 117
        # The same statement with another literal runs from the
        # statement cache: no parser call.
        client.exec(src.replace("17", "25"))
        assert calls == [(src,)]
        assert client.eval_py("query(fn x => x.Salary, joe)") == 142


def test_repeated_statement_shapes_parse_and_compile_once(monkeypatch):
    """Over 64 employees, the point workload's 128 statement shapes (a
    read and a write per employee) bound parser calls and compiled
    programs however many unique values the writes carry, and the
    statement cache stays within its capacity."""
    from repro.lang.statements import CAPACITY
    cat = Catalog()
    for k in range(64):
        cat.new_object(f"e{k}", Name=f"emp{k}",
                       mutable={"Salary": 2000 + k, "Bonus": 0})
    cat.define_class("Emp", own=[f"e{k}" for k in range(64)])
    calls = []
    for name in ("parse_program", "parse_expression"):
        real = getattr(parser, name)

        def counting(src, _real=real):
            calls.append(src)
            return _real(src)
        monkeypatch.setattr(parser, name, counting)

    def view(k):
        return (f"(e{k} as fn x => [Name = x.Name, Income = x.Salary, "
                f"Bonus := extract(x, Bonus)])")

    with Server(cat) as server:
        client = server.connect()
        compiled = server.compile_snapshot()["compiled_programs"]
        for i in range(500):
            k = i * 7 % 64
            assert client.eval_py(
                f"query(fn v => v.Income, {view(k)})") == 2000 + k
            client.exec(f"query(fn v => update(v, Bonus, {i + 1}), "
                        f"{view(k)})")
        assert len(calls) <= 128
        assert (server.compile_snapshot()["compiled_programs"]
                - compiled) <= 128
        # e12's last write was i = 468 (7 * 468 = 12 mod 64).
        assert client.eval_py("query(fn v => v.Bonus, e12)") == 469
        # Negative literals key on the exact text: every one of these
        # writes is a new entry, and the cache still holds at most its
        # capacity.
        for i in range(5000):
            client.exec(f"query(fn v => update(v, Bonus, -{i + 1}), "
                        f"{view(i % 64)})")
        assert len(server.session._statements) <= CAPACITY
        assert client.eval_py("query(fn v => v.Bonus, e63)") == -4992


def test_close_runs_queued_steps_instead_of_shedding_them(catalog):
    # A step belongs to an admitted wire transaction (its rollback, say):
    # close() runs it, and refuses steps submitted after it.
    server = Server(catalog, config=ServerConfig(workers=0))
    step = server.submit_step(lambda: "ran")
    server.close()
    assert server.wait(step, timeout=1) == "ran"
    assert server.stats.shed == 0
    with pytest.raises(OverloadedError):
        server.submit_step(lambda: None)


def test_steps_are_not_counted_as_service_time(catalog):
    # Service time (the retry_after hints, the wire stats) covers whole
    # admitted requests, not the statement-sized steps of wire txns.
    with Server(catalog, config=ServerConfig(workers=1)) as server:
        server.wait(server.submit_step(lambda: None), timeout=5)
        server.call(lambda txn: None, timeout=5)
        # The worker records the call before it dequeues the next step.
        server.wait(server.submit_step(lambda: None), timeout=5)
        assert server.stats.service_summary()["samples"] == 1
