"""The fault-injection matrix.

For *every* registered injection point, a fault injected mid-operation
must leave the session/catalog observably consistent — bindings, types,
purity marks and store contents identical to the pre-transaction state —
and the WAL replayable.  The scenario table below is keyed by point name
and checked for exhaustiveness against :data:`repro.runtime.faults.POINTS`,
so wiring a new injection point into the runtime without adding a
consistency scenario fails this suite.
"""

import pytest

from repro import Budget, ConflictError, OverloadedError, Session
from repro.db.catalog import Catalog
from repro.db.persist import dump_json, load_json, recover
from repro.db.wal import read_wal
from repro.runtime import InjectedFault, faults
from repro.runtime.faults import inject
from repro.server import Server


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.reset()


def _session():
    s = Session()
    s.exec('val joe = IDView([Name = "Joe", Salary := 2000])')
    s.exec("fun count n = if n = 0 then 0 else count (n - 1)")
    return s


def _observe_session(s):
    return {
        "names": sorted(s._global_frame),
        "types": sorted(s.type_env.names()),
        "impure": s.purity.snapshot(),
        "allocations": s.machine.store.allocations,
        "salary": s.eval_py("query(fn x => x.Salary, joe)"),
    }


# The atomic program each session scenario interrupts: a store write, new
# allocations, a binding and enough evaluation steps to reach the
# budget-tick slow path (which runs every 256 steps).
_PROGRAM = ('query(fn x => update(x, Salary, 9), joe) '
            'val tmp = [a := 1, b := 2] '
            'val steps = count 200')


def _session_scenario(tmp_path, point, budget=None):
    s = _session()
    before = _observe_session(s)
    with inject(point):
        with pytest.raises(InjectedFault):
            s.exec(_PROGRAM, atomic=True, budget=budget)
    assert _observe_session(s) == before
    # The session stays fully usable: the same program now succeeds.
    s.exec(_PROGRAM, atomic=True)
    assert s.eval_py("query(fn x => x.Salary, joe)") == 9


def _catalog(tmp_path):
    cat = Catalog(wal=str(tmp_path / "cat.wal"))
    cat.new_object("alice", Name="Alice", mutable={"Salary": 3000})
    cat.new_object("zoe", Name="Zoe", mutable={"Salary": 50})
    cat.define_class("Staff", own=["alice"])
    return cat


def _observe_catalog(cat):
    return {
        "objects": sorted(cat.objects),
        "classes": {name: list(spec.own) for name, spec in
                    cat.classes.items()},
        "extent": cat.extent("Staff"),
        "session_names": sorted(cat.session._global_frame),
    }


def _assert_wal_replayable(cat):
    """The WAL must replay whole: no scenario here tears a record, so
    every logged record re-applies and the catalog comes back whole."""
    recovered, report = recover(cat.wal.path)
    assert report.rolled_back == []
    assert not report.torn_tail
    assert sorted(recovered.classes) == sorted(cat.classes)
    assert recovered.extent("Staff") is not None
    recovered.wal.close()


def _wal_append_scenario(tmp_path, point):
    cat = _catalog(tmp_path)
    before = _observe_catalog(cat)
    with inject(point):
        with pytest.raises(InjectedFault):
            cat.insert("Staff", "zoe")
    # The op rolled back everywhere: specs, session bindings, extents.
    assert _observe_catalog(cat) == before
    _assert_wal_replayable(cat)
    # And the catalog still works.
    cat.insert("Staff", "zoe")
    assert len(cat.extent("Staff")) == 2


def _wal_fsync_scenario(tmp_path, point):
    # Simulate the OS failing the fsync after the bytes were written —
    # the in-memory op rolls back; the WAL keeps the (complete) record,
    # i.e. the log may run ahead of memory by one record, never behind.
    cat = _catalog(tmp_path)
    before = _observe_catalog(cat)
    with inject(point, exc_type=OSError):
        with pytest.raises(OSError):
            cat.update_object("alice", "Salary", 9999)
    assert _observe_catalog(cat) == before
    records, torn = read_wal(cat.wal.path)
    assert not torn
    recovered, report = recover(cat.wal.path)
    assert report.rolled_back == []
    assert not report.torn_tail
    # Replay applies the logged-but-unacknowledged update (redo semantics).
    assert recovered.extent("Staff")[0]["Salary"] == 9999
    recovered.wal.close()


def _snapshot_rename_scenario(tmp_path, point):
    cat = _catalog(tmp_path)
    path = str(tmp_path / "db.json")
    dump_json(cat, path)
    cat.update_object("alice", "Salary", 7777)
    with inject(point):
        with pytest.raises(InjectedFault):
            dump_json(cat, path)
    # The fault hit between tmp-write and rename: the original snapshot
    # is intact and loads cleanly (old-complete-or-new-complete, never torn).
    restored = load_json(path)
    assert restored.extent("Staff")[0]["Salary"] == 3000
    # The catalog itself was never touched by the failed dump.
    assert cat.extent("Staff")[0]["Salary"] == 7777
    dump_json(cat, path)
    assert load_json(path).extent("Staff")[0]["Salary"] == 7777


def _dirsync_scenario(tmp_path, point):
    # The fault hits after the atomic rename but before the directory
    # entry is durable: the snapshot file itself is complete either way,
    # so a load at any point sees old-complete or new-complete.
    cat = _catalog(tmp_path)
    path = str(tmp_path / "db.json")
    dump_json(cat, path)
    cat.update_object("alice", "Salary", 4444)
    with inject(point):
        with pytest.raises(InjectedFault):
            dump_json(cat, path)
    assert load_json(path).extent("Staff")[0]["Salary"] in (3000, 4444)
    assert cat.extent("Staff")[0]["Salary"] == 4444
    dump_json(cat, path)
    assert load_json(path).extent("Staff")[0]["Salary"] == 4444


def _server_conflict_scenario(tmp_path, point):
    cat = _catalog(tmp_path)
    with Server(cat) as server:
        client = server.connect()
        # An injected conflict at commit forces rollback + backoff +
        # retry; the second attempt (firing #2, not armed) commits.
        with inject(point, exc_type=ConflictError):
            client.run(lambda txn: txn.update_object("alice", "Salary", 1))
        assert server.stats.conflicts == 1
        assert server.stats.retries == 1
        assert cat.extent("Staff")[0]["Salary"] == 1
        # A non-retriable fault at the same point rolls back and surfaces.
        with inject(point):
            with pytest.raises(InjectedFault):
                client.run(
                    lambda txn: txn.update_object("alice", "Salary", 2))
        assert cat.extent("Staff")[0]["Salary"] == 1
    _assert_wal_replayable(cat)


def _server_queue_scenario(tmp_path, point):
    cat = _catalog(tmp_path)
    before = _observe_catalog(cat)
    with Server(cat) as server:
        client = server.connect()
        with inject(point, exc_type=OverloadedError):
            with pytest.raises(OverloadedError):
                client.run(
                    lambda txn: txn.update_object("alice", "Salary", 5))
        # Shed at admission: nothing was executed, nothing changed.
        assert _observe_catalog(cat) == before
        assert server.stats.shed == 1
        # The next submission is served normally.
        client.run(lambda txn: txn.update_object("alice", "Salary", 5))
        assert cat.extent("Staff")[0]["Salary"] == 5
    _assert_wal_replayable(cat)


def _server_worker_scenario(tmp_path, point):
    cat = _catalog(tmp_path)
    with Server(cat) as server:
        client = server.connect()
        # The worker that dequeues the request dies; the pool respawns a
        # replacement and re-queues the request, which then succeeds —
        # worker death is invisible to the client.
        with inject(point):
            client.run(lambda txn: txn.update_object("alice", "Salary", 8),
                       timeout=30)
        assert server.stats.worker_deaths == 1
        assert cat.extent("Staff")[0]["Salary"] == 8
    _assert_wal_replayable(cat)


def _proto_frame_scenario(tmp_path, point):
    # A fault between frame decode and dispatch must come back as a
    # *structured* error reply on a connection that stays usable, with
    # no catalog effect.
    from repro.client import Client
    from repro.server.protocol import ProtocolServer

    cat = _catalog(tmp_path)
    before = _observe_catalog(cat)
    with Server(cat) as server, ProtocolServer(server) as front:
        client = Client(*front.address)
        try:
            with inject(point):
                with pytest.raises(InjectedFault):
                    client.update_object("alice", "Salary", 6)
            assert _observe_catalog(cat) == before
            # The same pooled connection serves the retry.
            client.update_object("alice", "Salary", 6)
            assert cat.extent("Staff")[0]["Salary"] == 6
        finally:
            client.close()
    _assert_wal_replayable(cat)


def _proto_reply_scenario(tmp_path, point):
    # The lost-ack window: the update commits, then the reply write
    # faults (the client "disconnected" between commit and ack).  The
    # client's same-id retry must observe the committed outcome exactly
    # once — a dedup replay, never a second execution.
    from repro.client import Client
    from repro.server.protocol import ProtocolServer

    cat = _catalog(tmp_path)
    with Server(cat) as server, ProtocolServer(server) as front:
        client = Client(*front.address)
        try:
            with inject(point):
                client.update_object("alice", "Salary", 7)
            assert cat.extent("Staff")[0]["Salary"] == 7
            assert front.stats.deduped_replies == 1
            assert server.stats.committed == 1
        finally:
            client.close()
    _assert_wal_replayable(cat)


SCENARIOS = {
    "store.write": lambda tmp, p: _session_scenario(tmp, p),
    "journal.append": lambda tmp, p: _session_scenario(tmp, p),
    "budget.tick": lambda tmp, p: _session_scenario(
        tmp, p, budget=Budget(max_steps=10**9)),
    "wal.append": _wal_append_scenario,
    "wal.fsync": _wal_fsync_scenario,
    "snapshot.rename": _snapshot_rename_scenario,
    "persist.dirsync": _dirsync_scenario,
    "server.conflict": _server_conflict_scenario,
    "server.queue": _server_queue_scenario,
    "server.worker": _server_worker_scenario,
    "proto.frame": _proto_frame_scenario,
    "proto.reply": _proto_reply_scenario,
}


def test_matrix_covers_every_registered_point():
    # Auto-discovered from the runtime's own registry: registering a new
    # injection point without a matching consistency scenario fails here
    # before the point ships untested.
    assert set(SCENARIOS) == set(faults.registered_points())


@pytest.mark.parametrize("point", faults.registered_points())
def test_fault_leaves_state_consistent(point, tmp_path):
    SCENARIOS[point](tmp_path, point)


def test_nth_firing_injection(tmp_path):
    # Faults can target a later firing: the first write succeeds, the
    # second faults, and rollback still restores both.
    s = _session()
    with inject("store.write", at=2):
        with pytest.raises(InjectedFault):
            s.exec('val u1 = query(fn x => update(x, Salary, 1), joe) '
                   'val u2 = query(fn x => update(x, Salary, 2), joe)',
                   atomic=True)
    assert s.eval_py("query(fn x => x.Salary, joe)") == 2000


def test_unknown_point_rejected():
    with pytest.raises(ValueError):
        with inject("no.such.point"):
            pass  # pragma: no cover
