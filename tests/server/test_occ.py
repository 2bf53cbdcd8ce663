"""The OCC layer: read validation, private writes, install and rollback.

A server transaction stages its writes in its :class:`OCCTransaction`
and installs them at commit, so these tests drive statements of several
transactions by hand (no workers) and check what each one sees.
"""

import pytest

from repro.db.catalog import Catalog
from repro.errors import ConflictError
from repro.eval.store import Store
from repro.server import Server, ServerConfig
from repro.server.occ import OCCTransaction
from repro.server.service import ClientTransaction

SALARY = "query(fn x => x.Salary, joe)"


@pytest.fixture()
def server():
    cat = Catalog()
    cat.new_object("joe", Name="Joe", mutable={"Salary": 100})
    cat.new_object("amy", Name="Amy", mutable={"Salary": 200})
    cat.define_class("Emp", own=["joe"])
    with Server(cat, config=ServerConfig(workers=0)) as s:
        yield s


def _begin(server):
    return ClientTransaction(server, OCCTransaction(), None)


def _commit(server, handle):
    server._commit(handle._txn, handle)


def _names(rows):
    return sorted(r["Name"] for r in rows)


def _committed(server):
    """joe's Salary read outside any transaction: committed state only."""
    with server._lock:
        return server.session.eval_py(SALARY)


def _emp(server):
    return _names(server.execute_exclusive(lambda cat: cat.extent("Emp")))


def test_did_read_records_first_version_only():
    txn = OCCTransaction()
    loc = Store().alloc("a")
    first = loc.version
    assert txn.did_read(loc) is None  # nothing staged: read the heap
    loc.version += 2
    txn.did_read(loc)  # later sighting must not overwrite the first
    assert txn.reads == {loc: first}


def test_validate_passes_when_versions_unchanged():
    txn = OCCTransaction()
    txn.did_read(Store().alloc("a"))
    txn.validate()


def test_validate_raises_on_stale_read():
    store = Store()
    txn = OCCTransaction()
    loc = store.alloc("a")
    txn.did_read(loc)
    store.write(loc, "b")  # a concurrent commit bumped it
    with pytest.raises(ConflictError, match="stale read"):
        txn.validate()


def test_validation_waits_for_the_store_stamp_to_move(server,
                                                       monkeypatch):
    # Every version change draws a fresh store stamp, so a transaction
    # that no commit overtook has no read to check (NOrec's global-clock
    # test).  Once the stamp moves, the next check walks the read set.
    walks = []
    real = OCCTransaction.validate
    monkeypatch.setattr(OCCTransaction, "validate",
                        lambda self: walks.append(self) or real(self))
    txn = _begin(server)
    txn.update_object("joe", "Salary", txn.eval_py(SALARY) + 1)
    _commit(server, txn)
    assert walks == []
    txn = _begin(server)
    txn.eval_py(SALARY)
    server.execute_exclusive(
        lambda cat: cat.update_object("amy", "Salary", 1))
    txn.update_object("joe", "Salary", 7)  # validates: amy was not read
    _commit(server, txn)  # nothing committed since: no second walk
    assert walks == [txn._txn]
    assert _committed(server) == 7


def test_blind_writers_of_one_location_both_commit_and_the_last_wins(
        server):
    first, second = _begin(server), _begin(server)
    first.update_object("joe", "Salary", 1)
    second.update_object("joe", "Salary", 2)
    _commit(server, second)
    _commit(server, first)  # ordered after the second: no conflict
    assert _committed(server) == 1


def test_read_then_write_upgrade_validates_at_write_time(server):
    # The lost-update window: T reads, someone else commits a write, T
    # writes back what it read plus one.  The stale read-modify-write
    # fails validation at the writing statement, which validates the
    # read set eagerly, and again at commit.
    txn = _begin(server)
    salary = txn.eval_py(SALARY)
    server.execute_exclusive(
        lambda cat: cat.update_object("joe", "Salary", 150))
    with pytest.raises(ConflictError, match="stale read"):
        txn.update_object("joe", "Salary", salary + 1)
    with pytest.raises(ConflictError, match="stale read"):
        _commit(server, txn)
    assert _committed(server) == 150


def test_self_written_location_is_exempt_from_validation(server):
    # Its own write never makes a transaction's read stale: the write is
    # staged, so the heap's stamp stays the one it read.
    txn = _begin(server)
    salary = txn.eval_py(SALARY)
    txn.update_object("joe", "Salary", salary + 1)
    _commit(server, txn)
    assert _committed(server) == 101


def test_rollback_restores_value_and_version(server):
    store = server.session.machine.store
    loc = server.session.eval("joe").raw.cells["Salary"]
    before = (loc.value, loc.version)
    txn = _begin(server)
    txn.update_object("joe", "Salary", 999)
    txn.insert("Emp", "amy")
    assert (loc.value, loc.version) == before  # staged, not written
    txn._txn.rollback()
    assert not txn._txn.staged
    assert (loc.value, loc.version) == before
    assert store.staging is None
    assert _emp(server) == ["Joe"]


def test_extent_tracking_mirrors_locations(server):
    reader, writer = _begin(server), _begin(server)
    assert _names(reader.extent("Emp")) == ["Joe"]
    writer.insert("Emp", "amy")
    reader._txn.validate()  # staged only: nothing committed yet
    _commit(server, writer)
    # Now the reader's extent read is stale.
    with pytest.raises(ConflictError, match="extent of class"):
        reader._txn.validate()


def test_extent_read_then_write_upgrade(server):
    txn = _begin(server)
    assert _names(txn.extent("Emp")) == ["Joe"]
    server.execute_exclusive(lambda cat: cat.insert("Emp", "amy"))
    with pytest.raises(ConflictError, match="extent of class"):
        txn.delete("Emp", "joe")
        _commit(server, txn)
    assert _emp(server) == ["Amy", "Joe"]


def test_two_inserts_into_one_class_cannot_both_commit(server):
    # An own-extent write replaces the extent it was computed from: had
    # both committed, the second install would erase the first insert.
    server.execute_exclusive(lambda cat: cat.new_object(
        "ann", Name="Ann", mutable={"Salary": 300}))
    first, second = _begin(server), _begin(server)
    first.insert("Emp", "amy")
    second.insert("Emp", "ann")
    _commit(server, first)
    with pytest.raises(ConflictError, match="extent of class"):
        _commit(server, second)
    assert _emp(server) == ["Amy", "Joe"]
    assert server.catalog.classes["Emp"].own == [("joe", None),
                                                 ("amy", None)]


@pytest.mark.parametrize("kind", ["location", "extent"])
def test_reader_sees_the_committed_value_while_a_write_is_staged(server,
                                                                 kind):
    writer, reader = _begin(server), _begin(server)
    if kind == "location":
        writer.update_object("joe", "Salary", 99)
        assert reader.eval_py(SALARY) == 100
        assert _committed(server) == 100
    else:
        writer.insert("Emp", "amy")
        assert _names(reader.extent("Emp")) == ["Joe"]
        assert _emp(server) == ["Joe"]
    # The reader commits first: it read committed state, so it is
    # ordered before the writer, which then commits too.
    _commit(server, reader)
    _commit(server, writer)
    if kind == "location":
        assert _committed(server) == 99
    else:
        assert _emp(server) == ["Amy", "Joe"]


@pytest.mark.parametrize("kind", ["location", "extent"])
def test_reread_never_sees_an_aborted_write(server, kind):
    # Read, another transaction writes, re-read, the writer aborts: both
    # reads saw committed state, so the reader commits.
    writer, reader = _begin(server), _begin(server)
    if kind == "location":
        read = lambda: reader.eval_py(SALARY)  # noqa: E731
        assert read() == 100
        writer.update_object("joe", "Salary", 99)
        assert read() == 100
    else:
        read = lambda: _names(reader.extent("Emp"))  # noqa: E731
        assert read() == ["Joe"]
        writer.insert("Emp", "amy")
        assert read() == ["Joe"]
    writer._txn.rollback()
    assert read() == (100 if kind == "location" else ["Joe"])
    _commit(server, reader)


def test_reread_after_own_write_is_not_doomed(server):
    # A transaction reads its own staged writes, through every view that
    # shares the location, and still validates.
    txn = _begin(server)
    assert txn.eval_py(SALARY) == 100
    assert _names(txn.extent("Emp")) == ["Joe"]
    txn.update_object("joe", "Salary", 101)
    txn.insert("Emp", "amy")
    assert txn.eval_py(SALARY) == 101
    assert txn.eval_py("query(fn v => v.Pay, (joe as fn x => "
                       "[Pay := extract(x, Salary)]))") == 101
    assert {r["Name"]: r["Salary"] for r in txn.extent("Emp")} == {
        "Joe": 101, "Amy": 200}
    _commit(server, txn)
    assert _committed(server) == 101
