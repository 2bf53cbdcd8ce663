"""Unit tests for the OCC layer: latches, read validation, rollback."""

import pytest

from repro.errors import ConflictError
from repro.server.occ import LatchTable, OCCTransaction


class FakeLoc:
    """Just enough of a Location for the OCC bookkeeping."""

    __slots__ = ("id", "value", "version")

    def __init__(self, id, value, version=0):
        self.id = id
        self.value = value
        self.version = version


class FakeClass:
    __slots__ = ("oid", "own", "version")

    def __init__(self, oid, own=(), version=0):
        self.oid = oid
        self.own = list(own)
        self.version = version


@pytest.fixture()
def latches():
    return LatchTable()


def test_did_read_records_first_version_only(latches):
    txn = OCCTransaction(latches)
    loc = FakeLoc(0, "a", version=7)
    txn.did_read(loc)
    loc.version = 9
    txn.did_read(loc)  # later sighting must not overwrite the first
    assert txn.reads[id(loc)] == (loc, 7)


def test_validate_passes_when_versions_unchanged(latches):
    txn = OCCTransaction(latches)
    loc = FakeLoc(0, "a", version=3)
    txn.did_read(loc)
    txn.validate()


def test_validate_raises_on_stale_read(latches):
    txn = OCCTransaction(latches)
    loc = FakeLoc(0, "a", version=3)
    txn.did_read(loc)
    loc.version = 4  # a concurrent commit bumped it
    with pytest.raises(ConflictError):
        txn.validate()


def test_write_write_conflict_is_immediate(latches):
    t1, t2 = OCCTransaction(latches), OCCTransaction(latches)
    loc = FakeLoc(0, "a")
    t1.will_write(loc)
    with pytest.raises(ConflictError):
        t2.will_write(loc)
    # The latch outlives further statements until t1 finishes...
    with pytest.raises(ConflictError):
        t2.will_write(loc)
    t1.finalize()
    # ...after which t2 acquires it freely.
    t2.will_write(loc)


def test_read_then_write_upgrade_validates_at_write_time(latches):
    # The lost-update window: T reads, someone else commits a write, T
    # writes.  The latch only protects from the write on, so the upgrade
    # itself must detect the stale read.
    txn = OCCTransaction(latches)
    loc = FakeLoc(0, 100, version=5)
    txn.did_read(loc)
    loc.version = 6
    loc.value = 101
    with pytest.raises(ConflictError):
        txn.will_write(loc)


def test_self_written_location_is_exempt_from_validation(latches):
    txn = OCCTransaction(latches)
    loc = FakeLoc(0, 100, version=5)
    txn.did_read(loc)
    txn.will_write(loc)
    loc.value = 101
    loc.version = 6  # our own write bumped the stamp
    txn.validate()  # exempt: the latch proves nobody else touched it


def test_rollback_restores_value_and_version(latches):
    txn = OCCTransaction(latches)
    loc = FakeLoc(0, 100, version=5)
    txn.will_write(loc)
    loc.value = 999
    loc.version = 6
    txn.rollback()
    assert (loc.value, loc.version) == (100, 5)
    # Latch released: a new transaction can write immediately.
    OCCTransaction(latches).will_write(loc)


def test_extent_tracking_mirrors_locations(latches):
    t1, t2 = OCCTransaction(latches), OCCTransaction(latches)
    cls = FakeClass(1, own=["a"], version=2)
    t1.did_read_extent(cls)
    t2.will_write_extent(cls)
    old_own = cls.own
    cls.own = cls.own + ["b"]
    cls.version = 3
    # t1's extent read is now stale.
    with pytest.raises(ConflictError):
        t1.validate()
    t2.rollback()
    assert cls.own is old_own and cls.version == 2
    # After the rollback restored the version, t1 validates again.
    t1.validate()


def test_extent_read_then_write_upgrade(latches):
    txn = OCCTransaction(latches)
    cls = FakeClass(1, own=["a"], version=2)
    txn.did_read_extent(cls)
    cls.version = 3
    with pytest.raises(ConflictError):
        txn.will_write_extent(cls)


@pytest.mark.parametrize("kind", ["location", "extent"])
def test_read_of_another_transactions_latch_is_a_dirty_read(latches, kind):
    # The writer writes in place and may still abort, so a reader must
    # not commit a value it saw under someone else's latch.
    writer, reader = OCCTransaction(latches), OCCTransaction(latches)
    if kind == "location":
        obj = FakeLoc(0, 1)
        writer.will_write(obj)
        obj.value = 99
        reader.did_read(obj)
    else:
        obj = FakeClass(1, own=["a"])
        writer.will_write_extent(obj)
        obj.own = ["a", "b"]
        reader.did_read_extent(obj)
    with pytest.raises(ConflictError, match="dirty read"):
        reader.validate()
    # The writer's own reads of what it latched stay exempt.
    if kind == "location":
        writer.did_read(obj)
    else:
        writer.did_read_extent(obj)
    writer.validate()
    # Once the writer has finished, the latch no longer blocks the read.
    writer.finalize()
    reader.validate()


@pytest.mark.parametrize("kind", ["location", "extent"])
def test_reread_of_a_rolled_back_write_dooms_the_reader(latches, kind):
    # Read, another transaction writes in place, re-read (the uncommitted
    # value), writer rolls back.  The rollback restores the first stamp
    # and releases the latch, so only the re-read can tell.
    writer, reader = OCCTransaction(latches), OCCTransaction(latches)
    if kind == "location":
        obj = FakeLoc(0, 1, version=3)
        reader.did_read(obj)
        writer.will_write(obj)
        obj.value, obj.version = 99, 4
        reader.did_read(obj)
    else:
        obj = FakeClass(1, own=["a"], version=3)
        reader.did_read_extent(obj)
        writer.will_write_extent(obj)
        obj.own, obj.version = ["a", "b"], 4
        reader.did_read_extent(obj)
    writer.rollback()
    assert obj.version == 3
    with pytest.raises(ConflictError, match="non-repeatable read"):
        reader.validate()


def test_reread_after_own_write_is_not_doomed(latches):
    txn = OCCTransaction(latches)
    loc, cls = FakeLoc(0, 100, version=5), FakeClass(1, version=2)
    txn.did_read(loc)
    txn.did_read_extent(cls)
    txn.will_write(loc)
    txn.will_write_extent(cls)
    loc.version, cls.version = 6, 3  # our own writes bumped the stamps
    txn.did_read(loc)
    txn.did_read_extent(cls)
    txn.validate()
