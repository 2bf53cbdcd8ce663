"""Serializability of interleaved server transactions, property-based.

Hypothesis drives a deterministic, single-threaded *interleaving* of two
client transactions over one shared catalog — each step runs one
statement of one transaction, in an arbitrary schedule — and then
finishes them in a drawn order, each either committing or aborting
voluntarily.  The OCC layer may abort either transaction with a
ConflictError (at a stale read-modify-write upgrade, at a write latch, or
at commit validation, which also refuses dirty reads); whatever survives
must satisfy:

* **serializability** — the final database state, and every value each
  *committed* transaction read, equal those of running the committed
  transactions alone, in some serial order, from the initial state (so a
  committed read of an aborted write is caught);
* **abort invisibility** — an aborted transaction leaves no trace: no
  value changes, no version-stamp drift that would fail later readers,
  and no leaked store locations (allocation count unchanged).

The workload is deliberately allocation-free (reads and field updates
only) so the no-leak assertion is exact.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.catalog import Catalog
from repro.errors import ConflictError
from repro.server import Server, ServerConfig
from repro.server.occ import OCCTransaction
from repro.server.service import ClientTransaction

OBJECTS = ("x", "y")
INITIAL = {"x": 10, "y": 20}

# One transaction = an ordered program of (op, object) steps.  A "write"
# stores (last read of that object in this txn, or 0) + the txn's delta —
# non-commutative enough that ordering mistakes change the outcome.
steps = st.lists(
    st.tuples(st.sampled_from(["read", "write"]), st.sampled_from(OBJECTS)),
    min_size=1, max_size=4)
programs = st.tuples(steps, steps)
# The schedule interleaves txn 0 and txn 1 step indices.
schedules = st.lists(st.integers(0, 1), min_size=2, max_size=10)
# Which transaction finishes first, and whether each aborts voluntarily.
finishes = st.tuples(st.permutations([0, 1]),
                     st.tuples(st.booleans(), st.booleans()))


def _fresh_server():
    cat = Catalog()
    for name, value in INITIAL.items():
        cat.new_object(name, Name=name.upper(), mutable={"Val": value})
    # workers=0: the test drives transactions itself, deterministically.
    return Server(cat, config=ServerConfig(workers=0))


class _Driver:
    """Runs one transaction's program step by step through the real
    ClientTransaction machinery (tracked reads, latched writes)."""

    def __init__(self, server, delta, program):
        self.server = server
        self.delta = delta
        self.program = list(program)
        self.txn = OCCTransaction(server._latches)
        self.handle = ClientTransaction(server, self.txn, None)
        self.last_read = {}
        self.reads = []  # (object, value) per read step, in order
        self.pc = 0
        self.state = "running"  # running | committed | aborted

    def step(self):
        if self.state != "running" or self.pc >= len(self.program):
            return
        op, obj = self.program[self.pc]
        try:
            if op == "read":
                self.last_read[obj] = self.handle.eval_py(
                    f"query(fn v => v.Val, {obj})")
                self.reads.append((obj, self.last_read[obj]))
            else:
                value = self.last_read.get(obj, 0) + self.delta
                self.handle.update_object(obj, "Val", value)
        except ConflictError:
            self.server._rollback(self.txn, self.handle)
            self.state = "aborted"
        else:
            self.pc += 1

    def finish(self, abort):
        if self.state != "running":
            return
        if self.pc < len(self.program):  # drain any remaining steps
            while self.state == "running" and self.pc < len(self.program):
                self.step()
            if self.state != "running":
                return
        if abort:
            self.server._rollback(self.txn, self.handle)
            self.state = "aborted"
            return
        try:
            self.server._commit(self.txn, self.handle)
        except ConflictError:
            self.server._rollback(self.txn, self.handle)
            self.state = "aborted"
        else:
            self.state = "committed"


def _model_run(program, delta, state):
    """Apply one transaction's program to a plain-dict database model;
    returns the new state and the (object, value) of each read."""
    state = dict(state)
    last_read = {}
    reads = []
    for op, obj in program:
        if op == "read":
            last_read[obj] = state[obj]
            reads.append((obj, state[obj]))
        else:
            state[obj] = last_read.get(obj, 0) + delta
    return state, reads


def _serial_outcomes(committed):
    """For every serial order of the committed transactions (programs
    tagged with their deltas): the final state and, in commit-list
    order, the reads each transaction makes."""
    outcomes = []
    for order in itertools.permutations(range(len(committed))):
        state, reads = dict(INITIAL), [None] * len(committed)
        for i in order:
            program, delta = committed[i]
            state, reads[i] = _model_run(program, delta, state)
        outcomes.append((state, reads))
    return outcomes


@given(programs, schedules, finishes)
# Txn 0 reads x, txn 1 writes x in place, txn 0 re-reads the uncommitted
# value; txn 1 aborts (restoring x's stamp), then txn 0 tries to commit.
@example(([("read", "x"), ("read", "x")], [("write", "x")]), [0, 1, 0],
         ([1, 0], (False, True)))
@settings(max_examples=100, deadline=None)
def test_interleaved_transactions_serialize(progs, schedule, finish):
    server = _fresh_server()
    store = server.session.machine.store
    allocations_before = store.allocations
    order, aborts = finish
    try:
        drivers = [_Driver(server, delta, program)
                   for delta, program in zip((100, 7), progs)]
        for i in schedule:
            drivers[i].step()
        for i in order:
            drivers[i].finish(aborts[i])

        actual = {obj: server.catalog.session.eval_py(
            f"query(fn v => v.Val, {obj})") for obj in OBJECTS}
        done = [d for d in drivers if d.state == "committed"]
        committed = [(d.program, d.delta) for d in done]
        observed = (actual, [d.reads for d in done])
        assert observed in _serial_outcomes(committed), (
            f"final state {actual} and reads {observed[1]} match no "
            f"serial order of the committed transactions; states: "
            f"{[d.state for d in drivers]}")
        # Abort invisibility: reads-and-updates-only transactions leak no
        # store locations, whatever was rolled back.
        assert store.allocations == allocations_before
        # And the latch table is empty: nothing holds a lock past the end.
        assert server._latches._owners == {}
    finally:
        server.close()
