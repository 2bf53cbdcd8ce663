"""Serializability of interleaved server transactions, property-based.

Hypothesis drives a deterministic, single-threaded *interleaving* of two
client transactions over one shared catalog — each step runs one
statement of one transaction, in an arbitrary schedule — with a third
actor whose one-shot transactions commit between steps, and then
finishes the two in a drawn order, each either committing or aborting
voluntarily.  Statements read and write the field ``Val`` of two
objects, insert them into and delete them from class ``C``, and read
``C``'s extent.  The OCC layer may abort either transaction with a
ConflictError (at a writing statement's eager validation or at commit
validation); whatever survives must satisfy, after *every* step:

* **committed state only** — ``persist.snapshot`` of the catalog (what a
  checkpoint writes) equals the committed transactions applied in commit
  order, so no uncommitted write is ever visible outside its
  transaction, and the class registry's members equal the live extent;

and at the end:

* **serializability** — the final database state, and every value each
  *committed* transaction read, equal those of running the committed
  transactions alone, in some serial order, from the initial state (so a
  committed read of an aborted write is caught);
* **abort invisibility** — no leaked store locations (allocation count
  unchanged; the workload allocates nothing).
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import persist
from repro.db.catalog import Catalog
from repro.errors import ConflictError
from repro.server import Server, ServerConfig
from repro.server.occ import OCCTransaction
from repro.server.service import ClientTransaction

OBJECTS = ("x", "y")
INITIAL = {"x": 10, "y": 20, "C": frozenset({"x"})}

# One transaction = an ordered program of (op, object) steps.  A "write"
# stores (last read of that object in this txn, or 0) + the txn's delta —
# non-commutative enough that ordering mistakes change the outcome.
step = st.one_of(
    st.tuples(st.sampled_from(["read", "write", "insert", "delete"]),
              st.sampled_from(OBJECTS)),
    st.just(("extent", "C")))
steps = st.lists(step, min_size=1, max_size=4)
programs = st.tuples(steps, steps)
# The third actor's one-shots: one statement each, committed at once.
oneshots = st.lists(step, max_size=3)
# The schedule interleaves txn 0 and txn 1 step indices; 2 runs the next
# one-shot.
schedules = st.lists(st.integers(0, 2), min_size=2, max_size=12)
# Which transaction finishes first, and whether each aborts voluntarily.
finishes = st.tuples(st.permutations([0, 1]),
                     st.tuples(st.booleans(), st.booleans()))


def _fresh_server():
    cat = Catalog()
    for name in OBJECTS:
        cat.new_object(name, Name=name.upper(), mutable={"Val": INITIAL[name]})
    cat.define_class("C", own=sorted(INITIAL["C"]))
    # workers=0: the test drives transactions itself, deterministically.
    return Server(cat, config=ServerConfig(workers=0))


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
        elif op == "write":
            state[obj] = last_read.get(obj, 0) + delta
        elif op == "insert":
            state["C"] = state["C"] | {obj}
        elif op == "delete":
            state["C"] = state["C"] - {obj}
        else:
            reads.append(("C", sorted((m, state[m]) for m in state["C"])))
    return state, reads


class _Actor:
    """Runs one transaction's program step by step through the real
    ClientTransaction machinery (tracked reads, staged writes)."""

    def __init__(self, server, delta, program, log):
        self.server = server
        self.delta = delta
        self.program = list(program)
        self.log = log  # the committed actors, in commit order
        self.txn = OCCTransaction()
        self.handle = ClientTransaction(server, self.txn, None)
        self.last_read = {}
        self.reads = []  # (object, value) per read step, in order
        self.pc = 0
        self.state = "running"  # running | committed | aborted

    def step(self):
        if self.state != "running" or self.pc >= len(self.program):
            return
        op, obj = self.program[self.pc]
        h = self.handle
        try:
            if op == "read":
                self.last_read[obj] = h.eval_py(
                    f"query(fn v => v.Val, {obj})")
                self.reads.append((obj, self.last_read[obj]))
            elif op == "write":
                value = self.last_read.get(obj, 0) + self.delta
                h.update_object(obj, "Val", value)
            elif op == "insert":
                h.insert("C", obj)
            elif op == "delete":
                h.delete("C", obj)
            else:
                self.reads.append(("C", sorted(
                    (r["Name"].lower(), r["Val"]) for r in h.extent("C"))))
        except ConflictError:
            self.txn.rollback()
            self.state = "aborted"
        else:
            self.pc += 1

    def finish(self, abort):
        while self.state == "running" and self.pc < len(self.program):
            self.step()
        if self.state != "running":
            return
        if abort:
            self.txn.rollback()
            self.state = "aborted"
            return
        try:
            self.server._commit(self.txn, self.handle)
        except ConflictError:
            self.txn.rollback()
            self.state = "aborted"
        else:
            self.state = "committed"
            self.log.append(self)


def _committed_state(log):
    """The committed transactions applied in commit order; each one's
    reads must be what it saw, since a commit validated them current."""
    state = dict(INITIAL)
    for d in log:
        state, reads = _model_run(d.program, d.delta, state)
        assert reads == d.reads, (
            f"a committed transaction read {d.reads}, but at its commit "
            f"point the committed state gives {reads}")
    return state


def _check_committed_only(server, log):
    """What a checkpoint would write is exactly the committed state, and
    the class registry agrees with the live extent."""
    cat = server.catalog
    snap = server.execute_exclusive(persist.snapshot)
    values = {o["name"]: {label: v for label, v, _m in o["fields"]}["Val"]
              for o in snap["objects"]}
    (members,) = [{m for m, _view in c["own"]}
                  for c in snap["classes"] if c["name"] == "C"]
    live = server.execute_exclusive(lambda c: c.extent("C"))
    assert members == {r["Name"].lower() for r in live}, (
        f"registry members {members} differ from the live extent {live}")
    assert {m for m, _view in cat.classes["C"].own} == members
    expected = _committed_state(log)
    assert dict(values, C=members) == expected, (
        f"snapshot {dict(values, C=members)} is not the committed state "
        f"{expected}")


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


@given(programs, oneshots, schedules, finishes)
# Txn 0 reads x, txn 1 writes x, txn 0 re-reads x; txn 1 aborts, then
# txn 0 commits: both of its reads must have seen the committed 10.
@example(([("read", "x"), ("read", "x")], [("write", "x")]), [],
         [0, 1, 0], ([1, 0], (False, True)))
# Two transactions replace C's own extent from the same version: had
# both committed, the second install would erase the first's insert.
@example(([("insert", "y")], [("delete", "x")]), [], [0, 1],
         ([0, 1], (False, False)))
@settings(max_examples=150, deadline=None)
def test_interleaved_transactions_serialize(progs, shots, schedule, finish):
    server = _fresh_server()
    store = server.session.machine.store
    allocations_before = store.allocations
    order, aborts = finish
    log = []
    try:
        actors = [_Actor(server, delta, program, log)
                   for delta, program in zip((100, 7), progs)]
        pending = [_Actor(server, 1000 * (k + 1), [shot], log)
                   for k, shot in enumerate(shots)]
        for i in schedule:
            if i < 2:
                actors[i].step()
            elif pending:
                pending.pop(0).finish(abort=False)
            _check_committed_only(server, log)
        for i in order:
            actors[i].finish(aborts[i])
            _check_committed_only(server, log)

        actual = server.execute_exclusive(lambda cat: dict(
            {obj: cat.session.eval_py(f"query(fn v => v.Val, {obj})")
             for obj in OBJECTS},
            C={r["Name"].lower() for r in cat.extent("C")}))
        committed = [(d.program, d.delta) for d in log]
        observed = (actual, [d.reads for d in log])
        assert observed in _serial_outcomes(committed), (
            f"final state {actual} and reads {observed[1]} match no "
            f"serial order of the committed transactions; states: "
            f"{[d.state for d in actors]}")
        # Abort invisibility: this workload allocates nothing, whatever
        # was rolled back.
        assert store.allocations == allocations_before
    finally:
        server.close()
