"""Derived class operations: the paper's alternative delete semantics.

Section 4.1 discusses three possible semantics for ``delete(e, C)`` and
chooses the most basic one (remove from the class's *own* extent), noting
that the other two "are definable by using delete under our semantics and
other operations on views, sets and classes":

* **cascading delete** — if the object is imported from another class,
  remove it from that class (transitively): :func:`cascade_delete`;
* **blocking delete** — keep the object in its source class but block its
  inclusion here: the :func:`blocking_class` pattern, which materializes
  the paper's suggestion as a class whose include predicates consult an
  exclusion class.

Both are implemented against the runtime values (the "definable" claim is
about expressiveness; these helpers are the library form a user wants),
and :func:`blocking_class_source` also emits the pure in-language encoding
as surface syntax, which the tests type-check and run.  Like ``insert``,
they read and write own extents through the store
(:meth:`~repro.eval.store.Store.own`,
:meth:`~repro.eval.store.Store.replace_own`): journaled, stamped and
announced to the planner, or staged inside a server transaction.
"""

from __future__ import annotations

from ..errors import EvalError
from ..eval.equality import value_key
from ..eval.machine import Machine
from ..eval.values import VClass, VObject

__all__ = ["cascade_delete", "blocking_class_source", "block_object",
           "unblock_object"]


def cascade_delete(machine: Machine, cls: VClass, obj: VObject,
                   _visiting: frozenset[int] | None = None) -> int:
    """Remove ``obj`` (by objeq) from ``cls`` and every class it includes
    from, transitively.  Returns the number of own-extents modified.

    This is the paper's first alternative delete semantics: "if the
    specified element is imported from another class then it removes the
    element from that class".  Cycles are cut with the same visited-set
    discipline as extent computation.
    """
    visiting = _visiting or frozenset()
    if cls.oid in visiting:
        return 0
    visiting = visiting | {cls.oid}
    key = value_key(obj)
    removed = 0
    own = machine.store.own(cls).elems
    kept = [e for e in own if value_key(e) != key]
    if len(kept) != len(own):
        machine.store.replace_own(cls, machine.make_set(kept))
        removed += 1
    for clause in cls.includes:
        for source in clause.sources:
            removed += cascade_delete(machine, source, obj, visiting)
    return removed


def blocking_class_source(name: str, source: str, view: str,
                          pred: str = "fn o => true") -> str:
    """The in-language encoding of blocking deletes (surface syntax).

    Defines ``name`` to include from ``source`` everything satisfying
    ``pred`` that is *not* blocked, where blocked objects live in the
    ordinary class ``name_blocked`` — so "blocking delete" is just
    ``insert(o, name_blocked)`` and undo is ``delete(o, name_blocked)``.
    Both classes are created by the emitted declaration.
    """
    return (
        f"val {name}_blocked = class {{}} end; "
        f"val {name} = class {{}} includes {source} as {view} "
        f"where fn o => if {_apply(pred)} o "
        f"then not(c-query(fn S => member(o, S), {name}_blocked)) "
        f"else false end")


def _apply(pred: str) -> str:
    return f"({pred})"


def block_object(machine: Machine, blocked_class: VClass,
                 obj: VObject) -> None:
    """Runtime form of the blocking delete: add ``obj`` to the exclusion
    class (its own extent), leaving every source class untouched."""
    if not isinstance(blocked_class, VClass):  # pragma: no cover - guard
        raise EvalError("block_object expects a class")
    store = machine.store
    store.replace_own(blocked_class, machine.make_set(
        store.own(blocked_class).elems + [obj]))


def unblock_object(machine: Machine, blocked_class: VClass,
                   obj: VObject) -> None:
    """Undo :func:`block_object` (remove by objeq)."""
    key = value_key(obj)
    store = machine.store
    store.replace_own(blocked_class, machine.make_set(
        [e for e in store.own(blocked_class).elems if value_key(e) != key]))
