"""Bulk extent population for benchmarks and tests.

Inserting ``n`` objects through the surface language costs ``n`` parses,
``n`` typechecks and — far worse — ``n`` own-extent replacements, each of
which re-deduplicates the grown set (quadratic overall).  ``bulk_insert``
builds the object values directly and replaces the extent **once**,
through the same :meth:`~repro.eval.store.Store.replace_own` choke point
the evaluator uses, so transactions journal it and the query engine's
store observer sees one extent replacement covering the whole batch.

The class itself must already be declared through the surface language
(that is what establishes its type); only the *population* is bulk.
"""

from __future__ import annotations

from ..errors import EvalError
from ..eval.machine import identity_view
from ..eval.values import (VBool, VClass, VInt, VObject, VRecord, VString,
                           Value)

__all__ = ["bulk_insert"]


def _to_value(v) -> Value:
    if isinstance(v, bool):
        return VBool(v)
    if isinstance(v, int):
        return VInt(v)
    if isinstance(v, str):
        return VString(v)
    if isinstance(v, Value):
        return v
    raise EvalError(
        f"bulk_insert cannot convert {type(v).__name__} to a base value")


def bulk_insert(session, class_name: str, rows: list[dict],
                mutable: tuple[str, ...] = ()) -> int:
    """Insert one object per row dict into ``class_name``'s own extent.

    ``mutable`` names the labels allocated as store locations (assignable
    fields); every other label becomes an immutable cell, eligible for
    secondary indexing.  Returns the number of objects inserted.
    """
    machine = session.machine
    cls = session.runtime_env.lookup(class_name)
    if not isinstance(cls, VClass):
        raise EvalError(f"{class_name!r} is not a class")
    mutable_set = frozenset(mutable)
    objs: list[Value] = []
    for row in rows:
        cells: dict[str, object] = {}
        for label, v in row.items():
            value = _to_value(v)
            if label in mutable_set:
                cells[label] = machine.store.alloc(value)
            else:
                cells[label] = value
        machine.metrics.records_created += 1
        machine.metrics.objects_created += 1
        objs.append(VObject(VRecord(cells, mutable_set), identity_view()))
    store = machine.store
    store.replace_own(cls, machine.make_set(store.own(cls).elems + objs))
    return len(objs)
