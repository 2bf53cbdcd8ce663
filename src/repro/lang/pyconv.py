"""Conversion of runtime values to plain Python data.

Used by :meth:`Session.eval_py`, the examples and the test-suite: comparing
query results as dicts/lists is far more readable than comparing value
objects.  Objects are converted through their *materialized view* — which is
exactly how the paper says an object presents itself to the user — with the
raw identity kept under the ``"__oid__"`` key so tests can assert object
sharing.

Records proven shared within one conversion (same ``oid`` reached twice —
e.g. a raw record appearing in several relation tuples) are converted
once and the resulting dict is reused: the repeated defensive copy is
redundant because both occurrences denote the *same* record, so their
conversions could never disagree.  Objects are never memoized — their
conversion runs the viewing function, which the materialization metrics
(and, in principle, effects) observe per occurrence.
"""

from __future__ import annotations

from typing import Any, Optional

from ..eval.machine import Machine
from ..eval.store import Location
from ..eval.values import (VBool, VBuiltin, VClass, VClosure, VInt, VObject,
                           VRecord, VSet, VString, VUnit, Value)

__all__ = ["value_to_python", "record_to_python"]


def record_to_python(rec: VRecord, machine: Machine,
                     _memo: Optional[dict] = None) -> dict[str, Any]:
    memo = _memo if _memo is not None else {}
    hit = memo.get(rec.oid)
    if hit is not None:
        return hit
    store = machine.store
    out: dict[str, Any] = {}
    memo[rec.oid] = out
    for label in rec.labels():
        cell = rec.cells[label]
        # Conversion is an observation: a server transaction that returns
        # this value to a client has *read* these cells, so OCC must
        # validate their versions at commit (and answers from its own
        # staged write, if it made one).
        inner = store.read(cell) if isinstance(cell, Location) else cell
        out[label] = value_to_python(inner, machine, memo)
    return out


def value_to_python(v: Value, machine: Machine,
                    _memo: Optional[dict] = None) -> Any:
    if isinstance(v, VUnit):
        return None
    if isinstance(v, (VInt, VBool, VString)):
        return v.value
    if isinstance(v, VRecord):
        return record_to_python(v, machine, _memo)
    if _memo is None:
        _memo = {}
    if isinstance(v, VSet):
        return [value_to_python(e, machine, _memo) for e in v.elems]
    if isinstance(v, VObject):
        materialized = machine.materialize(v)
        out = value_to_python(materialized, machine, _memo)
        if isinstance(out, dict):
            out["__oid__"] = v.raw.oid
        return out
    if isinstance(v, VClass):
        extent = machine.class_extent(v)
        return {"__class__": v.oid,
                "extent": value_to_python(extent, machine, _memo)}
    if isinstance(v, (VClosure, VBuiltin)):
        return f"<function {getattr(v, 'name', getattr(v, 'param', '?'))}>"
    raise AssertionError(f"unconvertible value {type(v).__name__}")
