"""A small object-database layer built on the calculus.

The paper's motivation is object-oriented *database* programming: named
classes holding objects, views restricting or recombining them, queries
against class extents.  :class:`Catalog` packages that workflow:

* named raw objects created from Python data,
* named classes (optionally mutually recursive) defined by own extents and
  include specifications written in the surface language,
* inserts/deletes and set-level queries against extents,
* a definition log that :mod:`repro.db.persist` uses for snapshots.

Everything goes through a :class:`~repro.lang.api.Session`, so every
definition is type-checked before it takes effect.

Robustness guarantees (see ``docs/ROBUSTNESS.md``):

* every mutating operation is **all-or-nothing** — it runs inside a
  session transaction, and each write to the catalog's own registries
  journals its one inverse (pop a new key, put back the old spec, pop an
  appended member, put back the old member list) in that transaction's
  store journal, so a failed definition leaves neither half-applied
  bindings nor a stale spec, at a cost that does not grow with the
  catalog;
* a catalog can be given a :class:`~repro.db.wal.WriteAheadLog`; each
  mutation is appended (inside the same atomic scope) and
  :func:`repro.db.persist.recover` rebuilds the catalog after a crash
  from its last snapshot and the log records after it, tolerating a
  torn tail record.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..errors import PersistenceError, ReproError
from ..lang.api import Session
from .wal import WriteAheadLog

__all__ = ["Catalog", "IncludeSpec", "ClassSpec", "ObjectSpec"]


def _literal(value) -> str:
    """Render a Python scalar as a surface-language literal."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise ReproError(
        f"cannot embed Python value {value!r} as a language literal "
        f"(int, str and bool are supported)")


@dataclass
class IncludeSpec:
    """One include clause: source class names, view and predicate source."""

    sources: list[str]
    view: str
    pred: str = "fn x => true"

    def render(self) -> str:
        srcs = ", ".join(self.sources)
        return f"includes {srcs} as {self.view} where {self.pred}"


@dataclass
class ObjectSpec:
    """The definition of a named raw object (for persistence)."""

    name: str
    fields: list[tuple[str, object, bool]]  # (label, value, mutable)

    def render(self) -> str:
        parts = [
            f"{label} {':=' if mutable else '='} {_literal(value)}"
            for label, value, mutable in self.fields]
        return "IDView([" + ", ".join(parts) + "])"


@dataclass
class ClassSpec:
    """The definition of a named class (for persistence)."""

    name: str
    own: list[tuple[str, str | None]]  # (object name, optional view source)
    includes: list[IncludeSpec] = field(default_factory=list)
    group: list[str] = field(default_factory=list)  # recursive group names

    def render(self) -> str:
        members = ", ".join(
            name if view is None else f"({name} as {view})"
            for name, view in self.own)
        clauses = " ".join(inc.render() for inc in self.includes)
        return f"class {{{members}}} {clauses} end".replace("  ", " ")


class Catalog:
    """A registry of named objects and classes over one session.

    ``wal`` (a :class:`~repro.db.wal.WriteAheadLog`, or a path to open one
    at) makes the catalog durable: every mutation is appended to the log
    and :func:`repro.db.persist.recover` replays it after a crash.
    """

    def __init__(self, session: Session | None = None,
                 wal: "WriteAheadLog | str | None" = None,
                 optimize: bool = False):
        self.session = (session if session is not None
                        else Session(optimize=optimize))
        self.objects: dict[str, ObjectSpec] = {}
        self.classes: dict[str, ClassSpec] = {}
        self.wal = WriteAheadLog(wal) if isinstance(wal, str) else wal
        self._replaying = False
        #: Serializes every operation that touches the session/store.  The
        #: session's evaluator is not thread-safe; multi-threaded callers
        #: (and the server, which uses this same lock as its statement
        #: lock) interleave at operation granularity, never inside one.
        self.lock = threading.RLock()
        #: When set (by a server transaction), :meth:`_log` appends records
        #: here instead of the WAL; the server flushes them to the WAL at
        #: commit, so the log only ever contains *committed* transactions.
        #: Its ``insert``/``delete`` records reach the class registry at
        #: commit too (:meth:`install_members`).
        self._log_sink: list[tuple[str, dict]] | None = None

    # -- atomicity and the WAL ---------------------------------------------

    @contextmanager
    def _atomic(self):
        """Make one catalog operation all-or-nothing.

        Runs the operation in a session transaction.  Every registry write
        inside it journals its one inverse in the store's undo journal
        (:meth:`_undo`), which that transaction's savepoint owns; any
        failure — a type error in generated source, a WAL append fault, an
        injected fault — rolls the session back and runs the inverses
        newest first, so the catalog never holds a spec whose definition
        did not take effect (or vice versa).  Scopes nest like
        savepoints: an inner failure undoes back to its own mark, and the
        journal is dropped only when the outermost transaction closes.
        """
        with self.lock, self.session.transaction():
            yield

    def _undo(self, inverse) -> None:
        """Journal ``inverse`` for the open session transaction.  Call it
        *before* the write it undoes: a fault raised here then leaves
        nothing to undo."""
        self.session.machine.store.note_undo(inverse)

    def _put(self, registry: dict, name: str, spec) -> None:
        """``registry[name] = spec``, journaling the inverse."""
        if name in registry:
            old = registry[name]
            self._undo(lambda: registry.__setitem__(name, old))
        else:
            self._undo(lambda: registry.pop(name))
        registry[name] = spec

    def _log(self, op: str, **args) -> None:
        """Append a mutation record (no-op without a WAL or during replay).

        Called inside :meth:`_atomic`, so an append failure rolls the
        whole operation back: the in-memory catalog never runs ahead of
        the log.  (The log may run ahead of memory by at most the one
        record whose fsync failed — redo-log semantics; recovery replays
        it.)
        """
        if self._replaying:
            return
        if self._log_sink is not None:
            self._log_sink.append((op, args))
        elif self.wal is not None:
            self.wal.append(op, args)

    def _apply(self, record: dict) -> None:
        op, args = record.get("op"), record.get("args", {})
        if op == "new_object":
            self.new_object(args["name"], mutable=args["mutable"],
                            **args["immutable"])
        elif op == "define_class":
            self.define_class(
                args["name"], own=args["own"],
                includes=[IncludeSpec(i["sources"], i["view"], i["pred"])
                          for i in args["includes"]],
                own_views=args["own_views"] or None,
                element_type=args["element_type"])
        elif op == "define_classes":
            self.define_classes({
                spec["name"]: ClassSpec(
                    spec["name"], [tuple(m) for m in spec["own"]],
                    [IncludeSpec(i["sources"], i["view"], i["pred"])
                     for i in spec["includes"]])
                for spec in args["specs"]})
        elif op == "insert":
            self.insert(args["class"], args["object"], view=args["view"])
        elif op == "delete":
            self.delete(args["class"], args["object"])
        elif op == "update_object":
            self.update_object(args["object"], args["label"], args["value"])
        elif op == "txn":
            # A server transaction's mutations, group-committed as one
            # record so a crash mid-flush tears at most one *transaction*
            # (the torn-tail guarantee), and replayed in one atomic scope
            # so a failing sub-op never leaves the others applied.
            with self._atomic():
                for sub in args["ops"]:
                    self._apply(sub)
        elif op != "checkpoint":  # a truncated log's first record: no-op
            raise PersistenceError(
                f"WAL record lsn {record.get('lsn')} has unknown op "
                f"{op!r}")

    # -- objects ------------------------------------------------------------

    def new_object(self, name: str, mutable: dict | None = None,
                   **fields) -> None:
        """Create and bind a raw object with the identity view.

        Keyword arguments become immutable fields; entries of ``mutable``
        become mutable fields.  Field order is immutable-then-mutable.
        """
        spec = ObjectSpec(name, [
            *((label, value, False) for label, value in fields.items()),
            *((label, value, True)
              for label, value in (mutable or {}).items())])
        if not spec.fields:
            raise ReproError("an object needs at least one field")
        with self._atomic():
            self.session.bind(name, spec.render())
            self._put(self.objects, name, spec)
            self._log("new_object", name=name, immutable=dict(fields),
                      mutable=dict(mutable or {}))

    # -- classes --------------------------------------------------------

    def define_class(self, name: str, own: list[str] | None = None,
                     includes: list[IncludeSpec] | None = None,
                     own_views: dict[str, str] | None = None,
                     element_type: str | None = None) -> None:
        """Define a non-recursive class from named objects.

        ``own`` lists member object names; ``own_views`` optionally maps a
        member to a viewing-function source applied on entry.
        ``element_type`` (a ground record type in surface syntax, e.g.
        ``"[Name = string, Salary := int]"``) declares the class schema —
        the definition is checked against ``class(element_type)`` via type
        ascription and rejected on mismatch.
        """
        views = own_views or {}
        spec = ClassSpec(name,
                         [(m, views.get(m)) for m in (own or [])],
                         list(includes or []))
        rendered = spec.render()
        if element_type is not None:
            rendered = f"({rendered}) : class({element_type})"
        with self._atomic():
            self.session.exec(f"val {name} = {rendered}")
            self._put(self.classes, name, spec)
            self._log("define_class", name=name, own=list(own or []),
                      includes=[{"sources": i.sources, "view": i.view,
                                 "pred": i.pred} for i in (includes or [])],
                      own_views=dict(views), element_type=element_type)

    def define_classes(self, specs: dict[str, ClassSpec]) -> None:
        """Define a mutually recursive class group (Section 4.4)."""
        group = list(specs)
        rendered = " and ".join(
            f"{name} = {spec.render()}" for name, spec in specs.items())
        with self._atomic():
            self.session.exec(f"val {rendered}")
            for name, spec in specs.items():
                spec.group = group
                self._put(self.classes, name, spec)
            # A list, not a dict: the WAL serializes canonically with
            # sorted keys, and group *order* is part of the definition.
            self._log("define_classes", specs=[
                {"name": name,
                 "own": [list(m) for m in spec.own],
                 "includes": [{"sources": i.sources, "view": i.view,
                               "pred": i.pred}
                              for i in spec.includes]}
                for name, spec in specs.items()])

    # -- updates ------------------------------------------------------------

    def insert(self, class_name: str, object_name: str,
               view: str | None = None) -> None:
        """Insert a named object (optionally re-viewed) into a class."""
        self._require_class(class_name)
        obj_src = object_name if view is None else f"({object_name} as {view})"
        with self._atomic():
            self.session.eval(f"insert({obj_src}, {class_name})")
            self._member("insert", {"class": class_name,
                                    "object": object_name, "view": view})

    def delete(self, class_name: str, object_name: str) -> None:
        """Remove a named object from a class's own extent (by objeq)."""
        self._require_class(class_name)
        with self._atomic():
            self.session.eval(f"delete({object_name}, {class_name})")
            self._member("delete", {"class": class_name,
                                    "object": object_name})

    def _member(self, op: str, args: dict) -> None:
        """Log an ``insert``/``delete``; inside a server transaction its
        registry change waits for the commit, like its heap writes."""
        if self._log_sink is None:
            self.install_members([(op, args)])
        self._log(op, **args)

    def install_members(self, records: list[tuple[str, dict]]) -> None:
        """Apply ``insert``/``delete`` records to the class registry."""
        for op, args in records:
            if op not in ("insert", "delete"):
                continue
            spec = self.classes[args["class"]]
            old = spec.own
            if op == "insert":
                self._undo(old.pop)
                old.append((args["object"], args["view"]))
            else:
                self._undo(lambda s=spec, o=old: setattr(s, "own", o))
                spec.own = [(m, v) for m, v in old if m != args["object"]]

    def update_object(self, object_name: str, label: str, value) -> None:
        """Update a mutable field of a named raw object.

        The label is validated against the object's spec up front, so a
        typo or an immutable field raises a :class:`ReproError` naming
        the field instead of a downstream inference error from generated
        source.
        """
        spec = self.objects.get(object_name)
        if spec is None:
            raise ReproError(f"unknown object '{object_name}'")
        for spec_label, _value, mutable in spec.fields:
            if spec_label == label:
                if not mutable:
                    raise ReproError(
                        f"field '{label}' of object '{object_name}' is "
                        "immutable; declare it in `mutable=` at creation "
                        "to update it")
                break
        else:
            known = ", ".join(lbl for lbl, _v, _m in spec.fields)
            raise ReproError(
                f"object '{object_name}' has no field '{label}' "
                f"(fields: {known})")
        with self._atomic():
            self.session.eval(
                f"query(fn x => update(x, {label}, {_literal(value)}), "
                f"{object_name})")
            self._log("update_object", object=object_name, label=label,
                      value=value)

    # -- queries --------------------------------------------------------

    def extent(self, class_name: str) -> list[dict]:
        """The materialized extent as a list of Python dicts."""
        self._require_class(class_name)
        with self.lock:
            return self.session.eval_py(
                f"c-query(fn S => map(fn o => query(fn v => v, o), S), "
                f"{class_name})")

    def query(self, class_name: str, fn_src: str):
        """Run a set-level query (surface syntax) against a class extent."""
        self._require_class(class_name)
        with self.lock:
            return self.session.eval_py(f"c-query({fn_src}, {class_name})")

    def explain(self, class_name: str, fn_src: str) -> str:
        """Render the query plan for :meth:`query` without executing it."""
        self._require_class(class_name)
        with self.lock:
            return self.session.explain_plan(
                f"c-query({fn_src}, {class_name})")

    def names(self) -> list[str]:
        return sorted(self.classes)

    def _require_class(self, name: str) -> None:
        if name not in self.classes:
            raise ReproError(f"unknown class '{name}'")
