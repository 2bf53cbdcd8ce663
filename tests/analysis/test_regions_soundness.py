"""Property test: static footprint ⊇ observed footprint.

The soundness contract of the regions analysis, pinned dynamically: for
a randomized program, resolve the static summary against the live
session *before* execution, then run the program under a
:class:`SharingTracer` and check that every location/extent it actually
touched is either covered by the resolved footprint or was freshly
allocated by the program itself (fresh state is private until the
transaction commits, so it cannot interfere).  An unbounded (⊤) summary
is trivially sound — it claims every state atom — but the generator
leans on bounded shapes so the interesting direction gets real
coverage.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.regions import (SharingTracer, program_footprint,
                                    resolve_footprint)
from repro.db.catalog import Catalog
from repro.eval.values import VRecord

_NAMES = ["joe", "amy", "bob"]

# Statement templates; {n} is an object name, {k} an integer constant.
_STATEMENTS = [
    "query(fn x => x.Salary, {n})",
    "query(fn x => update(x, Salary, x.Salary + {k}), {n})",
    "query(fn x => update(x, Salary, {k}), {n})",
    "val a{i} = {n}; query(fn v => update(v, Salary, {k}), a{i})",
    "c-query(fn S => size(S), Emp)",
    "c-query(fn S => map(fn o => query(fn v => v.Name, o), S), Names)",
    "insert({n}, Emp)",
    "delete({n}, Emp)",
    'val f{i} = IDView([Name = "f{i}", Salary := {k}]); insert(f{i}, Emp)',
    # Widens to ⊤ (mutating lambda through a builtin HOF): the summary
    # must stay sound by claiming nothing.
    "c-query(fn S => map(fn x => "
    "query(fn v => update(v, Salary, {k}), x), S), Emp)",
]

_ops = st.lists(
    st.tuples(st.integers(0, len(_STATEMENTS) - 1),
              st.sampled_from(_NAMES),
              st.integers(0, 9)),
    min_size=1, max_size=8)


def _session():
    cat = Catalog()
    for name in _NAMES:
        cat.new_object(name, Name=name.title(), mutable={"Salary": 100})
    cat.define_class("Emp", own=list(_NAMES))
    cat.session.exec(
        "val Names = class {} includes Emp "
        "as fn x => [Name = x.Name] where fn o => true end")
    return cat.session


@settings(max_examples=30, deadline=None)
@given(ops=_ops)
def test_static_footprint_covers_observed(ops):
    session = _session()
    statements = []
    for i, (ti, name, k) in enumerate(ops):
        statements.append(_STATEMENTS[ti].format(n=name, k=k, i=i))
    src = "; ".join(statements)

    summary = program_footprint(src, session.purity.snapshot())
    static = resolve_footprint(summary, session)

    loc_watermark = session.machine.store._next_id
    oid_watermark = VRecord({}, frozenset()).oid

    tracer = SharingTracer()
    session.machine.store.tracker = tracer
    try:
        session.exec(src)
    except Exception:
        # A program that fails mid-way still traced what it touched up
        # to the failure; the coverage obligation is unchanged.
        pass
    finally:
        session.machine.store.tracker = None

    if static is None:
        return  # ⊤ (or unresolvable roots): dynamic OCC, trivially sound

    static_locs = {i for kind, i in static.reads if kind == "loc"}
    static_write_locs = {i for kind, i in static.writes if kind == "loc"}
    static_exts = {i for kind, i in static.reads if kind == "ext"}
    static_write_exts = {i for kind, i in static.writes if kind == "ext"}

    observed_reads = {i for i in tracer.read_locations
                      if i < loc_watermark}
    observed_writes = {i for i in tracer.written_locations
                       if i < loc_watermark}
    observed_ext_reads = {o for o in tracer.read_extents
                          if o < oid_watermark}
    observed_ext_writes = {o for o in tracer.written_extents
                           if o < oid_watermark}

    assert observed_reads <= static_locs, \
        f"read locations escaped the static footprint: " \
        f"{sorted(observed_reads - static_locs)} :: {src}"
    assert observed_writes <= static_write_locs, \
        f"written locations escaped the static footprint: " \
        f"{sorted(observed_writes - static_write_locs)} :: {src}"
    assert observed_ext_reads <= static_exts, \
        f"read extents escaped the static footprint: " \
        f"{sorted(observed_ext_reads - static_exts)} :: {src}"
    assert observed_ext_writes <= static_write_exts, \
        f"written extents escaped the static footprint: " \
        f"{sorted(observed_ext_writes - static_write_exts)} :: {src}"
