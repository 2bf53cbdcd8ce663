"""Closure compilation vs. the interpreter: the issue's ≥5× gate.

Two sessions run identical prepared programs — one on the bare machine
(``compile="off"``, the semantic oracle), one through the closure
compiler — over the workload families of the two benches the issue
names:

* **section33 pipeline** (``bench_section33_pipeline``) — the wealthy
  query over a ``people`` set of ``N_PEOPLE`` person objects (the
  pipeline's scaling workload), plus the fixed-size §3.3 running
  example itself.  The scaling query carries the gate; the §3.3
  microprogram is reported but not gated at 5× — it is dominated by
  view materialization and store traffic in the machine, which both
  sides share.
* **core sets** (``bench_core_sets``) — the hom fold and the
  map/filter pipeline at ``N_SET`` elements (gated), plus union and
  member (reported: single builtin calls, mostly ``make_set`` on both
  sides).

Timings are best-of-rounds over prepared queries (parse and inference
paid once, exactly like the other benches' steady-state loops; the
served path now skips them too for a repeated statement shape, through
the session's statement cache), with
the two sides' rounds interleaved so host noise cannot land on just
one of them, and every workload first checks the two sessions agree
on the result.

Gates (CI, full mode): the wealthy query, the hom fold and the
map/filter pipeline each run **at least 5×** faster compiled, and
every reported workload is no slower than 1×.  Results land in
``BENCH_compile.json``.  ``REPRO_BENCH_QUICK=1`` shrinks the sizes and
gates ordering only (>1×).
"""

import gc
import json
import os
import time
from pathlib import Path

from repro import Session

from workloads import populate_people

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_compile.json"

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_PEOPLE = 60 if QUICK else 400
N_SET = 200 if QUICK else 1000
ROUNDS = 3 if QUICK else 7
GATE = 1.0 if QUICK else 5.0

SECTION33 = '''
let joe = IDView([Name = "Joe", BirthYear = 1955,
                  Salary := 2000, Bonus := 5000]) in
let joe_view = (joe as fn x => [Name = x.Name,
                                Age = This_year() - x.BirthYear,
                                Income = x.Salary,
                                Bonus := extract(x, Bonus)]) in
let ai = fn p => (p.Income) * 12 + p.Bonus in
let adjust = fn p => query(fn x => update(x, Bonus, x.Income * 3), p) in
let u = adjust joe_view in
query(ai, joe_view)
end end end end end
'''


def _set_src(n, start=0):
    return "{" + ", ".join(str(i) for i in range(start, start + n)) + "}"


def _people_setup(session):
    populate_people(session, N_PEOPLE)
    session.exec("fun monthly o = query(fn v => v.Salary, o)")


#: label -> (source, setup, gated at >= GATE)
WORKLOADS = {
    "wealthy_query": (
        "size(select as fn x => [Name = x.Name] from people "
        f"where fn o => monthly o > {1000 + N_PEOPLE // 2})",
        _people_setup, True),
    "section33_program": (SECTION33, None, False),
    "hom_sum": (
        f"hom({_set_src(N_SET)}, fn x => x, fn a => fn b => a + b, 0)",
        None, True),
    "map_filter": (
        f"size(filter(fn x => x > {N_SET // 2}, "
        f"map(fn x => x + 1, {_set_src(N_SET)})))",
        None, True),
    "union_overlapping": (
        f"union({_set_src(N_SET)}, {_set_src(N_SET, N_SET // 2)})",
        None, False),
    "member_hit": (
        f"member({N_SET - 1}, {_set_src(N_SET)})",
        None, False),
}


def _best_pair(p_interp, p_comp, rounds=ROUNDS):
    # Interleave the two sides round by round and take each side's best:
    # a slow window on the host (scheduler, frequency scaling) then hits
    # both timings instead of whichever side happened to run during it,
    # keeping the *ratio* stable.  Pause the collector so garbage from
    # earlier workloads can't bill its collection to the timed region.
    gc.collect()
    gc.disable()
    try:
        interp_s = comp_s = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            p_interp()
            interp_s = min(interp_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            p_comp()
            comp_s = min(comp_s, time.perf_counter() - t0)
        return interp_s, comp_s
    finally:
        gc.enable()


def _measure(label):
    src, setup, gated = WORKLOADS[label]
    interp = Session(compile="off")
    comp = Session()
    for s in (interp, comp):
        if setup is not None:
            setup(s)
    p_interp, p_comp = interp.prepare(src), comp.prepare(src)
    # The two sides must agree before either is timed.
    assert str(p_interp.run_py()) == str(p_comp.run_py()), label
    interp_s, comp_s = _best_pair(p_interp, p_comp)
    assert comp.compile_stats["compiled_runs"] > 0, label
    return {
        "workload": label,
        "interpreted_ms": round(interp_s * 1e3, 3),
        "compiled_ms": round(comp_s * 1e3, 3),
        "speedup": round(interp_s / comp_s, 2),
        "gated": gated,
    }


def test_compile_speedup_series():
    rows = [_measure(label) for label in WORKLOADS]
    for row in rows:
        mark = "  (gate)" if row["gated"] else ""
        print(f"\n{row['workload']:>18}: "
              f"interpreted {row['interpreted_ms']:>9.3f} ms  "
              f"compiled {row['compiled_ms']:>8.3f} ms  "
              f"{row['speedup']:>6.2f}x{mark}")
    BENCH_JSON.write_text(json.dumps(
        {"people": N_PEOPLE,
         "set_elements": N_SET,
         "quick": QUICK,
         "gate": f"gated workloads >= {GATE}x interpreter",
         "series": rows}, indent=2) + "\n")
    for row in rows:
        # Nothing may regress: compiled at least matches the
        # interpreter everywhere...
        assert row["speedup"] > 1.0, (
            f"{row['workload']} runs slower compiled "
            f"({row['speedup']:.2f}x)")
    for row in rows:
        # ...and the issue's gate holds on the scaling workloads.
        if row["gated"]:
            assert row["speedup"] >= GATE, (
                f"{row['workload']} compiled is only "
                f"{row['speedup']:.2f}x the interpreter "
                f"(gate {GATE}x)")
