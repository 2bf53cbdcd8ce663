"""The database layer: catalog operations and snapshot/restore.

Workload shaped like the university example: n people across two base
classes and one derived privacy view.
"""

import time

import pytest

from repro.db.catalog import Catalog, IncludeSpec
from repro.db.persist import restore, snapshot

SIZES = [5, 25, 100]


def _build(n: int) -> Catalog:
    cat = Catalog()
    for i in range(n):
        cat.new_object(f"p{i}", Name=f"P{i}",
                       Sex="female" if i % 2 == 0 else "male",
                       mutable={"Salary": 1000 + i})
    cat.define_class("Staff", own=[f"p{i}" for i in range(n)])
    cat.define_class("Women", includes=[IncludeSpec(
        ["Staff"], "fn x => [Name = x.Name]",
        'fn o => query(fn v => v.Sex = "female", o)')])
    return cat


def _per_object_s(n: int, builds: int = 3) -> float:
    """Best-of-``builds`` wall time of :func:`_build` per object."""
    best = float("inf")
    for _ in range(builds):
        t0 = time.perf_counter()
        _build(n)
        best = min(best, time.perf_counter() - t0)
    return best / n


def test_population_is_linear():
    # Each catalog operation must cost O(1) in the catalog's size, so the
    # per-object cost of a build barely grows with n.  A registry copy
    # per operation (O(n) each, quadratic overall) reads about 7x here.
    small, large = _per_object_s(250), _per_object_s(2000)
    print(f"\npopulation: {small * 1e3:.3f} ms/object at 250, "
          f"{large * 1e3:.3f} ms/object at 2000 ({large / small:.2f}x)")
    assert large <= 2.5 * small


@pytest.mark.parametrize("n", SIZES)
def test_catalog_build(benchmark, n):
    benchmark(lambda: _build(n))


@pytest.mark.parametrize("n", SIZES)
def test_catalog_query(benchmark, n):
    cat = _build(n)
    out = benchmark(lambda: cat.extent("Women"))
    assert len(out) == (n + 1) // 2


@pytest.mark.parametrize("n", SIZES)
def test_snapshot(benchmark, n):
    cat = _build(n)
    snap = benchmark(lambda: snapshot(cat))
    assert len(snap["objects"]) == n


@pytest.mark.parametrize("n", SIZES)
def test_restore(benchmark, n):
    snap = snapshot(_build(n))
    cat2 = benchmark(lambda: restore(snap))
    assert len(cat2.extent("Staff")) == n


def test_round_trip_preserves_extents():
    cat = _build(10)
    cat.update_object("p0", "Salary", 99999)
    cat2 = restore(snapshot(cat))
    assert cat2.extent("Women") == cat.extent("Women")
    assert cat2.session.eval_py("query(fn v => v.Salary, p0)") == 99999
