"""The workload interference layer: conflict graphs, RP6xx, partitions."""

import json

import pytest

from repro.analysis.partition import (PartitionPlan, partition_workload,
                                      render_partition)
from repro.analysis.workload import (ambient_names, build_conflict_graph,
                                     graph_to_dict, workload_anomalies)
from repro.db.catalog import Catalog
from repro.errors import PartitionError

RMW = "query(fn x => update(x, Salary, x.Salary + 1), {n})"
READ = "query(fn x => x.Salary, {n})"
WRITE = "query(fn x => update(x, Salary, {k}), {n})"


def _catalog(names=("joe", "amy", "bob")):
    cat = Catalog()
    for n in names:
        cat.new_object(n, Name=n.title(), mutable={"Salary": 100})
    return cat


# ---------------------------------------------------------------------------
# Edges
# ---------------------------------------------------------------------------

def test_ww_edge():
    g = build_conflict_graph({"a": WRITE.format(n="joe", k=1),
                              "b": WRITE.format(n="joe", k=2)})
    e = g.edge("a", "b")
    assert e is not None and "ww" in e.kinds
    assert "both write {joe}" in e.reasons


def test_rw_edge_is_directional_in_its_reason():
    g = build_conflict_graph({"r": READ.format(n="joe"),
                              "w": WRITE.format(n="joe", k=1)})
    e = g.edge("r", "w")
    assert e is not None and e.kinds == ("rw",)
    assert e.reasons == ("r reads {joe}, which w writes",)


def test_disjoint_programs_have_no_edge():
    g = build_conflict_graph({"a": RMW.format(n="joe"),
                              "b": RMW.format(n="amy")})
    assert not g.has_edge("a", "b")
    assert g.edges == []


def test_top_program_conflicts_with_everything():
    top = ("c-query(fn S => map(fn x => "
           "query(fn v => update(v, Salary, 0), x), S), Emp)")
    g = build_conflict_graph({"t": top, "r": READ.format(n="joe")})
    e = g.edge("r", "t")
    assert e is not None and "top" in e.kinds
    assert not g.program("t").bounded


def test_ambient_names_are_not_conflict_roots():
    # Both programs apply `+`; that shared read must not connect them.
    assert "+" in ambient_names()
    g = build_conflict_graph({"a": RMW.format(n="joe"),
                              "b": RMW.format(n="amy")})
    assert "+" in g.program("a").summary.reads
    assert "+" not in g.program("a").roots
    assert not g.has_edge("a", "b")


def test_alias_edge_through_live_extent():
    # Name-disjoint programs: one touches `joe`, the other scans `Emp`
    # — whose extent contains joe.  Only the session-resolved graph can
    # see that, via an alias edge.
    cat = _catalog()
    cat.define_class("Emp", own=["joe", "amy"])
    progs = {"one": WRITE.format(n="joe", k=9),
             "scan": "c-query(fn S => size(S), Emp)"}
    static = build_conflict_graph(progs)
    assert not static.has_edge("one", "scan")
    live = build_conflict_graph(progs, session=cat.session)
    e = live.edge("one", "scan")
    assert e is not None and e.kinds == ("alias",)


# ---------------------------------------------------------------------------
# Anomalies (RP601 / RP602 / RP603)
# ---------------------------------------------------------------------------

def test_rp601_lost_update_pair():
    g = build_conflict_graph({"a": RMW.format(n="joe"),
                              "b": WRITE.format(n="joe", k=0)})
    diags = workload_anomalies(g).diagnostics
    codes = [d.code for d in diags]
    assert codes == ["RP601"]
    assert "'a' and 'b'" in diags[0].message
    assert "{joe}" in diags[0].message


def test_rp601_reported_once_per_pair():
    # Both directions are the same unordered pair: one finding.
    g = build_conflict_graph({"a": RMW.format(n="joe"),
                              "b": RMW.format(n="joe")})
    diags = workload_anomalies(g).diagnostics
    assert [d.code for d in diags] == ["RP601"]


def test_rp602_write_skew_cycle():
    # Disjoint write sets, each reads the other's write: the write-skew
    # shape.  Neither pair alone is a lost update.
    progs = {
        "a": "query(fn x => update(x, Salary, "
             "query(fn y => y.Salary, amy)), joe)",
        "b": "query(fn x => update(x, Salary, "
             "query(fn y => y.Salary, joe)), amy)",
    }
    g = build_conflict_graph(progs)
    diags = workload_anomalies(g).diagnostics
    codes = {d.code for d in diags}
    assert "RP602" in codes and "RP601" not in codes
    skew = next(d for d in diags if d.code == "RP602")
    assert "a -> b -> a" in skew.message


def test_rp603_top_footprint():
    top = ("c-query(fn S => map(fn x => "
           "query(fn v => update(v, Salary, 0), x), S), Emp)")
    g = build_conflict_graph({"t": top})
    diags = workload_anomalies(g).diagnostics
    assert [d.code for d in diags] == ["RP603"]
    assert "'t'" in diags[0].message


def test_graph_to_dict_shape():
    g = build_conflict_graph({"a": RMW.format(n="joe"),
                              "b": WRITE.format(n="joe", k=0)})
    payload = graph_to_dict(g, workload_anomalies(g).diagnostics)
    assert {p["name"] for p in payload["programs"]} == {"a", "b"}
    assert payload["edges"][0]["a"] == "a"
    assert payload["edges"][0]["kinds"] == ["ww"]
    assert payload["anomalies"][0]["code"] == "RP601"
    json.dumps(payload)  # serializable as-is


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def _graph4():
    return build_conflict_graph(
        {f"t_{n}": RMW.format(n=n) for n in ("joe", "amy", "bob", "sue")})


def test_partition_four_disjoint_programs_four_shards():
    plan = partition_workload(_graph4(), shards=4)
    assert len(plan) == 4
    assert sorted(sorted(s) for s in plan.shards) == \
        [["amy"], ["bob"], ["joe"], ["sue"]]
    for n in ("joe", "amy", "bob", "sue"):
        assert plan.assignments[f"t_{n}"] == plan.shard_of(n)


def test_partition_respects_co_access():
    # One program touches joe AND amy: they must share a shard.
    g = build_conflict_graph({
        "pair": "query(fn x => update(x, Salary, "
                "query(fn y => y.Salary, amy)), joe)",
        "solo": RMW.format(n="bob")})
    plan = partition_workload(g, shards=2)
    assert plan.shard_of("joe") == plan.shard_of("amy")
    assert plan.shard_of("bob") != plan.shard_of("joe")


def test_partition_min_cut_splits_a_component():
    # Four roots linked pairwise by two programs, plus one program that
    # straddles the pairs: splitting sacrifices only the straddler.
    g = build_conflict_graph({
        "ab": "query(fn x => update(x, Salary, "
              "query(fn y => y.Salary, amy)), joe)",
        "cd": "query(fn x => update(x, Salary, "
              "query(fn y => y.Salary, sue)), bob)",
        "bridge": "query(fn x => update(x, Salary, "
                  "query(fn y => y.Salary, bob)), joe)"})
    plan = partition_workload(g, shards=2)
    assert len(plan) == 2
    assert plan.shard_of("joe") == plan.shard_of("amy")
    assert plan.shard_of("bob") == plan.shard_of("sue")
    assert plan.assignments["bridge"] is None  # the cut program


def test_classify():
    plan = partition_workload(_graph4(), shards=2)
    g = _graph4()
    for name, p in ((p.name, p) for p in g.programs):
        assert plan.classify(p.summary) == plan.assignments[name]
    assert plan.classify(None) is None


def test_partition_to_dict_and_validation():
    plan = partition_workload(_graph4(), shards=3)
    data = json.loads(json.dumps(plan.to_dict()))
    assert data["version"] == 1
    assert data["shards"] == [sorted(s) for s in plan.shards]
    assert data["ambient"] == sorted(plan.ambient)
    assert data["assignments"] == plan.assignments

    with pytest.raises(PartitionError):
        PartitionPlan([["a"], ["a", "b"]])  # overlapping shards
    with pytest.raises(PartitionError):
        PartitionPlan([["a"], []])  # empty shard


def test_partition_nothing_to_partition():
    top = ("c-query(fn S => map(fn x => "
           "query(fn v => update(v, Salary, 0), x), S), Emp)")
    g = build_conflict_graph({"t": top})
    with pytest.raises(PartitionError):
        partition_workload(g)


def test_derivation_keeps_aliasing_roots_in_one_shard():
    # joe lives inside Emp's extent: the session-aware derivation never
    # separates them, although no program names both.
    cat = _catalog()
    cat.define_class("Emp", own=["joe"])
    g = build_conflict_graph(
        {"one": WRITE.format(n="joe", k=9),
         "scan": "c-query(fn S => size(S), Emp)"},
        session=cat.session)
    derived = partition_workload(g, shards=2, session=cat.session)
    assert derived.shard_of("joe") is not None
    assert derived.shard_of("joe") == derived.shard_of("Emp")


def test_render_partition_mentions_cross_shard():
    g = build_conflict_graph({
        "t_joe": RMW.format(n="joe"),
        "t_amy": RMW.format(n="amy"),
        "cross": "query(fn x => update(x, Salary, "
                 "query(fn y => y.Salary, amy)), joe)"})
    # Force a plan that separates joe and amy so `cross` straddles.
    plan = PartitionPlan([["joe"], ["amy"]], ambient=ambient_names())
    text = render_partition(plan, g)
    assert "cross-shard: cross" in text
    assert "straddle shards 0, 1" in text


# ---------------------------------------------------------------------------
# Shared (workload-read-only) roots
# ---------------------------------------------------------------------------

def _rate_table_graph(session=None):
    progs = {
        "rmw_joe": "query(fn x => update(x, Salary, "
                   "x.Salary + size(rates)), joe)",
        "rmw_amy": "query(fn x => update(x, Salary, "
                   "x.Salary + size(rates)), amy)",
    }
    return build_conflict_graph(progs, session=session)


def test_read_only_reference_root_becomes_shared():
    # Both programs read `rates` but neither writes it: without the
    # shared marking the rate table would glue joe and amy into one
    # shard and halve the workload's parallelism.
    plan = partition_workload(_rate_table_graph(), shards=2)
    assert plan.shared == {"rates"}
    assert len(plan.shards) == 2
    assert {plan.shard_of("joe"), plan.shard_of("amy")} == {0, 1}
    for p in _rate_table_graph().programs:
        assert plan.classify(p.summary) is not None


def test_writing_a_shared_root_escalates():
    plan = partition_workload(_rate_table_graph(), shards=2)
    g = build_conflict_graph(
        {"reprice": "c-query(fn S => size(S), rates); "
                    "query(fn r => update(r, Rate, 2), rates)"})
    [p] = g.programs
    assert "rates" in p.writes
    assert plan.classify(p.summary) is None  # global dynamic OCC


def test_shared_root_read_by_one_component_stays_in_its_shard():
    # `rates` read only from joe's side: no reason to globalize it.
    g = build_conflict_graph(
        {"rmw_joe": "query(fn x => update(x, Salary, "
                    "x.Salary + size(rates)), joe)",
         "rmw_amy": RMW.format(n="amy")})
    plan = partition_workload(g, shards=2)
    assert plan.shared == frozenset()
    assert plan.shard_of("rates") == plan.shard_of("joe")


def test_shared_to_dict_and_shard_overlap_rejected():
    plan = partition_workload(_rate_table_graph(), shards=2)
    assert plan.to_dict()["shared"] == ["rates"]
    with pytest.raises(PartitionError, match="both shared and in shard"):
        PartitionPlan([["joe"]], shared=["joe"])


def test_derivation_never_shares_a_root_aliasing_a_shard():
    # Both programs only read `Emp`, so by name it is reference data.
    # But `Emp` contains joe, which one program writes: with the session
    # the derivation keeps it with joe instead of marking it shared.
    cat = _catalog()
    cat.define_class("Emp", own=["joe"])
    progs = {n: "query(fn x => update(x, Salary, "
                "c-query(fn S => size(S), Emp)), %s)" % n
             for n in ("joe", "amy")}
    assert partition_workload(build_conflict_graph(progs),
                              shards=2).shared == {"Emp"}
    plan = partition_workload(
        build_conflict_graph(progs, session=cat.session), shards=2,
        session=cat.session)
    assert "Emp" not in plan.shared
    assert plan.shard_of("Emp") == plan.shard_of("joe")


def test_render_partition_lists_shared_roots():
    g = _rate_table_graph()
    plan = partition_workload(g, shards=2)
    assert ("  shared (read-only): roots {rates} — readable from every "
            "shard") in render_partition(plan, g)


# ---------------------------------------------------------------------------
# classify: single shard or None
# ---------------------------------------------------------------------------

def _summary(src):
    g = build_conflict_graph({"p": src})
    return g.program("p").summary


def _plan3():
    return PartitionPlan([["joe"], ["amy"], ["bob"]],
                         ambient=ambient_names())


def test_classify_straddling_program_is_none():
    plan = _plan3()
    for src in ("query(fn x => update(x, Salary, "
                "query(fn y => y.Salary, bob)), joe)",
                "query(fn x => update(x, Salary, "
                "query(fn y => y.Salary, joe)), bob)"):
        assert plan.classify(_summary(src)) is None
    assert plan.classify(_summary(RMW.format(n="bob"))) == 2


def test_classify_none_for_unplaceable():
    plan = _plan3()
    assert plan.classify(None) is None
    top = _summary("c-query(fn S => map(fn x => "
                   "query(fn v => update(v, Salary, 0), x), S), Emp)")
    assert top.writes is None  # ⊤
    assert plan.classify(top) is None
    # `sue` lives outside every shard: the plan cannot place it.
    assert plan.classify(_summary(RMW.format(n="sue"))) is None


def test_classify_none_for_rootless():
    # Bounded, but every read is ambient: trivially disjoint from every
    # shard, so no single shard claims it.
    assert _plan3().classify(_summary("1 + 2")) is None


def test_classify_shared_reads_do_not_count():
    plan = PartitionPlan([["joe"], ["amy"]], ambient=ambient_names(),
                         shared=["rates"])
    s = _summary("query(fn x => update(x, Salary, "
                 "x.Salary + size(rates)), joe)")
    assert plan.classify(s) == 0
