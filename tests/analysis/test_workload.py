"""The workload interference layer: conflict graphs and RP6xx."""

import json

from repro.analysis.workload import (ambient_names, build_conflict_graph,
                                     graph_to_dict, workload_anomalies)
from repro.db.catalog import Catalog

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
    assert "+" not in g.program("a").reads
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
