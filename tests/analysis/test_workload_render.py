"""Golden-output tests for ``repro-lint --workload`` reports."""

import json

from repro.analysis.cli import main
from repro.analysis.partition import partition_workload, render_partition
from repro.analysis.workload import (build_conflict_graph,
                                     render_conflict_graph,
                                     workload_anomalies)

PROGS = {
    "audit": "query(fn x => update(x, Bonus, "
             "query(fn y => y.Salary, amy)), joe)",
    "raise_amy": "query(fn x => update(x, Salary, x.Salary + 100), amy)",
    "raise_joe": "query(fn x => update(x, Salary, x.Salary + 500), joe)",
    "read_bob": "query(fn x => x.Salary, bob)",
    "rebuild": "c-query(fn S => map(fn x => "
               "query(fn v => update(v, Salary, 0), x), S), Emp)",
}


def test_golden_conflict_graph_report():
    g = build_conflict_graph(PROGS)
    assert render_conflict_graph(g) == (
        "workload: 5 program(s) (4 bounded, 1 ⊤), 6 conflict edge(s)\n"
        "\n"
        "conflict graph:\n"
        "  audit ~ raise_amy: audit reads {amy}, which raise_amy writes\n"
        "  audit ~ raise_joe: both write {joe}\n"
        "  audit ~ rebuild: rebuild's footprint is not statically "
        "bounded (⊤)\n"
        "  raise_amy ~ rebuild: rebuild's footprint is not statically "
        "bounded (⊤)\n"
        "  raise_joe ~ rebuild: rebuild's footprint is not statically "
        "bounded (⊤)\n"
        "  read_bob ~ rebuild: rebuild's footprint is not statically "
        "bounded (⊤)\n"
        "\n"
        "footprints:\n"
        "  audit: reads {amy, joe}; writes {joe}\n"
        "  raise_amy: reads {+, amy}; writes {amy}\n"
        "  raise_joe: reads {+, joe}; writes {joe}\n"
        "  read_bob: reads {bob}; writes {}\n"
        "  rebuild: reads {Emp, map}; writes ⊤"
    )


def test_golden_empty_graph_report():
    g = build_conflict_graph({"solo": "query(fn x => x.Salary, joe)"})
    assert render_conflict_graph(g) == (
        "workload: 1 program(s) (1 bounded, 0 ⊤), 0 conflict edge(s)\n"
        "\n"
        "conflict graph:\n"
        "  (no statically conflicting pairs)\n"
        "\n"
        "footprints:\n"
        "  solo: reads {joe}; writes {}"
    )


def test_golden_partition_report():
    g = build_conflict_graph(PROGS)
    plan = partition_workload(g, shards=2)
    assert render_partition(plan, g) == (
        "partition: 2 shard(s), 4/5 program(s) single-shard (80%)\n"
        "  shard 0: roots {amy, joe} — programs: audit, raise_amy, "
        "raise_joe\n"
        "  shard 1: roots {bob} — programs: read_bob\n"
        "  unbounded: rebuild (⊤ — conflicts with every program)"
    )


def test_golden_anomaly_lines():
    g = build_conflict_graph(PROGS)
    lines = [f"{d.code} {d.severity.value}: {d.message}"
             for d in workload_anomalies(g)]
    assert lines == [
        "RP601 warning: programs 'audit' and 'raise_joe' race on {joe}: "
        "a read-modify-write straddles the other's write set",
        "RP603 warning: program 'rebuild' has a ⊤ footprint (an applied "
        "function is not statically known and may mutate state): it "
        "statically conflicts with every program in the workload",
    ]


# ---------------------------------------------------------------------------
# Through the CLI
# ---------------------------------------------------------------------------

def _manifest(tmp_path):
    for name, src in PROGS.items():
        (tmp_path / f"{name}.mql").write_text(src + "\n")
    return tmp_path


def test_cli_workload_report(tmp_path, capsys):
    assert main(["--workload", "--shards", "2", str(_manifest(tmp_path))]) \
        == 1  # RP6xx warnings
    out = capsys.readouterr().out
    assert "workload: 5 program(s)" in out
    assert "audit ~ raise_joe: both write {joe}" in out
    assert "RP601 warning:" in out
    assert "partition: 2 shard(s), 4/5 program(s) single-shard (80%)" in out


def test_cli_workload_json(tmp_path, capsys):
    assert main(["--workload", "--shards", "2", "--format", "json",
                 str(_manifest(tmp_path))]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert {p["name"] for p in payload["programs"]} == set(PROGS)
    assert {d["code"] for d in payload["anomalies"]} == {"RP601", "RP603"}
    assert payload["partition"]["shards"] == [["amy", "joe"], ["bob"]]


def test_cli_workload_no_programs(tmp_path, capsys):
    (tmp_path / "prose.py").write_text('x = "just some prose here?!"\n')
    assert main(["--workload", str(tmp_path)]) == 2
    assert "no surface-language programs" in capsys.readouterr().err
