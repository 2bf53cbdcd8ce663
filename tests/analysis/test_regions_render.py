"""Golden-output tests for ``repro-lint --regions`` (RP5xx reports)."""

from pathlib import Path

import pytest

from repro.analysis.cli import lint_mql_file, lint_python_file, main
from repro.analysis.engine import DEFAULT_PASSES

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = REPO_ROOT / "examples"
REGIONS = DEFAULT_PASSES + ["regions"]


def test_golden_footprint_report(tmp_path):
    f = tmp_path / "payroll.mql"
    f.write_text(
        'val joe = IDView([Name = "Joe", Salary := 10000])\n'
        "val Emp = class {joe} end;\n"
        "query(fn x => update(x, Salary, x.Salary + 500), joe);\n"
        "insert(joe, Emp)\n")
    result = lint_mql_file(f, passes=REGIONS)
    assert result.render() == (
        f"{f}:1:11: info[RP501]: footprint: reads {{}}; writes {{}}\n"
        '  1 | val joe = IDView([Name = "Joe", Salary := 10000])\n'
        "    |           ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^\n"
        "\n"
        f"{f}:2:11: info[RP501]: footprint: reads {{joe}}; writes {{}}\n"
        "  2 | val Emp = class {joe} end;\n"
        "    |           ^^^^^^^^^^^^^^^\n"
        "\n"
        f"{f}:3:1: info[RP501]: footprint: reads {{+, joe}}; "
        "writes {joe}\n"
        "  3 | query(fn x => update(x, Salary, x.Salary + 500), joe);\n"
        "    | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^\n"
        "\n"
        f"{f}:4:1: info[RP501]: footprint: reads {{Emp, joe}}; "
        "writes {Emp}; extent writes {Emp}\n"
        "  4 | insert(joe, Emp)\n"
        "    | ^^^^^^^^^^^^^^^^"
    )


def test_golden_unbounded_report(tmp_path):
    f = tmp_path / "opaque.mql"
    f.write_text("c-query(fn S => map(fn x => "
                 "query(fn v => update(v, Salary, 0), x), S), Emp)\n")
    result = lint_mql_file(f, passes=["regions"])
    assert result.render() == (
        f"{f}:1:1: info[RP502]: footprint is not statically bounded: "
        "an applied function is not statically known and may mutate "
        "state\n"
        "  1 | c-query(fn S => map(fn x => query(fn v => "
        "update(v, Salary, 0), x), S), Emp)\n"
        "    | " + "^" * 76 + "\n"
        "  note: workload reports treat this program as conflicting with "
        "every other program"
    )


@pytest.mark.parametrize(
    "example", sorted(p.name for p in EXAMPLES.glob("*.py")))
def test_examples_region_reports_are_info_only(example):
    result = lint_python_file(EXAMPLES / example, passes=REGIONS)
    assert result.diagnostics, "expected RP5xx reports"
    codes = {d.code for d in result.diagnostics}
    assert codes <= {"RP501", "RP502", "RP701"}, result.render()
    assert "RP501" in codes


def test_examples_quickstart_section33_footprints():
    # The §3.3 running example: the RMW through the employee view reads
    # the view binding but writes nothing statically unknowable.
    result = lint_python_file(EXAMPLES / "quickstart.py", passes=REGIONS)
    messages = [d.message for d in result.diagnostics if d.code == "RP501"]
    assert "footprint: reads {joe}; writes {}" in messages
    assert any("reads {adjustBonus, joe_view}" in m for m in messages)


def test_cli_regions_flag_keeps_examples_exit_zero(capsys):
    # Region reports are informational: without --strict the directory
    # still gates clean.
    assert main(["--regions", str(EXAMPLES)]) == 0
    out = capsys.readouterr().out
    assert "RP501" in out
