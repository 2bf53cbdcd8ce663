"""Smoke test of the end-to-end benchmark.

Runs every workload for about a second, plus one traced workload, and
checks that replies were correct and that each metric BENCHMARK.json
names is printed with its unit.  It asserts nothing about timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, metrics: list) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_workload(workload):
    check(run("--workload", workload, "--trace", "0"), SPEC["end_to_end"])


def test_traced_workload():
    check(run("--workload", "point_oneshot", "--trace", "1"),
          SPEC["per_layer"])
