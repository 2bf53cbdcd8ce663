"""``repro-lint`` — run the diagnostics engine over source files.

Two kinds of input:

``*.mql``
    stand-alone surface-language programs.  Linted with the full front
    half of the pipeline: parse errors become ``RP001``, declarations are
    type-checked against a fresh session environment (prelude loaded) and
    failures become ``RP002``, then the default passes run (plus the
    footprint pass under ``--regions``).

``*.py``
    the repository's examples embed surface-language programs in Python
    string literals.  Every string literal that parses as a program is
    linted (syntactically only — fragments may reference bindings made
    through the ``Session`` API); strings that do not parse are prose and
    are skipped.  Diagnostic spans are mapped back to positions in the
    ``.py`` file.

Exit status: 2 if any error-severity finding, 1 if any warning, else 0.
With ``--strict``, info-severity findings also exit 1 — the CI gate uses
this so a clean tree means *zero* findings, not merely zero warnings.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from pathlib import Path
from typing import Iterator, Optional

from ..core.terms import Pos
from .diagnostics import Diagnostic, Severity
from .engine import DEFAULT_PASSES, LintResult, lint_source
from .render import render_diagnostics

__all__ = ["main", "lint_path", "lint_python_file"]


def _iter_files(paths: list[str]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(q for q in p.rglob("*")
                              if q.suffix in (".mql", ".py"))
        else:
            yield p


def _session_env():
    """A fresh session's typing environment + latent names (prelude only)."""
    from ..lang.api import Session
    s = Session()
    return s.type_env, s.purity.snapshot()


def lint_mql_file(path: Path, type_env=None,
                  latent: set[str] | None = None,
                  passes: list[str] | None = None) -> LintResult:
    src = path.read_text()
    return lint_source(src, str(path), type_env=type_env,
                       latent_names=latent, passes=passes)


def _shift_span(span: Optional[Pos], line0: int, col0: int) -> Optional[Pos]:
    """Map a fragment-relative span to file coordinates.

    ``line0``/``col0``: 1-based line and 0-based column in the file where
    the fragment's first character sits.
    """
    if span is None:
        return None

    def line(n: int) -> int:
        return line0 + n - 1

    def col(n: int, c: int) -> int:
        return c + col0 if n == 1 else c

    end_line = line(span.end_line) if span.end_line else None
    end_col = (col(span.end_line, span.end_column)
               if span.end_line and span.end_column else None)
    return Pos(line(span.line), col(span.line, span.column),
               end_line, end_col)


def _expected_failure_lines(tree: ast.AST) -> list[tuple[int, int]]:
    """Line ranges of ``try:`` bodies that have exception handlers.

    Programs demonstrated inside such a block are *expected* to be
    rejected (the examples show ``pure_views`` refusing an impure view
    this way), so their findings are intentional and suppressed.
    """
    ranges = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and node.handlers:
            start = node.body[0].lineno
            end = max(getattr(n, "end_lineno", n.lineno) or n.lineno
                      for n in node.body)
            ranges.append((start, end))
    return ranges


def lint_python_file(path: Path,
                     passes: list[str] | None = None) -> LintResult:
    """Lint every embedded surface-language string literal of a ``.py``."""
    source = path.read_text()
    result = LintResult(str(path), source)
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return result  # not our language; python's own tools apply

    lines = source.splitlines()
    skip_ranges = _expected_failure_lines(tree)
    search_from = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant)
                and isinstance(node.value, str)):
            continue
        text = node.value
        if len(text.strip()) < 2:
            continue
        if any(lo <= node.lineno <= hi for lo, hi in skip_ranges):
            continue
        if (node.lineno <= len(lines)
                and "repro-lint: skip" in lines[node.lineno - 1]):
            continue
        fragment = lint_source(text, str(path), passes=passes)
        # A string that does not parse is prose, not a finding; drop
        # RP001 once, here, so every path below sees the same list.
        diags = [d for d in fragment.diagnostics if d.code != "RP001"]
        if not diags:
            continue
        # locate the literal's content to map spans to file coordinates
        idx = source.find(text, search_from)
        if idx < 0:
            idx = source.find(text)
        if idx < 0:
            result.diagnostics.extend(diags)
            continue
        search_from = idx + 1
        prefix = source[:idx]
        line0 = prefix.count("\n") + 1
        col0 = idx - (prefix.rfind("\n") + 1)
        result.diagnostics.extend(
            dataclasses.replace(d, span=_shift_span(d.span, line0, col0))
            for d in diags)
    result.diagnostics.sort(key=Diagnostic._sort_key)
    return result


def _diag_dict(d: Diagnostic, filename: str) -> dict:
    """One diagnostic in the stable ``--format=json`` schema."""
    span = None
    if d.span is not None:
        span = {"line": d.span.line, "column": d.span.column,
                "end_line": d.span.end_line, "end_column": d.span.end_column}
    return {"file": filename, "code": d.code,
            "severity": d.severity.value, "span": span,
            "message": d.message, "reasons": list(d.notes)}


def harvest_programs(files: list[Path]) -> dict[str, str]:
    """A workload manifest from the input files.

    Each ``.mql`` file is one program named by its stem; each parseable
    surface-language string literal of a ``.py`` file is one program
    named ``stem:line``.  Unparseable literals are prose, not programs.
    """
    from ..syntax import parser as P
    progs: dict[str, str] = {}
    for path in files:
        if path.suffix == ".mql":
            progs[path.stem] = path.read_text()
            continue
        try:
            tree = ast.parse(path.read_text())
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                continue
            text = node.value.strip()
            if len(text) < 2:
                continue
            try:
                P.parse_program(text)
            except Exception:
                continue
            progs[f"{path.stem}:{node.lineno}"] = text
    return progs


def _workload_main(args, files: list[Path], floor: Severity) -> int:
    """The ``--workload`` mode: conflict graph and RP6xx anomalies."""
    from .workload import (build_conflict_graph, graph_to_dict,
                           render_conflict_graph, workload_anomalies)
    programs = harvest_programs(files)
    if not programs:
        print("repro-lint: no surface-language programs found in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 2
    _env, latent = _session_env()
    graph = build_conflict_graph(programs, latent_names=latent)
    sink = workload_anomalies(graph)
    anomalies = [d for d in sink.diagnostics if d.severity >= floor]

    if args.format == "json":
        payload = graph_to_dict(graph, anomalies)
        # Version 2 dropped the ``partition`` keys; the plain lint
        # document stays at version 1.
        payload["version"] = 2
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_conflict_graph(graph))
        if anomalies:
            print()
            for d in anomalies:
                print(f"{d.code} {d.severity.value}: {d.message}")
    if any(d.severity is Severity.ERROR for d in anomalies):
        return 2
    if any(d.severity is Severity.WARNING for d in anomalies) \
            or (args.strict and anomalies):
        return 1
    return 0


def lint_path(path: Path, type_env=None,
              latent: set[str] | None = None,
              passes: list[str] | None = None) -> LintResult:
    if path.suffix == ".py":
        return lint_python_file(path, passes)
    return lint_mql_file(path, type_env, latent, passes)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static diagnostics for views-and-object-sharing "
                    "programs (.mql files, or programs embedded in .py "
                    "string literals).")
    ap.add_argument("paths", nargs="+",
                    help="files or directories to lint")
    ap.add_argument("--min-severity", choices=["info", "warning", "error"],
                    default="info",
                    help="drop findings below this severity")
    ap.add_argument("--no-typecheck", action="store_true",
                    help="skip type inference on .mql files "
                         "(passes still run)")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero on any finding, not just errors")
    ap.add_argument("--regions", action="store_true",
                    help="also run the footprint pass (RP5xx reports)")
    ap.add_argument("--workload", action="store_true",
                    help="treat the inputs as a workload manifest: report "
                         "the static conflict graph and RP6xx anomalies")
    ap.add_argument("--format", choices=["text", "json"], default="text",
                    help="json: one stable machine-readable document on "
                         "stdout (schema version 1; 2 with --workload)")
    args = ap.parse_args(argv)
    floor = Severity(args.min_severity)
    passes = DEFAULT_PASSES + ["regions"] if args.regions else None

    files = list(_iter_files(args.paths))
    for path in files:
        if not path.exists():
            print(f"repro-lint: no such file: {path}", file=sys.stderr)
            return 2
    if args.workload:
        return _workload_main(args, files, floor)

    type_env = latent = None
    if not args.no_typecheck and any(f.suffix == ".mql" for f in files):
        type_env, latent = _session_env()

    errors = warnings = infos = 0
    json_diags: list[dict] = []
    for path in files:
        result = lint_path(path, type_env, latent, passes)
        diags = [d for d in result.diagnostics if d.severity >= floor]
        if args.format == "json":
            json_diags.extend(_diag_dict(d, result.filename) for d in diags)
        elif diags:
            print(render_diagnostics(diags, result.source, result.filename))
        errors += sum(d.severity is Severity.ERROR for d in diags)
        warnings += sum(d.severity is Severity.WARNING for d in diags)
        infos += sum(d.severity is Severity.INFO for d in diags)

    n = len(files)
    if args.format == "json":
        print(json.dumps({"version": 1, "files": n, "errors": errors,
                          "warnings": warnings, "infos": infos,
                          "diagnostics": json_diags},
                         indent=2, sort_keys=True))
    elif errors or warnings:
        print(f"{errors} error(s), {warnings} warning(s) "
              f"in {n} file(s)")
    else:
        print(f"{n} file(s) clean")
    if errors:
        return 2
    if warnings or (args.strict and infos):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
