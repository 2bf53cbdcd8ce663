"""Static diagnostics for the calculus (the ``repro-lint`` engine).

A unified multi-pass analysis layer over the parsed (and, inside a
:class:`~repro.lang.api.Session`, typed) AST:

* :mod:`repro.analysis.sharing` — sharing/escape analysis: which raw-object
  L-values can a viewing function's result alias?  Flags views that leak
  mutable access outside their declared interface (RP1xx);
* :mod:`repro.analysis.views` — view-update safety: classifies ``query``
  functions as read-only / translatable-update / anomalous and flags
  updates that are silently lost on re-materialization (RP2xx);
* :mod:`repro.analysis.deadcode` — dead let bindings, include clauses with
  statically-false predicates, constant conditions (RP3xx);
* :mod:`repro.analysis.effects` — the generalized effect pass (RP4xx)
  over the eval/latent effect bits; ``Session(pure_views=True)``
  enforces it through :func:`~repro.analysis.effects.check_views_pure`;
* :mod:`repro.analysis.regions` — interprocedural footprints: the global
  roots a program may read or write (RP5xx), and their resolution
  against a live heap;
* :mod:`repro.analysis.workload` / :mod:`repro.analysis.partition` —
  whole-workload interference: static conflict graphs over named
  transaction programs, anomaly detectors (RP6xx) and the shard
  partition report.

Diagnostics carry codes (``RPxxx``), severities and source spans; the
renderer prints caret-underlined snippets.  Entry points:
:func:`lint_source` / :func:`lint_term` here, ``Session.lint`` on
sessions, and the ``repro-lint`` console script.
"""

from .diagnostics import (CODES, Diagnostic, DiagnosticCode, DiagnosticSink,
                          Severity)
from .engine import LintResult, analyze_term, lint_source, lint_term
from .partition import PartitionPlan, partition_workload, render_partition
from .render import render_diagnostic, render_diagnostics
from .workload import (ConflictEdge, ConflictGraph, WorkloadProgram,
                       build_conflict_graph, render_conflict_graph,
                       workload_anomalies)

__all__ = [
    "CODES", "Diagnostic", "DiagnosticCode", "DiagnosticSink", "Severity",
    "LintResult", "analyze_term", "lint_source", "lint_term",
    "render_diagnostic", "render_diagnostics",
    "ConflictEdge", "ConflictGraph", "WorkloadProgram",
    "build_conflict_graph", "render_conflict_graph", "workload_anomalies",
    "PartitionPlan", "partition_workload", "render_partition",
]
