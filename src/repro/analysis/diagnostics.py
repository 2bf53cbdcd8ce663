"""The diagnostic core: codes, severities, :class:`Diagnostic` and the sink.

Every finding a pass produces is a :class:`Diagnostic` — a stable ``RPxxx``
code, a severity, a human-readable message and (when the construct came
from parsed source) a :class:`~repro.core.terms.Pos` span.  Passes write
into a :class:`DiagnosticSink`; callers read the sorted result.

Code blocks by pass:

* ``RP0xx`` — pipeline faults surfaced as diagnostics (parse/type errors);
* ``RP1xx`` — sharing / escape analysis;
* ``RP2xx`` — view-update safety;
* ``RP3xx`` — dead code;
* ``RP4xx`` — effects (purity of viewing functions and predicates);
* ``RP5xx`` — footprints (the regions pass, ``--regions``);
* ``RP6xx`` — workload interference (the workload pass, ``--workload``);
* ``RP7xx`` — compilation (programs the closure compiler hands back to
  the interpreter).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ..core.terms import Pos

__all__ = ["Severity", "DiagnosticCode", "CODES", "Diagnostic",
           "DiagnosticSink"]


class Severity(enum.Enum):
    """How bad a finding is; ordered ``error > warning > info``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank


@dataclass(frozen=True)
class DiagnosticCode:
    """A registered diagnostic: stable code, default severity, short title."""

    code: str
    severity: Severity
    title: str


CODES: dict[str, DiagnosticCode] = {}


def _register(code: str, severity: Severity, title: str) -> DiagnosticCode:
    dc = DiagnosticCode(code, severity, title)
    CODES[code] = dc
    return dc


# -- pipeline --------------------------------------------------------------
RP001 = _register("RP001", Severity.ERROR, "syntax error")
RP002 = _register("RP002", Severity.ERROR, "type error")
# -- sharing / escape ------------------------------------------------------
RP101 = _register("RP101", Severity.WARNING, "raw object escapes its view")
RP102 = _register("RP102", Severity.WARNING,
                  "mutable L-value escapes through a query result")
# -- view-update safety ----------------------------------------------------
RP201 = _register("RP201", Severity.WARNING,
                  "update through a view is lost on re-materialization")
RP202 = _register("RP202", Severity.WARNING,
                  "update through a fused view may bypass sharing siblings")
# -- dead code -------------------------------------------------------------
RP301 = _register("RP301", Severity.WARNING, "unused let binding")
RP302 = _register("RP302", Severity.WARNING,
                  "include clause is unreachable")
RP303 = _register("RP303", Severity.INFO, "constant condition")
# -- effects ---------------------------------------------------------------
RP401 = _register("RP401", Severity.ERROR,
                  "impure viewing function in 'as' composition")
RP402 = _register("RP402", Severity.ERROR,
                  "impure viewing function in include clause")
RP403 = _register("RP403", Severity.WARNING, "impure include predicate")
# -- regions / footprints --------------------------------------------------
RP501 = _register("RP501", Severity.INFO, "program footprint")
RP502 = _register("RP502", Severity.INFO,
                  "footprint is not statically bounded")
# -- workload interference -------------------------------------------------
RP601 = _register("RP601", Severity.WARNING,
                  "lost-update-prone read-modify-write pair")
RP602 = _register("RP602", Severity.WARNING,
                  "write-skew cycle among write-disjoint programs")
RP603 = _register("RP603", Severity.WARNING,
                  "⊤-footprint program serializes the workload")
# -- compilation -----------------------------------------------------------
RP701 = _register("RP701", Severity.INFO,
                  "program falls back to interpretation")


@dataclass(frozen=True)
class Diagnostic:
    """One finding, ready to render or inspect programmatically."""

    code: str
    severity: Severity
    message: str
    span: Optional[Pos] = None
    notes: tuple[str, ...] = ()

    @property
    def title(self) -> str:
        dc = CODES.get(self.code)
        return dc.title if dc else self.code

    def location(self) -> str:
        """``line:column`` (or empty when the construct has no span)."""
        if self.span is None:
            return ""
        return f"{self.span.line}:{self.span.column}"

    def _sort_key(self) -> tuple:
        if self.span is None:
            # span-less findings sort after located ones
            return (1, 0, 0, -self.severity.rank, self.code)
        return (0, self.span.line, self.span.column,
                -self.severity.rank, self.code)


class DiagnosticSink:
    """Collects diagnostics from the passes.

    Parameters
    ----------
    min_severity:
        Findings below this severity are dropped at emission time.
    """

    def __init__(self, min_severity: Severity = Severity.INFO):
        self.min_severity = min_severity
        self._diags: list[Diagnostic] = []

    def emit(self, code: str | DiagnosticCode, message: str,
             span: Optional[Pos] = None,
             severity: Optional[Severity] = None,
             notes: Iterable[str] = ()) -> Optional[Diagnostic]:
        """Record one finding; returns it (or None when filtered out)."""
        dc = CODES[code] if isinstance(code, str) else code
        sev = severity or dc.severity
        if not sev >= self.min_severity:
            return None
        diag = Diagnostic(dc.code, sev, message, span, tuple(notes))
        self._diags.append(diag)
        return diag

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        for d in diags:
            if d.severity >= self.min_severity:
                self._diags.append(d)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """All findings, sorted by source position then severity."""
        return sorted(self._diags, key=Diagnostic._sort_key)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self._diags)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self._diags if d.severity is severity)

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self._diags)

    @property
    def has_warnings(self) -> bool:
        return any(d.severity is Severity.WARNING for d in self._diags)
