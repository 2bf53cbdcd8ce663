"""Exception hierarchy for the views-and-object-sharing calculus.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type.  The hierarchy mirrors the pipeline stages:
lexing/parsing, kind checking, type inference, translation and evaluation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by this library.

    Every error may carry an optional source span (a
    :class:`repro.core.terms.Pos`) in :attr:`span`; stages that know where
    in the source they are attach one with :meth:`with_span`.
    """

    span = None  # Optional[repro.core.terms.Pos]

    def with_span(self, span) -> "ReproError":
        """Attach a source span (no-op when ``span`` is None)."""
        if span is not None and self.span is None:
            self.span = span
        return self


class SourceError(ReproError):
    """An error that carries an optional source position.

    Parameters
    ----------
    message:
        Human-readable description of the problem.
    line, column:
        1-based position in the source text, when known.
    end_line, end_column:
        One past the last character of the offending construct, when known
        (lexer tokens and parser constructs carry full spans).
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, end_line: int | None = None,
                 end_column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.end_line = end_line
        self.end_column = end_column
        if line is not None:
            from .core.terms import Pos
            self.span = Pos(line, column or 1, end_line, end_column)
        super().__init__(self._format())

    def _format(self) -> str:
        if self.line is None:
            return self.message
        if self.column is None:
            return f"{self.message} (line {self.line})"
        return f"{self.message} (line {self.line}, column {self.column})"


class LexError(SourceError):
    """Raised by the lexer on malformed input."""


class ParseError(SourceError):
    """Raised by the parser on a syntax error."""


class KindError(ReproError):
    """A type does not have a required kind (Figure 1 kinding rules)."""


class TypeInferenceError(ReproError):
    """A program is not typable in the polymorphic type system."""


class UnificationError(TypeInferenceError):
    """Two types (or kinds) cannot be unified."""


class OccursCheckError(UnificationError):
    """A type variable occurs inside the type it is unified with."""


class TranslationError(ReproError):
    """The translation of Figure 3 / Figure 5 cannot be applied."""


class EvalError(ReproError):
    """A runtime error in the operational semantics.

    Well-typed programs never raise this for type-shaped reasons
    (Proposition 1); it still fires for genuine runtime faults such as
    division by zero.
    """


class ResourceError(ReproError):
    """A program exceeded an operational resource limit.

    Unlike :class:`EvalError`, a resource error says nothing about the
    program being wrong — only that the session's configured limits were
    reached.  It is guaranteed recoverable: the session stays usable and
    an enclosing transaction rolls back cleanly.
    """


class BudgetExceededError(ResourceError):
    """An execution budget (steps, allocations or wall clock) ran out.

    Raised from the evaluator's hot loop by
    :class:`repro.runtime.budget.Budget`; :attr:`dimension` names which
    limit tripped (``"steps"``, ``"allocations"`` or ``"seconds"``).
    """

    def __init__(self, message: str, dimension: str, limit):
        super().__init__(message)
        self.dimension = dimension
        self.limit = limit


class ConflictError(ResourceError):
    """An optimistic-concurrency conflict detected at commit validation.

    Raised when a transaction's read set went stale (another transaction
    committed a write to a location or class extent it read) or when it
    tried to write a location another in-flight transaction has already
    written (write-write conflict).  Like every :class:`ResourceError` it
    is guaranteed recoverable: the conflicting transaction is rolled back
    completely and the session/catalog stays usable — the server's retry
    policy treats it as the signal to re-run the transaction.
    """


class OverloadedError(ResourceError):
    """The server shed this request instead of stalling on it.

    Raised by admission control when the bounded request queue is full,
    or when a request's enqueue-anchored deadline
    (:class:`~repro.runtime.budget.Budget` ``max_queue_wait``) expired
    before a worker picked it up.  Shed load is not an evaluation
    failure: nothing was executed and nothing needs rolling back —
    clients back off and resubmit.

    ``retry_after`` is the server's explicit backoff hint in seconds
    (its own estimate of when queue room will exist, derived from queue
    depth and recent service times).  Retry loops should prefer it over
    computed jitter — see :meth:`repro.server.retry.RetryPolicy
    .backoff_for` — because conflict-tuned jitter (milliseconds) would
    hammer a server that is telling us it is saturated.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ReadOnlyError(ReproError):
    """The server is degraded to read-only mode.

    Raised for write transactions while the persistence circuit breaker
    is open (WAL appends kept failing).  Read transactions keep being
    served; writes are accepted again once a probe append succeeds.

    ``retry_after`` is the breaker's remaining cooldown in seconds when
    known: a client that waits that long hits the half-open probe window
    instead of burning attempts against a breaker that cannot close yet.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ProtocolError(ReproError):
    """A malformed or out-of-sequence wire-protocol interaction.

    Raised by :mod:`repro.server.protocol` and :mod:`repro.client` for
    framing violations (bad header, undecodable payload), unknown
    operations, and transaction-sequencing misuse (``txn.op`` without a
    ``txn.begin``).  Protocol errors are not retriable: resending the
    same bytes would fail the same way.
    """


class FrameTooLargeError(ProtocolError):
    """A wire frame exceeded the configured maximum payload size.

    The server drains and discards the oversized payload, replies with
    this error as a *structured* frame, and keeps the connection usable
    — an oversized frame must not kill the stream for requests that
    follow it.
    """


class PersistenceError(ReproError):
    """A snapshot or write-ahead log is corrupt or cannot be applied.

    Torn *tail* records of a WAL are tolerated by recovery (the crash
    window); this error marks damage that recovery must not paper over —
    checksum mismatches in a snapshot, corruption before the WAL tail, or
    unreplayable records.
    """


class RecursiveClassError(ReproError):
    """A recursive class definition violates the syntactic restriction of
    Section 4.4 (class identifiers may only appear in include-source
    positions)."""
