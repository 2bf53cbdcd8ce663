"""Admission control: the bounded queue and the persistence breaker.

A service that accepts every request degrades for *all* clients when it
saturates; the robust alternative is to bound the queue and **shed** the
excess (reject-with-:class:`~repro.errors.OverloadedError`) so admitted
requests keep their latency.  The second degradation axis is durability:
when WAL appends keep failing (disk full, permissions, injected faults),
continuing to accept writes would either lose them or wedge every worker
on a dead disk — the :class:`CircuitBreaker` trips instead, degrading the
server to *read-only* until a probe append succeeds.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..errors import OverloadedError, ReadOnlyError
from ..runtime.faults import fire

__all__ = ["AdmissionQueue", "CircuitBreaker"]


class AdmissionQueue:
    """A bounded FIFO that rejects rather than blocks when full.

    ``put`` is the admission decision: it never waits.  ``put_front``
    queues work that was already admitted — a wire-transaction step, or
    a request a dying worker had dequeued — past the bound, so it is
    never shed, and ahead of ``put`` items (FIFO among themselves).
    Both refuse once closed; ``close`` wakes ``get``.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError("queue maxsize must be at least 1")
        self.maxsize = maxsize
        self._front: deque = deque()
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False

    def put(self, item) -> None:
        fire("server.queue")
        with self._cond:
            if self._closed:
                raise OverloadedError("server is shutting down")
            if len(self._front) + len(self._items) >= self.maxsize:
                raise OverloadedError(
                    f"request queue is full ({self.maxsize} pending); "
                    "shedding load — back off and resubmit")
            self._items.append(item)
            self._cond.notify()

    def put_front(self, item) -> None:
        with self._cond:
            if self._closed:
                raise OverloadedError("server is shutting down")
            self._front.append(item)
            self._cond.notify()

    def get(self, timeout: float | None):
        """Pop the next item; None on timeout, and at once when closed."""
        with self._cond:
            if not self._front and not self._items and not self._closed:
                self._cond.wait(timeout)
            items = self._front or self._items
            return items.popleft() if items else None

    def close(self) -> list:
        """Stop admitting, wake every waiter, return the drained backlog."""
        with self._cond:
            self._closed = True
            backlog = [*self._front, *self._items]
            self._front, self._items = deque(), deque()
            self._cond.notify_all()
        return backlog

    def __len__(self) -> int:
        with self._cond:
            return len(self._front) + len(self._items)


class CircuitBreaker:
    """A three-state breaker around the persistence layer.

    * **closed** — appends flow through; consecutive failures are counted.
    * **open** — after ``threshold`` consecutive failures every protected
      call raises :class:`~repro.errors.ReadOnlyError` immediately (no
      disk touch) until ``cooldown`` seconds pass.
    * **half-open** — after the cooldown, exactly one call is let through
      as a probe; success closes the breaker, failure re-opens it for
      another cooldown.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 1.0):
        if threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._failures = 0
        self._opened_at: float | None = None
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if time.monotonic() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def write_allowed(self) -> bool:
        """Whether a write transaction should even start (open = no)."""
        if self._opened_at is None:
            # Closed: one attribute read, no lock.  A breaker that opens
            # right after this check is the same race the locked read has.
            return True
        return self.state != "open"

    def retry_after(self) -> float:
        """Seconds until the breaker can next let a probe through.

        0.0 while closed or already half-open — retrying immediately is
        then reasonable.  While open this is the remaining cooldown, the
        honest ``retry_after`` hint for a shed write: retrying sooner is
        guaranteed to fail without touching the disk.
        """
        with self._lock:
            if self._opened_at is None:
                return 0.0
            remaining = self.cooldown - (time.monotonic() - self._opened_at)
            return max(0.0, remaining)

    def run(self, fn):
        """Call ``fn()`` under breaker accounting.

        Raises :class:`~repro.errors.ReadOnlyError` without calling ``fn``
        while open; otherwise failures count toward tripping and a
        success resets the breaker.
        """
        with self._lock:
            if self._state_locked() == "open":
                remaining = self.cooldown - (time.monotonic()
                                             - self._opened_at)
                raise ReadOnlyError(
                    "persistence circuit breaker is open (WAL appends "
                    f"failed {self._failures} times in a row); the server "
                    "is read-only until a probe append succeeds",
                    retry_after=max(0.0, remaining))
        try:
            result = fn()
        except BaseException:
            with self._lock:
                self._failures += 1
                if (self._failures >= self.threshold
                        or self._opened_at is not None):
                    self._opened_at = time.monotonic()
            raise
        with self._lock:
            self._failures = 0
            self._opened_at = None
        return result
