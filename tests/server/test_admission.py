"""Unit tests for admission control: the bounded queue and the breaker."""

import time

import pytest

from repro.errors import OverloadedError, ReadOnlyError
from repro.server.admission import AdmissionQueue, CircuitBreaker


# -- the queue --------------------------------------------------------------

def test_queue_is_fifo():
    q = AdmissionQueue(4)
    q.put("a")
    q.put("b")
    assert q.get(0.01) == "a"
    assert q.get(0.01) == "b"


def test_full_queue_sheds_instead_of_blocking():
    q = AdmissionQueue(2)
    q.put("a")
    q.put("b")
    t0 = time.monotonic()
    with pytest.raises(OverloadedError):
        q.put("c")
    assert time.monotonic() - t0 < 0.5  # rejected, not queued-with-wait
    assert len(q) == 2


def test_put_front_bypasses_the_bound():
    # The worker-death requeue path: the request was already admitted
    # once, so re-admission must not shed it even when the queue is full.
    q = AdmissionQueue(1)
    q.put("a")
    q.put_front("urgent")
    assert q.get(0.01) == "urgent"
    assert q.get(0.01) == "a"


def test_put_front_items_are_fifo_among_themselves():
    # Wire-transaction steps go ahead of every admitted request, but not
    # ahead of older steps: a commit step is never overtaken by newer ones.
    q = AdmissionQueue(4)
    q.put("a")
    q.put_front("step-1")
    q.put("b")
    q.put_front("step-2")
    assert len(q) == 4
    assert [q.get(0.01) for _ in range(3)] == ["step-1", "step-2", "a"]
    q.put_front("step-3")
    assert q.close() == ["step-3", "b"]


def test_get_times_out_with_none():
    q = AdmissionQueue(1)
    assert q.get(0.01) is None


def test_close_drains_and_rejects():
    q = AdmissionQueue(4)
    q.put("a")
    q.put("b")
    assert q.close() == ["a", "b"]
    assert len(q) == 0
    with pytest.raises(OverloadedError):
        q.put("c")


def test_queue_maxsize_validated():
    with pytest.raises(ValueError):
        AdmissionQueue(0)


# -- the breaker ------------------------------------------------------------

def _boom():
    raise OSError("disk on fire")


def test_breaker_trips_after_threshold_consecutive_failures():
    b = CircuitBreaker(threshold=3, cooldown=60.0)
    for _ in range(3):
        with pytest.raises(OSError):
            b.run(_boom)
    assert b.state == "open"
    calls = []
    with pytest.raises(ReadOnlyError):
        b.run(lambda: calls.append(1))
    assert calls == []  # open = fail fast, the disk is not touched


def test_success_resets_the_failure_count():
    b = CircuitBreaker(threshold=2, cooldown=60.0)
    with pytest.raises(OSError):
        b.run(_boom)
    b.run(lambda: None)  # resets the consecutive counter
    with pytest.raises(OSError):
        b.run(_boom)
    assert b.state == "closed"  # 1 consecutive failure, not 2


def test_half_open_probe_success_closes():
    b = CircuitBreaker(threshold=1, cooldown=0.02)
    with pytest.raises(OSError):
        b.run(_boom)
    assert b.state == "open"
    time.sleep(0.03)
    assert b.state == "half-open"
    assert b.run(lambda: "ok") == "ok"
    assert b.state == "closed"


def test_half_open_probe_failure_reopens():
    b = CircuitBreaker(threshold=1, cooldown=0.02)
    with pytest.raises(OSError):
        b.run(_boom)
    time.sleep(0.03)
    with pytest.raises(OSError):
        b.run(_boom)  # the probe fails
    assert b.state == "open"
    with pytest.raises(ReadOnlyError):
        b.run(lambda: None)


def test_write_allowed_mirrors_state():
    b = CircuitBreaker(threshold=1, cooldown=0.02)
    assert b.write_allowed()
    with pytest.raises(OSError):
        b.run(_boom)
    assert not b.write_allowed()
    time.sleep(0.03)
    assert b.write_allowed()  # half-open admits the probe


def test_breaker_threshold_validated():
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)
