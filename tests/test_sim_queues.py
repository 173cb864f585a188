"""FIFO queue semantics and statistics."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import FifoQueue, Simulator


def test_fifo_order():
    sim = Simulator()
    q = FifoQueue(sim)
    for i in range(5):
        assert q.push(i)
    assert [q.pop() for _ in range(5)] == [0, 1, 2, 3, 4]


def test_pop_empty_returns_none():
    q = FifoQueue(Simulator())
    assert q.pop() is None


def test_drop_tail_when_full():
    sim = Simulator()
    q = FifoQueue(sim, capacity=2)
    assert q.push("a")
    assert q.push("b")
    assert not q.push("c")
    assert q.stats.dropped == 1
    assert len(q) == 2


def test_unbounded_never_full():
    q = FifoQueue(Simulator())
    for i in range(10_000):
        assert q.push(i)
    assert not q.full


def test_capacity_must_be_positive():
    with pytest.raises(ConfigurationError):
        FifoQueue(Simulator(), capacity=0)


def test_peek_does_not_remove():
    q = FifoQueue(Simulator())
    q.push("x")
    assert q.peek() == "x"
    assert len(q) == 1


def test_clear_counts_drops():
    q = FifoQueue(Simulator())
    for i in range(7):
        q.push(i)
    assert q.clear() == 7
    assert q.stats.dropped == 7
    assert len(q) == 0


def test_peak_depth_tracked():
    q = FifoQueue(Simulator())
    for i in range(4):
        q.push(i)
    q.pop()
    q.push(99)
    assert q.stats.peak_depth == 4


def test_time_weighted_mean_depth():
    sim = Simulator()
    q = FifoQueue(sim, name="depth-test")
    q.push("a")  # depth 0 before, becomes 1 at t=0
    sim.run_until(10.0)
    q.push("b")  # depth 1 held for 10us
    sim.run_until(20.0)
    q.pop()  # depth 2 held for 10us
    # integral = 0*0 + 1*10 + 2*10 = 30 over 20us -> mean 1.5
    assert q.stats.mean_depth(20.0) == pytest.approx(1.5)


def test_mean_depth_zero_elapsed():
    q = FifoQueue(Simulator())
    assert q.stats.mean_depth(0.0) == 0.0


def test_pass_through_counts_like_push_then_pop():
    sim = Simulator()
    q, twin = FifoQueue(sim), FifoQueue(sim)
    sim.run_until(5.0)
    assert q.pass_through()
    assert twin.push("x") and twin.pop() == "x"
    assert q.stats == twin.stats
    assert q.stats.peak_depth == 1 and q.stats._last_change == 5.0


def test_pass_through_refuses_a_non_empty_queue():
    sim = Simulator()
    q = FifoQueue(sim)
    q.push("waiting")
    before = (q.stats.enqueued, q.stats.dequeued)
    assert not q.pass_through()
    assert (q.stats.enqueued, q.stats.dequeued) == before
    assert q.pop() == "waiting"
