"""Discrete-event kernel behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(sim.now))
    sim.schedule(20.0, lambda: fired.append(sim.now))
    sim.run_until(15.0)
    assert fired == [10.0]
    assert sim.now == 15.0
    sim.run_until(25.0)
    assert fired == [10.0, 20.0]


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, lambda: order.append("c"))
    sim.schedule(10.0, lambda: order.append("a"))
    sim.schedule(20.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(5.0, lambda l=label: order.append(l))
    sim.run()
    assert order == list("abcde")


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        sim.schedule(5.0, lambda: fired.append(sim.now))

    sim.schedule(10.0, outer)
    sim.run()
    assert fired == [15.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(100.0)
    with pytest.raises(SimulationError):
        sim.run_until(50.0)


def test_call_every_fires_periodically():
    sim = Simulator()
    fired = []
    handle = sim.call_every(10.0, lambda: fired.append(sim.now))
    sim.run_until(55.0)
    assert fired == [10.0, 20.0, 30.0, 40.0, 50.0]
    handle.cancel()
    sim.run_until(100.0)
    assert len(fired) == 5


def test_call_every_callback_can_cancel():
    sim = Simulator()
    fired = []
    handle = sim.call_every(10.0, lambda: (fired.append(sim.now), handle.cancel()))
    sim.run_until(100.0)
    assert fired == [10.0]


def test_call_every_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_every(0.0, lambda: None)


def test_call_every_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_every(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_every(10.0, lambda: None, jitter=0.3)  # jitter needs rng
    assert sim.pending == 0


def test_run_bounded_by_max_events():
    sim = Simulator()

    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_pending_counts_uncancelled():
    sim = Simulator()
    e1 = sim.schedule(10.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    e1.cancel()
    assert sim.pending == 1


def test_pending_tracks_execution_and_double_cancel():
    sim = Simulator()
    e1 = sim.schedule(10.0, lambda: None)
    e2 = sim.schedule(20.0, lambda: None)
    assert sim.pending == 2
    e1.cancel()
    e1.cancel()  # idempotent: must not decrement twice
    assert sim.pending == 1
    sim.run()
    assert sim.pending == 0
    e2.cancel()  # cancelling an already-executed event is a no-op
    assert sim.pending == 0


def test_pending_is_o1_with_cancelled_backlog():
    """pending must not scan the heap: a large lazily-cancelled backlog
    leaves the counter exact while the heap still holds the entries."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
    for event in events[:999]:
        event.cancel()
    assert sim.pending == 1
    assert len(sim._heap) == 1000  # lazy cancellation: entries remain


def test_run_until_budget_counts_only_executed_callbacks():
    """max_events charges executed callbacks; purging cancelled events is
    free (the documented run_until semantics)."""
    sim = Simulator()
    cancelled = [sim.schedule(float(i + 1), lambda: None) for i in range(50)]
    for event in cancelled:
        event.cancel()
    fired = []
    for i in range(3):
        sim.schedule(100.0 + i, lambda i=i: fired.append(i))
    sim.run_until(200.0, max_events=3)  # would raise if purges were charged
    assert fired == [0, 1, 2]
    assert sim._heap == []  # the budget scan purged the cancelled backlog


def test_run_until_budget_still_enforced():
    from repro.errors import SimulationError

    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    with pytest.raises(SimulationError):
        sim.run_until(10.0, max_events=4)


def test_clock_advances_to_run_until_time_with_empty_heap():
    sim = Simulator()
    sim.run_until(123.0)
    assert sim.now == 123.0


# -- the fast scheduling tier ------------------------------------------------


def test_fast_tier_interleaves_with_events_in_schedule_order():
    sim = Simulator()
    order = []
    sim.schedule(10.0, lambda: order.append("event"))
    sim.schedule_call(10.0, order.append, "call")
    sim.schedule_at(10.0, lambda: order.append("event_at"))
    sim.run()
    assert order == ["event", "call", "event_at"]


def test_fast_tier_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_call(-1.0, print, None)


@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_call_every_ticks_and_draws_match_an_oracle(jitter):
    """The first tick lands after an un-jittered interval; each later one
    is drawn after the callback's own draw from the same RNG, as a client
    loop does.  A clone of the RNG replays both draws to predict every
    tick time, so the byte-identical goldens' tick times and draw order
    are pinned here."""
    import random

    interval = 10.0
    rng = random.Random(5)
    sim = Simulator()
    ticks, draws = [], []
    sim.call_every(
        interval,
        lambda: (ticks.append(sim.now), draws.append(rng.random())),
        jitter=jitter,
        rng=rng if jitter else None,
    )
    sim.run_until(500.0)

    oracle = random.Random(5)
    expected_ticks, expected_draws = [], []
    t = interval
    while t <= 500.0:
        expected_ticks.append(t)
        expected_draws.append(oracle.random())
        if jitter:
            t = t + interval * (1.0 + oracle.uniform(-jitter, jitter))
        else:
            t = t + interval
    assert len(ticks) >= 30
    assert ticks == expected_ticks
    assert draws == expected_draws


def test_call_every_cancel_stops_ticks():
    sim = Simulator()
    fired = []
    handle = sim.call_every(10.0, lambda: fired.append(sim.now))
    sim.run_until(35.0)
    handle.cancel()
    sim.run_until(200.0)
    assert fired == [10.0, 20.0, 30.0]


def test_cancelled_loop_leaves_one_noop_tick():
    """Cancelling a loop leaves its next tick queued: it counts in
    pending and, once reached, in events_executed, but calls nothing.
    The golden event counts of the client loops rely on this."""
    sim = Simulator()
    fired = []
    handle = sim.call_every(10.0, lambda: fired.append(sim.now))
    sim.run_until(25.0)
    handle.cancel()
    assert sim.pending == 1
    executed = sim.events_executed
    sim.run_until(100.0)
    assert fired == [10.0, 20.0]
    assert sim.events_executed == executed + 1
    assert sim.pending == 0


# -- the one heap ------------------------------------------------------------


def test_heap_runs_every_entry_kind_in_time_then_schedule_order():
    """Event, call, periodic-tick and Link entries share one heap and one
    seq counter: they run in order of time, then of scheduling, which a
    sorted oracle over (time, schedule index) predicts exactly."""
    import random

    from repro.net import Link, TrafficClass
    from repro.net.node import CallbackNode
    from repro.net.packet import make_packet

    rng = random.Random(17)
    sim = Simulator()
    order = []
    sink = CallbackNode(sim, "sink", lambda packet: order.append(packet.payload))
    expected = []
    for i in range(300):
        # half the times are whole microseconds, so many entries tie
        if rng.random() < 0.5:
            t = float(rng.randrange(25))
        else:
            t = rng.uniform(0.0, 50.0)
        kind = i % 6
        if kind == 0:
            sim.schedule(t, lambda i=i: order.append(i))
        elif kind == 1:
            sim.schedule_at(t, lambda i=i: order.append(i))
        elif kind == 2:
            sim.schedule_call(t, order.append, i)
        elif kind == 3:
            if t == 0.0:
                t = 1.0  # call_every needs a positive interval
            handle = sim.call_every(t, lambda i=i: order.append(i))
            # first tick only: the callback runs once, then the cancelled
            # loop's second tick (at 2t) runs as a no-op
            sim.schedule_call(t, lambda h: h.cancel(), handle)
        else:
            link = Link(sim, sink, latency_us=t, queueing=kind == 5)
            link.send(
                make_packet(
                    "src", "sink", TrafficClass.NORMAL, payload=i, size_bytes=70
                )
            )
            # delivered at now (0.0) + the delay each send variant computes
            serialization = 70 * 8 / link.bandwidth_bps * 1e6
            if link.queueing:
                t = 0.0 + serialization + t
            else:
                t = t + serialization
        expected.append((t, i))
    sim.run()
    assert order == [i for _, i in sorted(expected)]


def test_pending_and_executed_are_exact_inside_a_callback():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: None)
    cancelled = sim.schedule(2.0, lambda: None)
    sim.schedule_call(
        3.0, lambda _: seen.append((sim.pending, sim.events_executed)), None
    )
    sim.schedule_call(4.0, seen.append, "last")
    cancelled.cancel()
    assert sim.pending == 3
    sim.run_until(10.0)
    # at t=3 the t=1 event ran, the t=2 one was purged, the t=4 call waits
    assert seen == [(1, 2), "last"]
    assert sim.pending == 0
    assert sim.events_executed == 3


def test_counters_are_exact_after_a_callback_raises():
    """A callback raising out of run_until leaves pending and
    events_executed exact, and a later run_until carries on from there."""
    sim = Simulator()
    fired = []

    def boom(_arg):
        raise ValueError("boom")

    sim.schedule(1.0, lambda: fired.append(1.0))
    sim.schedule_call(2.0, boom, None)
    sim.schedule(3.0, lambda: fired.append(3.0)).cancel()
    sim.schedule_call(4.0, fired.append, 4.0)
    with pytest.raises(ValueError):
        sim.run_until(10.0)
    assert sim.now == 2.0
    assert sim.events_executed == 2
    assert sim.pending == 1  # the cancelled t=3 entry does not count
    sim.run_until(10.0)
    assert fired == [1.0, 4.0]
    assert sim.events_executed == 3
    assert sim.pending == 0
    assert sim.now == 10.0


def test_pending_and_executed_exact_under_a_budget():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.schedule(2.5, lambda: None).cancel()
    with pytest.raises(SimulationError):
        sim.run_until(10.0, max_events=3)
    assert sim.events_executed == 3
    assert sim.pending == 2
    sim.run_until(10.0)
    assert sim.events_executed == 5
    assert sim.pending == 0


def test_call_every_cancel_still_works_with_pooling():
    sim = Simulator()
    ticks = []
    handle = sim.call_every(1.0, lambda: ticks.append(sim.now))
    sim.run_until(3.0)
    handle.cancel()
    sim.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0]
