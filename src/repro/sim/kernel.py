"""Event-driven simulator core.

Time is a float in **microseconds** (see :mod:`repro.units`).  Events are
callbacks ordered by (time, sequence), so same-time events run in the order
they were scheduled — a property several protocol tests rely on.

Every pending callback lives in one binary heap, and two scheduling tiers
share its total order:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable, named :class:`Event` — the observable API.
* :meth:`Simulator.schedule_fast` / :meth:`Simulator.schedule_call` are the
  hot-path tier used by services and load generators: no Event object, no
  name string, no cancellation.

Heap entries are tuples, compared at C speed::

    (time, seq, event)      # cancellable tier: runs event.callback()
    (time, seq, fn)         # schedule_fast: runs fn()
    (time, seq, fn, arg)    # schedule_call: runs fn(arg)

``seq`` is drawn from the simulator's one counter (``Simulator._seq``), so
it is unique, the comparison never reaches the payload, and entries of
either tier interleave in exactly the order they were scheduled.
:class:`repro.net.link.Link` is the one writer outside this module: its
fault-free send variants push ``(time, seq, dst.receive, packet)`` entries
straight onto ``Simulator._heap``, with ``seq`` from the same counter, so
a link delivery orders exactly like a :meth:`Simulator.schedule_call`.

Cancellation is lazy: a cancelled Event's entry stays queued until the
run loop reaches and purges it.  :attr:`Simulator.pending` is therefore
the heap's length minus the cancelled entries still in it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

from ..errors import SimulationError


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled.
    Cancellation is lazy: the heap entry stays, but the callback is skipped.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "name", "_sim", "_done")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        name: str,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.name = name
        self._sim = sim
        self._done = False

    def cancel(self) -> None:
        """Prevent the callback from firing; safe to call multiple times
        (and a no-op once the event has executed)."""
        if self.cancelled or self._done:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._cancelled += 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.name!r} @ {self.time:.3f}us, {state})"


class Simulator:
    """Discrete-event simulator with a microsecond clock.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("at t=10us"))
        sim.run_until(100.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: the event queue; see the module docstring for the entry layout
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._executed = 0
        #: Event objects re-armed via :meth:`reschedule` (pool hit count).
        self._reused = 0
        #: cancelled Events whose entries are still in the heap
        self._cancelled = 0

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (observability/testing)."""
        return self._executed

    @property
    def events_reused(self) -> int:
        """Number of pooled Event re-arms (observability/testing)."""
        return self._reused

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): :meth:`Event.cancel` counts each cancelled entry still in the
        heap and the run loop's purge uncounts it, so the heap is never
        scanned.
        """
        return len(self._heap) - self._cancelled

    # -- scheduling ----------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None], name: str = "event"
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        event = Event(time, next(self._seq), callback, name, sim=self)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], name: str = "event"
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        event = Event(time, next(self._seq), callback, name, sim=self)
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def schedule_fast(self, delay: float, callback: Callable[[], None]) -> None:
        """Hot-path scheduling: no Event object, no name, not cancellable.

        Orders identically to :meth:`schedule` (same sequence counter);
        use for high-volume machinery (packet deliveries, service
        completions) where the Event API's observability costs real time.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), callback))

    def schedule_call(self, delay: float, callback, arg) -> None:
        """Like :meth:`schedule_fast` but invokes ``callback(arg)``.

        Saves the per-call closure/partial allocation of binding ``arg``:
        the argument rides in the heap entry itself.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._seq), callback, arg)
        )

    def reschedule(self, event: Event, delay: float) -> Event:
        """Re-arm an **executed** :class:`Event` ``delay`` microseconds from
        now, reusing the object instead of allocating a fresh one.

        This is the event-object pool for the cancellable tier: a periodic
        loop keeps one Event alive for its whole lifetime (see
        :meth:`call_every`), so ``call_every``-heavy controller racks stop
        churning allocations.  Only legal once the event has fired — its
        queue entry has been popped, so re-pushing the same object cannot
        leave a stale duplicate behind.  The event draws a fresh sequence
        number from the shared counter, so ordering semantics are exactly
        those of a newly-scheduled event.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if not event._done or event.cancelled:
            raise SimulationError(
                "reschedule requires an executed, uncancelled event"
            )
        event.time = self._now + delay
        event.seq = next(self._seq)
        event._done = False
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._reused += 1
        return event

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        name: str = "periodic",
        jitter: float = 0.0,
        rng=None,
    ) -> "PeriodicHandle":
        """Run ``callback`` every ``interval`` microseconds until cancelled.

        ``jitter`` (a fraction of the interval) requires ``rng`` and spreads
        firings uniformly in ``interval * (1 ± jitter)``.

        The loop allocates **one** Event for its whole lifetime: each tick
        re-arms it via :meth:`reschedule` (the entry just popped belongs to
        the event now firing, so reuse is safe), keeping the handle fully
        cancellable without a per-tick allocation.
        """
        if not interval > 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        if jitter and rng is None:
            raise SimulationError("jitter requires an rng")
        handle = PeriodicHandle()

        def fire() -> None:
            if handle.cancelled:
                return
            callback()
            if handle.cancelled:  # callback may cancel the loop
                return
            delay = interval
            if jitter:
                delay *= 1.0 + rng.uniform(-jitter, jitter)
            handle.event = self.reschedule(handle.event, delay)

        handle.event = self.schedule(interval, fire, name)
        return handle

    def call_every_fast(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        rng=None,
    ) -> "FastPeriodicHandle":
        """:meth:`call_every` without the per-tick Event allocation.

        Semantics are tick-for-tick identical — first firing after an
        un-jittered ``interval``, then ``callback()`` *before* the jitter
        draw, so RNG draw order matches ``call_every`` exactly (the
        byte-identity of recorded experiments depends on this).  The only
        difference: cancellation leaves the already-scheduled next tick in
        the queue as a no-op instead of cancelling it.  Use for high-rate
        loops (open-loop load generators); keep ``call_every`` where the
        handle's pending event must be observable/cancellable.
        """
        if not interval > 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        if jitter and rng is None:
            raise SimulationError("jitter requires an rng")
        handle = FastPeriodicHandle()
        schedule_fast = self.schedule_fast

        def fire() -> None:
            if handle.cancelled:
                return
            callback()
            if handle.cancelled:  # callback may cancel the loop
                return
            delay = interval
            if jitter:
                delay *= 1.0 + rng.uniform(-jitter, jitter)
            schedule_fast(delay, fire)

        schedule_fast(interval, fire)
        return handle

    # -- running -------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            payload = entry[2]
            if payload.__class__ is Event:
                if payload.cancelled:
                    self._cancelled -= 1
                    continue
                payload._done = True
                callback = payload.callback
            else:
                callback = payload
            time = entry[0]
            if time < self._now:
                raise SimulationError("event heap corrupted: time went backwards")
            self._now = time
            self._executed += 1
            if len(entry) == 4:
                callback(entry[3])
            else:
                callback()
            return True
        return False

    def run_until(self, time: float, max_events: Optional[int] = None) -> None:
        """Run events until the clock reaches ``time`` (inclusive of events
        scheduled exactly at ``time``).  The clock is advanced to ``time``
        even if the event heap drains first.

        ``max_events`` bounds the number of **executed callbacks** only:
        lazily-cancelled events encountered while scanning the heap are
        purged for free and never consume budget (their cost was already
        accounted when :meth:`Event.cancel` ran).  Exceeding the budget
        raises :class:`SimulationError` without executing further events.
        """
        if self._running:
            raise SimulationError("run_until is not re-entrant")
        if not time >= self._now:
            raise SimulationError(f"cannot run backwards to t={time}")
        self._running = True
        try:
            if max_events is None:
                self._run_until(time)
            else:
                self._run_budgeted(time, max_events)
            self._now = max(self._now, time)
        finally:
            self._running = False

    def _run_until(self, time: float) -> None:
        """The hot loop: local aliases, tuple entries, no step() call and
        no budget test."""
        heap = self._heap
        pop = heapq.heappop
        event_class = Event
        while heap:
            entry = heap[0]
            if entry[0] > time:
                break
            pop(heap)
            payload = entry[2]
            if payload.__class__ is event_class:
                if payload.cancelled:
                    self._cancelled -= 1
                    continue
                payload._done = True
                payload = payload.callback
            self._now = entry[0]
            self._executed += 1
            if len(entry) == 4:
                payload(entry[3])
            else:
                payload()

    def _run_budgeted(self, time: float, max_events: int) -> None:
        """:meth:`run_until` under a ``max_events`` budget."""
        heap = self._heap
        budget = max_events
        while heap:
            entry = heap[0]
            payload = entry[2]
            if payload.__class__ is Event and payload.cancelled:
                # Purge without charging the budget: only executed
                # callbacks count against max_events.
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if entry[0] > time:
                break
            if budget <= 0:
                raise SimulationError(
                    f"exceeded max_events={max_events} before t={time}"
                )
            budget -= 1
            self.step()

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event heap is empty (bounded by ``max_events``)."""
        if self._running:
            raise SimulationError("run is not re-entrant")
        self._running = True
        try:
            for _ in range(max_events):
                if not self.step():
                    return
            raise SimulationError(f"exceeded max_events={max_events}")
        finally:
            self._running = False


class PeriodicHandle:
    """Handle returned by :meth:`Simulator.call_every`."""

    __slots__ = ("event", "cancelled")

    def __init__(self) -> None:
        self.event: Optional[Event] = None
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the periodic callback."""
        self.cancelled = True
        if self.event is not None:
            self.event.cancel()


class FastPeriodicHandle:
    """Handle returned by :meth:`Simulator.call_every_fast`."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the periodic callback (the pending tick no-ops)."""
        self.cancelled = True
