"""Event-driven simulator core.

Time is a float in **microseconds** (see :mod:`repro.units`).  Callbacks
are ordered by (time, sequence), so same-time callbacks run in the order
they were scheduled — a property several protocol tests rely on.

Every pending callback lives in one binary heap, and two scheduling tiers
share its total order:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return a
  cancellable, named :class:`Event` — the observable API, kept for
  one-shot callbacks and protocol timeouts that may be cancelled.
* :meth:`Simulator.schedule_call` is the hot-path tier used by services,
  links and every periodic loop: no Event object, no name string, no
  cancellation.

Heap entries are tuples of two layouts, compared at C speed::

    (time, seq, event)      # cancellable tier: runs event.callback()
    (time, seq, fn, arg)    # fast tier: runs fn(arg)

``seq`` is drawn from the simulator's one counter (``Simulator._seq``), so
it is unique, the comparison never reaches the payload, and entries of
either tier interleave in exactly the order they were scheduled.
:class:`repro.net.link.Link` is the one writer outside this module: its
fault-free send variants push ``(time, seq, dst.receive, packet)`` entries
straight onto ``Simulator._heap``, with ``seq`` from the same counter, so
a link delivery orders exactly like a :meth:`Simulator.schedule_call`.

:meth:`Simulator.call_every` runs a periodic loop on the fast tier, one
``schedule_call`` entry per tick.  Its handle cannot reach into the heap:
cancelling it leaves the next tick queued as a no-op, which still counts
in :attr:`Simulator.pending` and, once the clock reaches it, in
:attr:`Simulator.events_executed`.

Event cancellation is lazy: a cancelled Event's entry stays queued until
the run loop reaches and purges it.  :attr:`Simulator.pending` is
therefore the heap's length minus the cancelled Events still in it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, List, Optional

from ..errors import SimulationError


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled.
    Cancellation is lazy: the heap entry stays, but the callback is skipped.
    """

    __slots__ = ("time", "callback", "cancelled", "name", "_sim", "_done")

    def __init__(
        self,
        time: float,
        callback: Callable[[], None],
        name: str,
        sim: "Simulator",
    ):
        self.time = time
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
        self._sim._cancelled += 1

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
        #: the event queue; see the module docstring for the entry layouts
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._executed = 0
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
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(
        self, time: float, callback: Callable[[], None], name: str = "event"
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        event = Event(time, callback, name, self)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def schedule_call(self, delay: float, callback, arg) -> None:
        """Hot-path scheduling: invokes ``callback(arg)`` ``delay``
        microseconds from now; no Event object, no name, not cancellable.

        Orders identically to :meth:`schedule` (same sequence counter);
        use for high-volume machinery (service completions, timers) where
        the Event API's observability costs real time.  The argument rides
        in the heap entry itself, which saves binding it in a closure.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._seq), callback, arg)
        )

    def call_every(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        rng=None,
    ) -> "PeriodicHandle":
        """Run ``callback`` every ``interval`` microseconds until cancelled.

        ``jitter`` (a fraction of the interval) requires ``rng`` and spreads
        firings uniformly in ``interval * (1 ± jitter)``.

        Each tick is one fast-tier entry.  The first, after an un-jittered
        ``interval``, takes its ``seq`` here; every later one takes it
        after ``callback()`` and then the jitter draw, so a callback that
        draws from the same ``rng`` draws first.  Tick times, same-time
        order and RNG draw order follow from that alone.

        Cancelling the handle leaves the next tick queued as a no-op that
        counts in :attr:`pending` and, if the clock reaches it, in
        :attr:`events_executed`.  Scenario event counts include such ticks
        only from the open-loop clients, which cancel their loop on every
        ``set_rate``: ``ScenarioRun.execute`` stops its controllers and gap
        scanners after its last ``run_until`` returns, and no scenario
        stops a service, RAPL reader or sampler.
        """
        if not interval > 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        if jitter and rng is None:
            raise SimulationError("jitter requires an rng")
        handle = PeriodicHandle()
        schedule_call = self.schedule_call

        def fire(_arg) -> None:
            if handle.cancelled:
                return
            callback()
            if handle.cancelled:  # callback may cancel the loop
                return
            delay = interval
            if jitter:
                delay *= 1.0 + rng.uniform(-jitter, jitter)
            schedule_call(delay, fire, None)

        schedule_call(interval, fire, None)
        return handle

    # -- running -------------------------------------------------------

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

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event heap is empty (bounded by ``max_events``).

        Unlike :meth:`run_until`, the clock stays at the last executed
        callback.
        """
        if self._running:
            raise SimulationError("run is not re-entrant")
        self._running = True
        try:
            self._run_budgeted(math.inf, max_events)
        finally:
            self._running = False

    def _run_until(self, time: float) -> None:
        """The hot loop: local aliases, the fast tier's layout tested
        first, no budget test."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            if entry[0] > time:
                break
            pop(heap)
            if len(entry) == 4:
                self._now = entry[0]
                self._executed += 1
                entry[2](entry[3])
                continue
            event = entry[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event._done = True
            self._now = entry[0]
            self._executed += 1
            event.callback()

    def _run_budgeted(self, time: float, max_events: int) -> None:
        """:meth:`run_until` under a ``max_events`` budget, and :meth:`run`
        (``time`` is ``math.inf``)."""
        heap = self._heap
        budget = max_events
        while heap:
            entry = heap[0]
            if len(entry) == 3 and entry[2].cancelled:
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
            heapq.heappop(heap)
            if entry[0] < self._now:
                raise SimulationError("event heap corrupted: time went backwards")
            self._now = entry[0]
            self._executed += 1
            if len(entry) == 4:
                entry[2](entry[3])
            else:
                entry[2]._done = True
                entry[2].callback()


class PeriodicHandle:
    """Handle returned by :meth:`Simulator.call_every`."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Stop the periodic callback (its queued tick runs as a no-op)."""
        self.cancelled = True
