"""Bounded FIFO queues with occupancy statistics.

Used as NIC rings, switch port queues, and application request queues.
Tracking drops and time-weighted occupancy lets experiments report queueing
behaviour (and lets tests assert e.g. "no drops below saturation").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Optional

from ..errors import ConfigurationError
from .kernel import Simulator


@dataclass
class QueueStats:
    """Counters maintained by :class:`FifoQueue`."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    peak_depth: int = 0
    #: integral of depth over time (us); divide by elapsed for mean depth
    depth_time_integral: float = 0.0
    _last_change: float = field(default=0.0, repr=False)

    def mean_depth(self, elapsed_us: float) -> float:
        """Time-weighted mean queue depth over ``elapsed_us``."""
        if elapsed_us <= 0:
            return 0.0
        return self.depth_time_integral / elapsed_us


class FifoQueue:
    """A bounded FIFO with drop-tail semantics.

    ``capacity=None`` means unbounded (useful for software request queues
    where the bottleneck is the service rate, not the buffer).
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "q"):
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(f"queue capacity must be positive, got {capacity}")
        self._sim = sim
        self._items: Deque[Any] = deque()
        self.capacity = capacity
        self.name = name
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def _account(self) -> None:
        now = self._sim.now
        self.stats.depth_time_integral += len(self._items) * (
            now - self.stats._last_change
        )
        self.stats._last_change = now

    def push(self, item: Any) -> bool:
        """Enqueue; returns False (and counts a drop) if the queue is full."""
        # hot path: ``full`` and ``_account`` inlined
        items = self._items
        stats = self.stats
        depth = len(items)
        if self.capacity is not None and depth >= self.capacity:
            stats.dropped += 1
            return False
        now = self._sim._now
        stats.depth_time_integral += depth * (now - stats._last_change)
        stats._last_change = now
        items.append(item)
        stats.enqueued += 1
        if depth + 1 > stats.peak_depth:
            stats.peak_depth = depth + 1
        return True

    def pass_through(self) -> bool:
        """Count an item that enters the empty queue and leaves at once.

        Returns False, counting nothing, unless the queue is empty.  The
        statistics end exactly as :meth:`push` then :meth:`pop` at this
        instant would leave them: the depth integral gains nothing (the
        queue was empty before and is empty after).
        """
        if self._items:
            return False
        stats = self.stats
        stats._last_change = self._sim._now
        stats.enqueued += 1
        stats.dequeued += 1
        if stats.peak_depth < 1:
            stats.peak_depth = 1
        return True

    def pop(self) -> Optional[Any]:
        """Dequeue the oldest item, or None if empty."""
        # hot path: ``_account`` inlined
        items = self._items
        if not items:
            return None
        stats = self.stats
        now = self._sim._now
        stats.depth_time_integral += len(items) * (now - stats._last_change)
        stats._last_change = now
        stats.dequeued += 1
        return items.popleft()

    def peek(self) -> Optional[Any]:
        """Oldest item without removing it, or None."""
        return self._items[0] if self._items else None

    def clear(self) -> int:
        """Drop everything; returns the number of items discarded."""
        self._account()
        n = len(self._items)
        self._items.clear()
        self.stats.dropped += n
        return n
