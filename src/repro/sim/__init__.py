"""Discrete-event simulation kernel.

The kernel is deliberately small: an event heap, a clock in microseconds,
callback scheduling, and optional generator-based processes.  Everything in
the network/host/hardware substrates builds on :class:`Simulator`.
"""

from .kernel import Event, Simulator
from .process import Process
from .queues import FifoQueue, QueueStats
from .recorder import (
    LatencyRecorder,
    PeriodicSampler,
    TimeSeries,
    bucket_mean_series,
    bucket_rate_series,
    percentile,
    percentiles,
)
from .rng import RngStreams

__all__ = [
    "Event",
    "Simulator",
    "Process",
    "FifoQueue",
    "QueueStats",
    "LatencyRecorder",
    "PeriodicSampler",
    "TimeSeries",
    "bucket_mean_series",
    "bucket_rate_series",
    "percentile",
    "percentiles",
    "RngStreams",
]
