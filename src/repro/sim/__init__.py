"""Discrete-event simulation kernel.

The kernel is deliberately small: an event heap, a clock in microseconds,
and callback scheduling on two tiers (cancellable events and fast calls,
which also carry every periodic loop).  Everything in the
network/host/hardware substrates builds on :class:`Simulator`.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".kernel": ("Event", "Simulator"),
        ".queues": ("FifoQueue", "QueueStats"),
        ".recorder": (
            "LatencyRecorder",
            "PeriodicSampler",
            "TimeSeries",
            "bucket_mean_series",
            "bucket_rate_series",
            "percentile",
            "percentiles",
        ),
        ".rng": ("RngStreams",),
    },
)

__all__ = [
    "Event",
    "Simulator",
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
