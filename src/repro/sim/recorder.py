"""Measurement recorders: time series and latency statistics.

These play the role of the paper's instrumentation — the SHW 3A wall power
meter sampled once a second, hardware throughput counters on the LaKe card,
and the Endace DAG card capturing per-packet latency (§4.1).

Storage is ``array('d')`` (one machine double per sample, no per-sample
object), and a run keeps each sample once.  :attr:`TimeSeries.times` and
:attr:`TimeSeries.values` are read-only views (:class:`ColumnView`) of
the two columns, not snapshots, so collecting a run copies no series;
the clients' response and decision time lists are such views of their
latency series.  The window reductions (:func:`bucket_rate_series`,
:func:`bucket_mean_series`) take time-ordered columns — every
:class:`TimeSeries` is, since :meth:`TimeSeries.record` rejects an
out-of-order sample — and find each window's bounds by bisection on the
same ``t // window_us`` binning a per-sample pass would use.  Every mean
adds its values with :func:`repro.floats.left_sum`, left to right, so the
same run reduces to the same bits on every supported Python.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import islice
from operator import gt
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..floats import left_sum
from ..units import SEC, to_seconds
from .kernel import Simulator


def percentile(
    values: Sequence[float], pct: float, presorted: bool = False
) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]) of ``values``.

    ``presorted=True`` skips the sort for callers holding an already-
    ordered snapshot (see :meth:`LatencyRecorder.sorted_samples` and
    :func:`percentiles`).
    """
    if not len(values):
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = values if presorted else sorted(values)
    if pct == 0.0:
        return ordered[0]
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentiles(values: Sequence[float], pcts: Sequence[float]) -> List[float]:
    """Several nearest-rank percentiles from **one** sort of ``values``.

    The reduction loops (sweep aggregation, figure rendering) extract
    p50+p99 from the same sample list; sorting once instead of once per
    percentile halves their dominant cost on large runs.
    """
    ordered = sorted(values)
    return [percentile(ordered, pct, presorted=True) for pct in pcts]


@dataclass
class Sample:
    """One (time, value) measurement."""

    time_us: float
    value: float


class ColumnView(SequenceABC):
    """A read-only view of one recorder column.

    ``len``, indexing and iteration read the live ``array('d')`` in place:
    nothing is copied, and a view taken mid-run sees later samples too.
    A slice is a copy (an ``array('d')``).
    """

    __slots__ = ("_column",)

    def __init__(self, column: array):
        self._column = column

    def __len__(self) -> int:
        return len(self._column)

    def __getitem__(self, index):
        return self._column[index]

    def __iter__(self) -> Iterator[float]:
        return iter(self._column)

    def __repr__(self) -> str:
        return f"ColumnView({self._column.tolist()!r})"


class TimeSeries:
    """An append-only (time, value) series with window queries.

    Used for power meters, throughput counters and controller telemetry.
    Backed by two ``array('d')`` columns: 8 bytes per sample per column,
    no per-sample boxing, and nothing else — readers get views, never a
    cached copy.
    """

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "series"):
        self.name = name
        self._times = array("d")
        self._values = array("d")

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time_us: float, value: float) -> None:
        """Append a sample; time must be non-decreasing."""
        if self._times and time_us < self._times[-1]:
            raise ConfigurationError(
                f"time series {self.name!r} got out-of-order sample"
            )
        self._times.append(time_us)
        self._values.append(value)

    @property
    def times(self) -> ColumnView:
        """The sample times, non-decreasing: a read-only view, no copy."""
        return ColumnView(self._times)

    @property
    def values(self) -> ColumnView:
        """The sample values, in time order: a read-only view, no copy."""
        return ColumnView(self._values)

    def last(self) -> Optional[Sample]:
        if not self._times:
            return None
        return Sample(self._times[-1], self._values[-1])

    def _window_bounds(self, start_us: float, end_us: float) -> Tuple[int, int]:
        """Index range [lo, hi) with start <= time < end (bisect, O(log n))."""
        lo = bisect_right(self._times, start_us - 1e-12)
        hi = bisect_right(self._times, end_us - 1e-12)
        return lo, hi

    def window(self, start_us: float, end_us: float) -> List[Sample]:
        """Samples with start <= time < end."""
        lo, hi = self._window_bounds(start_us, end_us)
        return [Sample(t, v) for t, v in zip(self._times[lo:hi], self._values[lo:hi])]

    def mean(self, start_us: Optional[float] = None, end_us: Optional[float] = None) -> float:
        """Arithmetic mean of samples in the window (whole series by default)."""
        if start_us is None and end_us is None:
            values: Sequence[float] = self._values
        else:
            lo, hi = self._window_bounds(
                start_us if start_us is not None else float("-inf"),
                end_us if end_us is not None else float("inf"),
            )
            # No Sample boxing on the reduction path — slice the column.
            values = self._values[lo:hi]
        if not len(values):
            raise ValueError(f"no samples in window for {self.name!r}")
        return left_sum(values) / len(values)

    def integrate_seconds(self) -> float:
        """Trapezoidal integral of value over time, time in **seconds**.

        Integrating a power (W) series yields energy in joules.
        """
        total = 0.0
        times, values = self._times, self._values
        for i in range(1, len(times)):
            dt = to_seconds(times[i] - times[i - 1])
            total += 0.5 * (values[i] + values[i - 1]) * dt
        return total


class LatencyRecorder:
    """Collects per-request latencies and reports distribution statistics.

    A standalone recorder keeps its samples in one ``array('d')``.  A
    recorder over a :class:`TimeSeries` (``series=``) keeps none of its
    own: :meth:`record` appends ``(time_us, latency_us)`` to the series,
    and the statistics read the series' value column, so a client's
    latency statistics and its latency timeline share one copy of every
    sample.  :meth:`reset` forgets the samples so far; over a series it
    leaves the series whole and reads only what comes after.

    The ascending view is maintained *incrementally* — appends since the
    last query are sorted on their own and merged into the cached run
    (two ascending runs: one Timsort merge pass), so append-mostly
    workloads never pay a full re-sort.
    """

    def __init__(self, name: str = "latency", series: Optional[TimeSeries] = None):
        self.name = name
        self._series = series
        self._samples = array("d") if series is None else series._values
        #: the first sample after the last reset
        self._start = 0
        # sorted-view cache: median()+p99() on the same snapshot cost one
        # sort, not two; _sorted_len marks how many samples it covers
        self._sorted: List[float] = []
        self._sorted_len = 0

    def __len__(self) -> int:
        return len(self._samples) - self._start

    def record(self, latency_us: float, time_us: Optional[float] = None) -> None:
        """Append one latency; a recorder over a series needs its
        ``time_us`` too."""
        if latency_us < 0:
            raise ConfigurationError("negative latency recorded")
        if self._series is None:
            self._samples.append(latency_us)
        else:
            self._series.record(time_us, latency_us)

    def extend(self, values: Sequence[float]) -> None:
        """Bulk append; all-or-nothing (no partial append on a bad value).
        Standalone recorders only: a series needs a time per sample."""
        if self._series is not None:
            raise ConfigurationError(
                f"{self.name!r} records into a series; use record()"
            )
        staged = array("d", values)
        if staged and min(staged) < 0:
            raise ConfigurationError("negative latency recorded")
        self._samples.extend(staged)

    def _recorded(self) -> Sequence[float]:
        """The samples since the last reset, in record order."""
        return self._samples[self._start:] if self._start else self._samples

    @property
    def samples(self) -> List[float]:
        return list(self._recorded())

    def sorted_samples(self) -> List[float]:
        """The samples in ascending order (cache merged incrementally)."""
        n = len(self._samples)
        if self._sorted_len != n:
            fresh = sorted(self._samples[self._sorted_len:])
            if self._sorted:
                fresh = self._sorted + fresh
                fresh.sort()  # two ascending runs -> single merge pass
            self._sorted = fresh
            self._sorted_len = n
        return self._sorted

    def mean(self) -> float:
        if not len(self):
            raise ValueError("no latency samples")
        return left_sum(self._recorded()) / len(self)

    def median(self) -> float:
        if not len(self):
            raise ValueError("percentile of empty sequence")
        return percentile(self.sorted_samples(), 50.0, presorted=True)

    def p99(self) -> float:
        if not len(self):
            raise ValueError("percentile of empty sequence")
        return percentile(self.sorted_samples(), 99.0, presorted=True)

    def reset(self) -> None:
        if self._series is None:
            del self._samples[:]
        self._start = self._sorted_len = len(self._samples)
        self._sorted = []


def _window_ends(
    times: Sequence[float], window_us: float, end_us: float
) -> Tuple[int, List[int]]:
    """Bisection bounds of every window over time-ordered ``times``.

    Returns ``(lo, ends)``: ``times[lo:ends[0]]`` fall in window 0 and
    ``times[ends[i - 1]:ends[i]]`` in window ``i``, for the
    ``int(end_us // window_us) + 1`` windows of ``[0, end_us]``.  A time
    ``t`` belongs to window ``t // window_us`` — the binning a per-sample
    pass would use — so times before 0 or past the last window fall in
    none.
    """
    if not window_us > 0:
        raise ConfigurationError("window must be positive")
    if any(map(gt, times, islice(times, 1, None))):
        raise ConfigurationError("window reductions need time-ordered samples")
    bin_of = lambda t: t // window_us  # noqa: E731
    lo = hi = bisect_left(times, 0, key=bin_of)
    ends = []
    for i in range(int(end_us // window_us) + 1):
        hi = bisect_left(times, i + 1, lo=hi, key=bin_of)
        ends.append(hi)
    return lo, ends


def bucket_rate_series(
    times_us: Sequence[float], window_us: float, end_us: float
) -> List[Tuple[float, float]]:
    """Convert time-ordered event timestamps into a (t_us, rate_pps) series.

    Used to turn client response timestamps into the throughput timelines
    of Figures 6 and 7 (and the rack-scale scenarios).
    """
    lo, ends = _window_ends(times_us, window_us, end_us)
    series = []
    for i, hi in enumerate(ends):
        series.append((i * window_us, (hi - lo) * SEC / window_us))
        lo = hi
    return series


def bucket_mean_series(
    times_us: Sequence[float],
    values: Sequence[float],
    window_us: float,
    end_us: float,
) -> List[Tuple[float, Optional[float]]]:
    """Average a time-ordered series into fixed windows (None when empty).

    ``times_us[i]`` is the time of ``values[i]``.  Each window adds its
    values left to right in series order — exactly the values, and the
    order, of a per-sample pass.
    """
    if len(times_us) != len(values):
        raise ConfigurationError(
            f"{len(times_us)} sample times for {len(values)} values"
        )
    lo, ends = _window_ends(times_us, window_us, end_us)
    series: List[Tuple[float, Optional[float]]] = []
    for i, hi in enumerate(ends):
        if hi > lo:
            mean = left_sum(values[lo:hi]) / (hi - lo)
            series.append((i * window_us, mean))
        else:
            series.append((i * window_us, None))
        lo = hi
    return series


class PeriodicSampler:
    """Samples a probe function periodically into a :class:`TimeSeries`.

    Mirrors the paper's once-a-second wall-power sampling (§4.1), but the
    interval is configurable so transition experiments (Figures 6/7) can
    sample at millisecond granularity.
    """

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], float],
        interval_us: float,
        name: str = "sampler",
    ):
        if not interval_us > 0:
            raise ConfigurationError("sampler interval must be positive")
        self.series = TimeSeries(name)
        self._probe = probe
        # Record an initial sample at t=now, then periodically.
        self.series.record(sim.now, probe())
        self._handle = sim.call_every(interval_us, self._tick)
        self._sim = sim

    def _tick(self) -> None:
        self.series.record(self._sim.now, self._probe())

    def stop(self) -> None:
        self._handle.cancel()
