"""Unit conventions and conversion helpers.

Conventions used throughout the package:

* **time**: microseconds (``float``) inside the discrete-event simulator;
  seconds for steady-state/analytic interfaces.  Helpers below convert.
* **rate**: packets (queries, messages) per second, as a plain float.
  ``kpps``/``mpps`` helpers make call sites read like the paper's figures.
* **power**: watts.
* **energy**: joules.

Keeping conversions in one module avoids the classic systems-code bug of
mixing milli/micro factors across modules.
"""

from __future__ import annotations

from .errors import ConfigurationError

# ---------------------------------------------------------------------------
# Time.
# ---------------------------------------------------------------------------

USEC = 1.0
MSEC = 1_000.0
SEC = 1_000_000.0


def usec(value: float) -> float:
    """Microseconds expressed in simulator time units (identity)."""
    return value * USEC


def msec(value: float) -> float:
    """Milliseconds expressed in simulator time units (microseconds)."""
    return value * MSEC


def sec(value: float) -> float:
    """Seconds expressed in simulator time units (microseconds)."""
    return value * SEC


def to_seconds(time_us: float) -> float:
    """Convert simulator time (microseconds) to seconds."""
    return time_us / SEC


def to_msec(time_us: float) -> float:
    """Convert simulator time (microseconds) to milliseconds."""
    return time_us / MSEC


# ---------------------------------------------------------------------------
# Rates.
# ---------------------------------------------------------------------------


def kpps(value: float) -> float:
    """Kilopackets-per-second expressed in packets/second."""
    return value * 1_000.0


def mpps(value: float) -> float:
    """Megapackets-per-second expressed in packets/second."""
    return value * 1_000_000.0


def to_kpps(rate_pps: float) -> float:
    """Convert packets/second to Kpps (as plotted on the paper's x axes)."""
    return rate_pps / 1_000.0


def interarrival_us(rate_pps: float) -> float:
    """Mean interarrival time in microseconds for a given rate.

    Raises :class:`ConfigurationError` for a rate of 0 or below, which has
    no finite interarrival time.
    """
    if rate_pps <= 0.0:
        raise ConfigurationError(f"rate must be positive, got {rate_pps!r}")
    return SEC / rate_pps


# ---------------------------------------------------------------------------
# Data sizes.
# ---------------------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def gbit_per_s(value: float) -> float:
    """Gigabits/second expressed in bits/second."""
    return value * 1e9


def line_rate_pps(link_bps: float, frame_bytes: int) -> float:
    """Packets/second achievable on a link for a given frame size.

    Includes the Ethernet per-frame overhead (preamble 8B + IFG 12B) that a
    10GE device pays on the wire; this is why 10GE small-packet line rate is
    ~14.88 Mpps at 64B and ~13 Mpps at the ~70B memcached query size the
    paper quotes for LaKe.
    """
    if frame_bytes <= 0:
        raise ConfigurationError(
            f"frame_bytes must be positive, got {frame_bytes!r}"
        )
    wire_bytes = frame_bytes + 8 + 12
    return link_bps / (wire_bytes * 8)
