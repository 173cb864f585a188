"""RAPL (Running Average Power Limit) counter model.

The paper reads RAPL both to characterize the Xeon server (§7) and as the
input signal of the host-controlled on-demand controller (§9.1: "We also
monitor the end-host's power consumption using running average power limit
(RAPL)").  Real RAPL exposes monotonically increasing energy counters per
package domain; power is obtained by differencing two reads.  We reproduce
that interface: :class:`RaplReader` integrates the server's modeled package
power into energy counters, and callers difference them.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from ..errors import PowerModelError
from ..units import to_seconds
from ..sim import Simulator


class RaplDomain(enum.Enum):
    """RAPL measurement domains (subset used by the paper)."""

    PACKAGE_0 = "package-0"
    PACKAGE_1 = "package-1"


class RaplReader:
    """Integrates per-domain power into RAPL-style energy counters.

    ``power_probes`` maps a domain to a zero-argument callable returning the
    domain's current power in watts (supplied by the server model).  The
    reader must be *advanced* (it samples on a simulator timer) before reads
    reflect recent activity — like real RAPL's update granularity.
    """

    def __init__(
        self,
        sim: Simulator,
        power_probes: Dict[RaplDomain, Callable[[], float]],
        update_interval_us: float = 1_000.0,
    ):
        if not power_probes:
            raise PowerModelError("RaplReader needs at least one domain probe")
        self._sim = sim
        self._probes = dict(power_probes)
        self._energy_j: Dict[RaplDomain, float] = {d: 0.0 for d in power_probes}
        self._last_power: Dict[RaplDomain, float] = {
            d: probe() for d, probe in power_probes.items()
        }
        self._last_update_us = sim.now
        self._handle = sim.call_every(update_interval_us, self._update)

    def _update(self) -> None:
        dt_s = to_seconds(self._sim.now - self._last_update_us)
        for domain, probe in self._probes.items():
            power = probe()
            # trapezoid between the last sampled power and the current one
            self._energy_j[domain] += 0.5 * (power + self._last_power[domain]) * dt_s
            self._last_power[domain] = power
        self._last_update_us = self._sim.now

    def energy_j(self, domain: RaplDomain) -> float:
        """Monotonic energy counter for ``domain`` (joules)."""
        try:
            return self._energy_j[domain]
        except KeyError:
            raise PowerModelError(f"domain {domain} not instrumented") from None

    def domains(self):
        return list(self._probes)

    def stop(self) -> None:
        self._handle.cancel()


class RaplPowerEstimator:
    """Differences two RAPL reads to estimate average power over a window —
    exactly what the host controller does every control period."""

    def __init__(self, reader: RaplReader, domain: RaplDomain, sim: Simulator):
        self._reader = reader
        self._domain = domain
        self._sim = sim
        self._last_energy: Optional[float] = None
        self._last_time_us: Optional[float] = None

    def read_power_w(self) -> Optional[float]:
        """Average power since the previous call; None on the first call."""
        energy = self._reader.energy_j(self._domain)
        now = self._sim.now
        result = None
        if self._last_energy is not None and now > self._last_time_us:
            result = (energy - self._last_energy) / to_seconds(now - self._last_time_us)
        self._last_energy = energy
        self._last_time_us = now
        return result
