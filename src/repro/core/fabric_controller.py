"""The §9.1 *centralized* controller at datacenter scale.

§9.1 sketches, beyond the host- and network-controlled designs, a
centralized controller: an orchestrator that reads traffic counters from
the switches and decides fleet-wide where work should run.  At single-ToR
scale that collapses into :class:`PaxosShiftController`; the interesting
version needs a fabric.  :class:`FabricController` is that version: it
reads per-(class, logical-dst) counters from every ToR via the spine
(:meth:`repro.net.topology.Fabric.rack_logical_counts`) and per-host
served rates from the dispatch routers, and issues two kinds of decision:

* **placement shifts** — per-host software<->hardware moves through each
  host's :class:`OnDemandService`, driven by the host's served rate
  against its device's thresholds (the network-controlled policy, but
  decided centrally for the whole fleet);
* **shard steering** — moving a key shard from a sustained-hot host to
  the coldest eligible host by updating every switch's
  :class:`~repro.net.classifier.KeyShardRouter` in lock-step
  (:class:`~repro.net.classifier.RouterFleet`).

Cross-rack steering is deliberately more conservative than same-rack
steering: a cross-rack move puts the shard's traffic on the oversubscribed
uplinks for good, so the hot host must sustain its overload for
``cross_rack_sustain_us`` (versus ``same_rack_sustain_us`` for a move
that stays inside the rack) before the controller commits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..net.classifier import RouterFleet
from ..net.packet import TrafficClass
from ..sim import Simulator, TimeSeries
from ..units import msec, sec
from .controller import ShiftController
from .ondemand import OnDemandService
from .window import SlidingWindowRate

#: Fleet-level controller families a ``ScenarioSpec.fabric_controller``
#: may name (registered beside CONTROLLER_KINDS / PAXOS_CONTROLLER_KINDS).
FABRIC_CONTROLLER_KINDS = ("fabric",)


@dataclass(frozen=True)
class FabricControllerConfig:
    """Thresholds and pacing for the centralized fabric controller.

    ``shift_up_pps``/``shift_down_pps`` default to each host's own device
    thresholds (passed per placement); set them to override fleet-wide.
    """

    hot_host_pps: float = 20_000.0
    cold_host_pps: float = 10_000.0
    shift_up_pps: Optional[float] = None
    shift_down_pps: Optional[float] = None
    window_us: float = sec(0.5)
    tick_us: float = msec(100.0)
    same_rack_sustain_us: float = sec(0.3)
    cross_rack_sustain_us: float = sec(0.9)
    max_steers: int = 8

    def __post_init__(self):
        if self.hot_host_pps <= self.cold_host_pps:
            raise ConfigurationError("hot_host_pps must exceed cold_host_pps")
        if self.shift_up_pps is not None and self.shift_down_pps is not None:
            if self.shift_up_pps <= self.shift_down_pps:
                raise ConfigurationError("shift_up_pps must exceed shift_down_pps")
        if self.window_us <= 0 or self.tick_us <= 0:
            raise ConfigurationError("window_us and tick_us must be positive")
        if self.same_rack_sustain_us <= 0:
            raise ConfigurationError("same_rack_sustain_us must be positive")
        if self.cross_rack_sustain_us < self.same_rack_sustain_us:
            raise ConfigurationError(
                "cross_rack_sustain_us must be >= same_rack_sustain_us "
                "(cross-rack moves are the more disruptive ones)"
            )
        if self.max_steers < 0:
            raise ConfigurationError("max_steers must be >= 0")


@dataclass(frozen=True)
class HostPlacement:
    """One host as the fabric controller sees it."""

    host: str
    rack: str
    service: Optional[OnDemandService] = None
    #: device thresholds for the centralized placement policy; None on
    #: either disables placement control for this host.
    shift_up_pps: Optional[float] = None
    shift_down_pps: Optional[float] = None


@dataclass(frozen=True)
class SteerEvent:
    """One shard moved by the centralized controller."""

    time_us: float
    shard: int
    from_host: str
    to_host: str
    from_rack: str
    to_rack: str

    @property
    def cross_rack(self) -> bool:
        return self.from_rack != self.to_rack


class FabricController(ShiftController):
    """Centralized fleet orchestrator over a leaf-spine fabric."""

    kind = "fabric"

    def __init__(
        self,
        sim: Simulator,
        fabric,
        traffic_class: TrafficClass,
        logical_dst: str,
        placements: Sequence[HostPlacement],
        fleet: Optional[RouterFleet] = None,
        config: Optional[FabricControllerConfig] = None,
    ):
        if not placements:
            raise ConfigurationError("fabric controller needs at least one host")
        self.sim = sim
        self.fabric = fabric
        self.traffic_class = traffic_class
        self.logical_dst = logical_dst
        self.placements: Dict[str, HostPlacement] = {
            p.host: p for p in placements
        }
        if len(self.placements) != len(placements):
            raise ConfigurationError("duplicate host in fabric placements")
        self.fleet = fleet
        self.config = config or FabricControllerConfig()
        self.rate_series = TimeSeries("fabricctl.rate")
        self.steers: List[SteerEvent] = []
        self._shift_times_us: List[float] = []
        self._fleet_window = SlidingWindowRate(self.config.window_us)
        self._host_windows: Dict[str, SlidingWindowRate] = {
            host: SlidingWindowRate(self.config.window_us)
            for host in self.placements
        }
        self._last_fleet_count = fabric.logical_count(traffic_class, logical_dst)
        self._last_per_host: Dict[str, int] = dict(
            fleet.per_host if fleet is not None else {}
        )
        #: first tick at which each host's rate crossed hot_host_pps and
        #: stayed there — the §9.1 "sustained" requirement per host.
        self._hot_since: Dict[str, float] = {}
        self._started_at = sim.now
        self._timer = sim.call_every(self.config.tick_us, self._tick)

    # -- introspection -----------------------------------------------------

    def shift_times_us(self) -> List[float]:
        """Placement shifts this controller caused (not steers)."""
        return list(self._shift_times_us)

    def steer_times_us(self) -> List[float]:
        return [s.time_us for s in self.steers]

    def host_rate_pps(self, host: str) -> float:
        return self._host_windows[host].rate_pps(self.sim.now)

    def rack_rates_pps(self) -> Dict[str, float]:
        """Served rate per rack (sum of its hosts' windows)."""
        now = self.sim.now
        rates: Dict[str, float] = {}
        for host, placement in self.placements.items():
            rates[placement.rack] = rates.get(placement.rack, 0.0) + (
                self._host_windows[host].rate_pps(now)
            )
        return rates

    # -- control loop ------------------------------------------------------

    def _tick(self) -> None:
        now = self.sim.now
        fleet_count = self.fabric.logical_count(self.traffic_class, self.logical_dst)
        self._fleet_window.observe(now, fleet_count - self._last_fleet_count)
        self._last_fleet_count = fleet_count
        self.rate_series.record(now, self._fleet_window.rate_pps(now))
        if self.fleet is not None:
            per_host = self.fleet.per_host
            for host, window in self._host_windows.items():
                count = per_host.get(host, 0)
                window.observe(now, count - self._last_per_host.get(host, 0))
                self._last_per_host[host] = count
        if now - self._started_at < self.config.window_us:
            return
        self._drive_placements(now)
        self._maybe_steer(now)

    def _drive_placements(self, now: float) -> None:
        for host, placement in self.placements.items():
            service = placement.service
            if service is None:
                continue
            up = (
                self.config.shift_up_pps
                if self.config.shift_up_pps is not None
                else placement.shift_up_pps
            )
            down = (
                self.config.shift_down_pps
                if self.config.shift_down_pps is not None
                else placement.shift_down_pps
            )
            if up is None or down is None:
                continue
            rate = self._host_windows[host].rate_pps(now)
            if not service.in_hardware and not service.warming and rate >= up:
                if service.shift_to_hardware(
                    f"fabricctl: {host} at {rate:.0f} pps >= {up:.0f}"
                ):
                    self._shift_times_us.append(now)
            elif service.in_hardware and rate <= down:
                if service.shift_to_software(
                    f"fabricctl: {host} at {rate:.0f} pps <= {down:.0f}"
                ):
                    self._shift_times_us.append(now)

    def _maybe_steer(self, now: float) -> None:
        fleet = self.fleet
        if fleet is None or len(self.steers) >= self.config.max_steers:
            return
        rates = {
            host: window.rate_pps(now)
            for host, window in self._host_windows.items()
        }
        # track per-host sustained overload
        for host, rate in rates.items():
            if rate >= self.config.hot_host_pps:
                self._hot_since.setdefault(host, now)
            else:
                self._hot_since.pop(host, None)
        # hottest sustained-hot host that can give up a shard without
        # going dark (keeps at least one)
        candidates = [
            host
            for host in self._hot_since
            if len(fleet.shards_of(host)) >= 2
        ]
        if not candidates:
            return
        hot = max(candidates, key=lambda h: (rates[h], h))
        hot_rack = self.placements[hot].rack
        sustained_us = now - self._hot_since[hot]
        cold_hosts = [
            host
            for host, rate in rates.items()
            if host != hot and rate <= self.config.cold_host_pps
        ]
        if not cold_hosts:
            return
        # prefer a target inside the hot host's rack (cheaper move, shorter
        # sustain requirement); fall back to the coldest host fleet-wide.
        same_rack = [
            h for h in cold_hosts if self.placements[h].rack == hot_rack
        ]
        if same_rack and sustained_us >= self.config.same_rack_sustain_us:
            target = min(same_rack, key=lambda h: (rates[h], h))
        elif sustained_us >= self.config.cross_rack_sustain_us:
            target = min(cold_hosts, key=lambda h: (rates[h], h))
        else:
            return
        shard = max(fleet.shards_of(hot))
        fleet.reassign(shard, target)
        self.steers.append(
            SteerEvent(
                time_us=now,
                shard=shard,
                from_host=hot,
                to_host=target,
                from_rack=hot_rack,
                to_rack=self.placements[target].rack,
            )
        )
        # require a fresh sustain before the next move (anti-flap)
        self._hot_since.pop(hot, None)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
