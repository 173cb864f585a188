"""Centralized Paxos leader-shift controller (§9.2).

"We use a centralized controller to initiate the shift, depending on the
workload.  To actually implement the shift, the controller modifies switch
forwarding rules to send messages to the new leader."

The controller watches the PAXOS-class packet rate at the switch and moves
the leader between its software and hardware candidates through a
:class:`repro.apps.paxos.deployment.PaxosDeployment` (which rewrites the
forwarding rule and runs the new leader's takeover).  Shifts can also be
scheduled explicitly, which is how the Figure 7 experiment drives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .. import calibration as cal
from ..errors import ConfigurationError
from ..net.packet import TrafficClass
from ..net.switch import Switch
from ..sim import Simulator, TimeSeries
from ..units import msec, sec
from .controller import ShiftController
from .window import SlidingWindowRate


@dataclass(frozen=True)
class PaxosControllerConfig:
    up_rate_pps: float = cal.NETCTL_PAXOS_UP_PPS
    down_rate_pps: float = cal.NETCTL_PAXOS_DOWN_PPS
    window_us: float = sec(cal.CONTROLLER_SUSTAIN_S)
    tick_us: float = msec(100.0)

    def __post_init__(self):
        if self.up_rate_pps <= self.down_rate_pps:
            raise ConfigurationError("up_rate must exceed down_rate")


class PaxosShiftController(ShiftController):
    """Moves the Paxos leader between software and hardware nodes.

    With ``automatic=True`` (kind ``"rate"``) the controller watches the
    group's packet rate at the switch and shifts on the §4.3 thresholds;
    otherwise (kind ``"schedule"``) it only executes shifts scheduled via
    :meth:`schedule_shift`.  ``logical_dst`` scopes the watched rate to one
    consensus group's leader-bound traffic (the switch's per-logical-
    destination counters), so several groups behind the same ToR shift
    independently; without it the controller reads the switch-wide PAXOS
    class counter (the single-group Figure 7 setup).
    """

    def __init__(
        self,
        sim: Simulator,
        switch: Switch,
        deployment,
        software_node: str,
        hardware_node: str,
        config: Optional[PaxosControllerConfig] = None,
        automatic: bool = True,
        logical_dst: Optional[str] = None,
    ):
        self.sim = sim
        self.switch = switch
        self.deployment = deployment
        self.software_node = software_node
        self.hardware_node = hardware_node
        self.config = config or PaxosControllerConfig()
        self.kind = "rate" if automatic else "schedule"
        self.logical_dst = logical_dst
        self._shift_times_us: List[float] = []
        self.rate_series = TimeSeries("paxosctl.rate")
        self._window = SlidingWindowRate(self.config.window_us)
        self._last_count = self._read_counter()
        self._started_at = sim.now
        self._timer = None
        if automatic:
            self._timer = sim.call_every(self.config.tick_us, self._tick)

    def _read_counter(self) -> int:
        if self.logical_dst is not None:
            return self.switch.logical_count(TrafficClass.PAXOS, self.logical_dst)
        return self.switch.class_counters[TrafficClass.PAXOS]

    def shift_times_us(self) -> List[float]:
        return list(self._shift_times_us)

    # -- manual shifts (the Figure 7 schedule) --------------------------------

    def shift_to_hardware(self) -> None:
        if self.deployment.active_leader_node != self.hardware_node:
            self.deployment.activate_leader(self.hardware_node)
            self._shift_times_us.append(self.sim.now)

    def shift_to_software(self) -> None:
        if self.deployment.active_leader_node != self.software_node:
            self.deployment.activate_leader(self.software_node)
            self._shift_times_us.append(self.sim.now)

    def schedule_shift(self, at_us: float, to_hardware: bool) -> None:
        """Pre-plan a shift (used by the Figure 7 runner)."""
        action = self.shift_to_hardware if to_hardware else self.shift_to_software
        self.sim.schedule_at(at_us, action, name="paxosctl.scheduled-shift")

    # -- automatic control --------------------------------------------------------

    def _tick(self) -> None:
        now = self.sim.now
        count = self._read_counter()
        self._window.observe(now, count - self._last_count)
        self._last_count = count
        rate = self._window.rate_pps(now)
        self.rate_series.record(now, rate)
        if now - self._started_at < self.config.window_us:
            return
        in_hardware = self.deployment.active_leader_node == self.hardware_node
        if not in_hardware and rate >= self.config.up_rate_pps:
            self.shift_to_hardware()
            self._started_at = now
        elif in_hardware and rate <= self.config.down_rate_pps:
            self.shift_to_software()
            self._started_at = now

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
