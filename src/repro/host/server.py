"""Server models with calibrated wall- and package-power.

Three concrete servers from the paper:

* ``make_i7_server``      — Intel Core i7-6700K, 4 cores @ 4GHz (§4.1), the
  platform of all the §4 power/throughput sweeps.
* ``make_xeon_2637_server`` — single-socket Xeon E5-2637 v4 (§5.4), idle 83W.
* ``make_xeon_2660_server`` — dual-socket Xeon E5-2660 v4 (§7), the RAPL
  characterization platform (56W idle / 91W one core / 134W full load).

A server's **wall power** is platform power (CPU + board, from its power
model) + NIC power + any installed accelerator cards.  **Package power**
(read by RAPL) is the platform part split across sockets.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .. import calibration as cal
from ..errors import ConfigurationError
from ..sim import Simulator
from ..net.node import Node
from .cpu import CpuAccount
from .nic import Nic, NIC_INTEL_X520, NIC_MELLANOX_CX311A
from .rapl import RaplDomain, RaplReader


class SingleSocketAlphaModel:
    """P(u) = idle + (peak - idle) * u**alpha on one package.

    alpha < 1 reproduces the "power jumps at low utilization" behaviour the
    paper observes on both the i7 (§4.2, implied by the 80Kpps crossover)
    and the Xeon (§7 explicitly).
    """

    def __init__(self, idle_w: float, peak_w: float, alpha: float):
        if peak_w < idle_w:
            raise ConfigurationError("peak_w must be >= idle_w")
        if alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        self.idle_w = idle_w
        self.peak_w = peak_w
        self.alpha = alpha

    @property
    def sockets(self) -> int:
        return 1

    def platform_power_w(self, cpu: CpuAccount) -> float:
        u = cpu.utilization
        return self.idle_w + (self.peak_w - self.idle_w) * (u ** self.alpha)

    def socket_power_w(self, cpu: CpuAccount, socket: int) -> float:
        if socket != 0:
            raise ConfigurationError("single-socket model has only socket 0")
        return self.platform_power_w(cpu)


class DualSocketXeonModel:
    """§7 piecewise model for the dual E5-2660 v4 box.

    Anchors (all from §7): idle 56W split evenly; first active core jumps to
    91W at full load and 86W at 10% load (activation = 30 + 5*u); each extra
    active core adds (134 - 91) / 27 ≈ 1.59W at full utilization.  The
    activation cost lands on *both* sockets almost equally ("Not only the
    power consumption of the socket with the running core increases, but
    also of the second socket, almost equally").
    """

    def __init__(self) -> None:
        self.idle_w = cal.XEON_2660_IDLE_W
        self.one_core_w = cal.XEON_2660_ONE_CORE_W
        self.full_w = cal.XEON_2660_FULL_LOAD_W
        total_cores = cal.XEON_2660_SOCKETS * cal.XEON_2660_CORES_PER_SOCKET
        # 30W fixed activation + 5W scaling with first-core utilization:
        # 10% -> 86W, 100% -> 91W (§7 anchors).
        self._activation_base_w = (
            cal.XEON_2660_ONE_CORE_10PCT_W - cal.XEON_2660_IDLE_W
        ) - 0.10 * self._activation_slope()
        self._extra_core_w = (self.full_w - self.one_core_w) / (total_cores - 1)

    @staticmethod
    def _activation_slope() -> float:
        # (91 - 86) / (1.0 - 0.1) ≈ 5.56 W per unit first-core utilization
        return (cal.XEON_2660_ONE_CORE_W - cal.XEON_2660_ONE_CORE_10PCT_W) / 0.9

    @property
    def sockets(self) -> int:
        return cal.XEON_2660_SOCKETS

    def platform_power_w(self, cpu: CpuAccount) -> float:
        active = cpu.active_cores
        if active <= 0:
            return self.idle_w
        # Utilization of the "first" core: the busiest possible packing.
        first_util = min(1.0, cpu.busy_cores)
        power = self.idle_w + self._activation_base_w + self._activation_slope() * first_util
        if active > 1:
            extra = active - 1.0
            # extra cores cost ~1.6W each at full utilization, scaled by the
            # average utilization of the additional cores.
            if active > 1e-9:
                avg_extra_util = max(0.0, cpu.busy_cores - first_util) / extra if extra > 0 else 0.0
            else:
                avg_extra_util = 0.0
            power += extra * self._extra_core_w * max(0.25, min(1.0, avg_extra_util))
        return power

    def socket_power_w(self, cpu: CpuAccount, socket: int) -> float:
        if socket not in (0, 1):
            raise ConfigurationError("dual-socket model has sockets 0 and 1")
        # §7: activation splits almost evenly; we use 55/45 toward the socket
        # hosting the running core.
        total = self.platform_power_w(cpu)
        idle_share = self.idle_w / 2.0
        dynamic = total - self.idle_w
        share = 0.55 if socket == 0 else 0.45
        return idle_share + dynamic * share


class Server(Node):
    """A server: CPU account + power model + NIC + accelerator cards.

    The server is also a network :class:`Node` so DES applications can be
    hosted on it; packet handling is delegated to a registered handler
    (usually the software application or the NIC driver).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        power_model,
        cores: int,
        nic: Optional[Nic] = None,
    ):
        super().__init__(sim, name)
        self.power_model = power_model
        self.cpu = CpuAccount(cores)
        self.nic = nic
        self._cards: List[Callable[[], float]] = []
        self._nic_utilization = 0.0
        self._packet_handler: Optional[Callable] = None
        self._rapl: Optional[RaplReader] = None

    # -- composition -----------------------------------------------------

    def install_card(self, power_probe: Callable[[], float]) -> None:
        """Install an accelerator card (e.g. a NetFPGA) whose power is added
        to the wall figure.  §4.2: 'the NIC is taken out of the server for
        LaKe's evaluation, as LaKe replaces it' — callers model that by
        constructing the server with ``nic=None``."""
        self._cards.append(power_probe)

    def set_nic_utilization(self, utilization: float) -> None:
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("NIC utilization outside [0,1]")
        self._nic_utilization = utilization

    def set_packet_handler(self, handler: Callable) -> None:
        self._packet_handler = handler

    def receive(self, packet) -> None:
        # hot path: Node.receive inlined
        self.rx_packets += 1
        handler = self._packet_handler
        if handler is not None:
            handler(packet)

    # -- power -------------------------------------------------------------

    def platform_power_w(self) -> float:
        """CPU + board power (what RAPL approximately covers)."""
        return self.power_model.platform_power_w(self.cpu)

    def wall_power_w(self) -> float:
        """What the SHW 3A meter at the socket would read (§4.1)."""
        power = self.platform_power_w()
        if self.nic is not None:
            power += self.nic.power_w(self._nic_utilization)
        for probe in self._cards:
            power += probe()
        return power

    def socket_power_w(self, socket: int) -> float:
        return self.power_model.socket_power_w(self.cpu, socket)

    # -- RAPL -------------------------------------------------------------

    def start_rapl(self, update_interval_us: float = 1_000.0) -> RaplReader:
        """Start the RAPL energy-counter integration for this server."""
        probes: Dict[RaplDomain, Callable[[], float]] = {
            RaplDomain.PACKAGE_0: lambda: self.socket_power_w(0)
        }
        if self.power_model.sockets > 1:
            probes[RaplDomain.PACKAGE_1] = lambda: self.socket_power_w(1)
        self._rapl = RaplReader(self.sim, probes, update_interval_us)
        return self._rapl

    @property
    def rapl(self) -> RaplReader:
        if self._rapl is None:
            raise ConfigurationError(f"RAPL not started on {self.name!r}")
        return self._rapl


# ---------------------------------------------------------------------------
# Factory helpers for the paper's three platforms.
# ---------------------------------------------------------------------------


def make_i7_server(
    sim: Simulator,
    name: str = "i7",
    nic: Optional[Nic] = NIC_MELLANOX_CX311A,
) -> Server:
    """The §4 base platform: i7-6700K, 39W idle with its NIC (§4.2), which
    puts the bare platform at 36W idle / 112W peak.  Build with ``nic=None``
    when a NetFPGA card replaces the NIC (the LaKe setup)."""
    model = SingleSocketAlphaModel(
        idle_w=cal.I7_IDLE_NO_NIC_W,
        peak_w=cal.I7_MEMCACHED_PEAK_W - cal.NIC_MELLANOX_CX311A_IDLE_W,
        alpha=nic.host_power_alpha if nic is not None else cal.MEMCACHED_POWER_ALPHA_MELLANOX,
    )
    return Server(sim, name, model, cores=cal.I7_6700K.cores, nic=nic)


def make_xeon_2637_server(sim: Simulator, name: str = "xeon-2637") -> Server:
    """§5.4 comparison platform: idle 83W without a NIC."""
    model = SingleSocketAlphaModel(
        idle_w=cal.XEON_E5_2637.idle_w,
        peak_w=cal.XEON_E5_2637.peak_w,
        alpha=0.6,
    )
    return Server(sim, name, model, cores=cal.XEON_E5_2637.cores, nic=None)


def make_xeon_2660_server(sim: Simulator, name: str = "xeon-2660") -> Server:
    """§7 RAPL characterization platform (dual E5-2660 v4)."""
    model = DualSocketXeonModel()
    return Server(
        sim,
        name,
        model,
        cores=cal.XEON_2660_SOCKETS * cal.XEON_2660_CORES_PER_SOCKET,
        nic=None,
    )
