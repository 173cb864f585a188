"""NetFPGA SUME platform model with module-level power accounting.

§5.1 frames the power knobs an operator has once the platform (NetFPGA) and
device (Virtex-7 690T) are fixed: **clock gating**, **power gating** (not
supported by Virtex-7; the paper compares against eliminating modules from
the design), and **deactivating/holding modules in reset**.  This module
implements those semantics over a set of :class:`FpgaModule` objects plus
the external memories of :mod:`repro.hw.memory`.

The platform produces the exact bar set of Figure 4 via
:func:`repro.experiments.figures.figure4`.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from .. import calibration as cal
from ..errors import ConfigurationError
from .memory import DramChannel, SramBank


class ModuleState(enum.Enum):
    ACTIVE = "active"
    CLOCK_GATED = "clock-gated"
    POWER_GATED = "power-gated"   # unsupported on Virtex-7 (§5.1)
    REMOVED = "removed"           # eliminated from the design


class PlatformMode(enum.Enum):
    """Whether the card sits in a host (PCIe powered) or runs standalone
    with its own PSU/management (§4.3 discusses both)."""

    IN_SERVER = "in-server"
    STANDALONE = "standalone"


#: Fraction of a logic module's power saved by clock gating.  Calibrated so
#: clock-gating all of LaKe's logic (2.2W) saves 0.8W — §5.1: "Clock gating
#: to the LaKe module and the PEs earns less than 1W".
CLOCK_GATING_SAVING_FRACTION = cal.CLOCK_GATING_SAVING_W / cal.LAKE_LOGIC_TOTAL_W


class FpgaModule:
    """A logic module on the FPGA (a PE, a classifier, an app core)."""

    def __init__(self, name: str, active_power_w: float, supports_clock_gating: bool = True):
        if active_power_w < 0:
            raise ConfigurationError("module power must be >= 0")
        self.name = name
        self.active_power_w = active_power_w
        self.supports_clock_gating = supports_clock_gating
        self.state = ModuleState.ACTIVE

    def power_w(self) -> float:
        if self.state is ModuleState.ACTIVE:
            return self.active_power_w
        if self.state is ModuleState.CLOCK_GATED:
            return self.active_power_w * (1.0 - CLOCK_GATING_SAVING_FRACTION)
        return 0.0

    def clock_gate(self) -> None:
        if not self.supports_clock_gating:
            raise ConfigurationError(f"module {self.name!r} cannot be clock gated")
        if self.state is ModuleState.REMOVED:
            raise ConfigurationError(f"module {self.name!r} was removed")
        self.state = ModuleState.CLOCK_GATED

    def activate(self) -> None:
        if self.state is ModuleState.REMOVED:
            raise ConfigurationError(f"module {self.name!r} was removed")
        self.state = ModuleState.ACTIVE

    def remove(self) -> None:
        self.state = ModuleState.REMOVED

    @property
    def usable(self) -> bool:
        return self.state is ModuleState.ACTIVE


class NetFpgaSume:
    """The NetFPGA SUME card: shell + app logic modules + memories.

    Construction helpers below build the paper's three designs.  ``power_w``
    follows Figure 4's additive structure:

        shell + Σ logic modules + Σ memories + dynamic(load) [+ PSU if standalone]

    Dynamic power scales linearly with utilization up to the design's
    ``dynamic_max_w`` (§4.3: ≤1.2W for P4xos at maximum load).
    """

    SUPPORTS_POWER_GATING = False  # Virtex-7 (§5.1)

    def __init__(
        self,
        design: str,
        mode: PlatformMode = PlatformMode.IN_SERVER,
        shell_power_w: float = cal.NETFPGA_SHELL_W,
        dynamic_max_w: float = cal.FPGA_DYNAMIC_MAX_W,
    ):
        self.design = design
        self.mode = mode
        self.shell_power_w = shell_power_w
        self.dynamic_max_w = dynamic_max_w
        self.modules: Dict[str, FpgaModule] = {}
        self.dram: Optional[DramChannel] = None
        self.sram: Optional[SramBank] = None
        self.utilization = 0.0

    # -- construction ------------------------------------------------------

    def add_module(self, module: FpgaModule) -> FpgaModule:
        if module.name in self.modules:
            raise ConfigurationError(f"duplicate module {module.name!r}")
        self.modules[module.name] = module
        return module

    def attach_dram(self) -> DramChannel:
        self.dram = DramChannel()
        return self.dram

    def attach_sram(self) -> SramBank:
        self.sram = SramBank()
        return self.sram

    # -- §5.1 power-saving controls -----------------------------------------

    def power_gate_module(self, name: str) -> None:
        """Virtex-7 does not support power gating; the paper's equivalent is
        removing the module from the design (:meth:`remove_module`)."""
        if not self.SUPPORTS_POWER_GATING:
            raise ConfigurationError(
                "Virtex-7 does not support power gating (§5.1); "
                "use remove_module to model elimination from the design"
            )

    def remove_module(self, name: str) -> None:
        self._module(name).remove()

    def activate_module(self, name: str) -> None:
        self._module(name).activate()

    def clock_gate_all_logic(self) -> None:
        """Gate every app logic module (the §9.2 'inactive but programmed'
        configuration, together with memories in reset)."""
        for module in self.modules.values():
            if module.state is not ModuleState.REMOVED:
                module.clock_gate()

    def activate_all_logic(self) -> None:
        for module in self.modules.values():
            if module.state is not ModuleState.REMOVED:
                module.activate()

    def reset_memories(self) -> None:
        for memory in self._memories():
            memory.hold_in_reset()

    def activate_memories(self) -> None:
        for memory in self._memories():
            memory.activate()

    def remove_memories(self) -> None:
        for memory in self._memories():
            memory.remove()

    def set_utilization(self, utilization: float) -> None:
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization outside [0,1]")
        self.utilization = utilization

    # -- power -------------------------------------------------------------

    def power_w(self) -> float:
        power = self.shell_power_w
        power += sum(m.power_w() for m in self.modules.values())
        power += sum(mem.power_w() for mem in self._memories())
        power += self.dynamic_max_w * self.utilization
        if self.mode is PlatformMode.STANDALONE:
            power += cal.STANDALONE_PSU_OVERHEAD_W
        return power

    def logic_power_w(self) -> float:
        return sum(m.power_w() for m in self.modules.values())

    def memory_power_w(self) -> float:
        return sum(mem.power_w() for mem in self._memories())

    # -- internals -----------------------------------------------------------

    def _module(self, name: str) -> FpgaModule:
        try:
            return self.modules[name]
        except KeyError:
            raise ConfigurationError(f"unknown module {name!r}") from None

    def _memories(self) -> List:
        return [m for m in (self.dram, self.sram) if m is not None]


# ---------------------------------------------------------------------------
# The paper's three designs (§3) + the reference NIC.
# ---------------------------------------------------------------------------


def make_reference_nic(mode: PlatformMode = PlatformMode.IN_SERVER) -> NetFpgaSume:
    """The NetFPGA reference NIC: shell only, no app logic (§5.2 baseline)."""
    return NetFpgaSume(design="reference-nic", mode=mode, dynamic_max_w=0.3)


def make_lake_fpga(
    pe_count: int = cal.LAKE_DEFAULT_PES,
    with_external_memories: bool = True,
    mode: PlatformMode = PlatformMode.IN_SERVER,
) -> NetFpgaSume:
    """LaKe (§3.1): classifier + interconnect + N PEs + DRAM/SRAM."""
    if pe_count < 0 or pe_count > 16:
        raise ConfigurationError(f"pe_count={pe_count} outside supported range 0..16")
    card = NetFpgaSume(design="lake", mode=mode, dynamic_max_w=cal.FPGA_DYNAMIC_MAX_W)
    card.add_module(
        FpgaModule("classifier+interconnect", cal.LAKE_CLASSIFIER_INTERCONNECT_W)
    )
    for i in range(pe_count):
        card.add_module(FpgaModule(f"pe{i}", cal.LAKE_PE_W))
    if with_external_memories:
        card.attach_dram()
        card.attach_sram()
    return card


def make_p4xos_fpga(mode: PlatformMode = PlatformMode.IN_SERVER) -> NetFpgaSume:
    """P4xos (§3.2): single main logical core, on-chip memory only."""
    card = NetFpgaSume(design="p4xos", mode=mode, dynamic_max_w=cal.FPGA_DYNAMIC_MAX_W)
    card.add_module(FpgaModule("p4xos-core", cal.P4XOS_LOGIC_W))
    return card


def make_emu_dns_fpga(mode: PlatformMode = PlatformMode.IN_SERVER) -> NetFpgaSume:
    """Emu DNS (§3.3): main logical core + the packet classifier the paper
    added so the card can double as a NIC."""
    card = NetFpgaSume(design="emu-dns", mode=mode, dynamic_max_w=cal.EMU_DYNAMIC_MAX_W)
    card.add_module(FpgaModule("emu-dns-core", cal.EMU_DNS_LOGIC_W - 0.3))
    card.add_module(FpgaModule("classifier", 0.3))
    return card
