"""Steady-state DNS models — the Figure 3(c) series.

NSD software (peaks at 956K req/s drawing ~2× Emu's power), Emu DNS in a
server (~48W nearly flat), and Emu standalone.  §4.4: "less than 200Kpps
are enough for the [software] power consumption to exceed the hardware
implementation."
"""

from __future__ import annotations

from typing import Dict

from .. import calibration as cal
from ..hw.fpga import PlatformMode, make_emu_dns_fpga
from .base import HardwareCardModel, SoftwareCurveModel, SteadyModel


def nsd_model() -> SoftwareCurveModel:
    """NSD on the i7 (§4.4)."""
    return SoftwareCurveModel(
        name="NSD (SW)",
        capacity_pps=cal.NSD_CAPACITY_PPS,
        idle_w=cal.I7_IDLE_W,
        peak_w=cal.NSD_PEAK_W,
        alpha=cal.NSD_POWER_ALPHA,
        latency_us=cal.NSD_MEDIAN_US,
    )


def emu_in_server_model() -> HardwareCardModel:
    """Emu DNS on NetFPGA inside the i7 host (§4.4: ~48W)."""
    card = make_emu_dns_fpga(mode=PlatformMode.IN_SERVER)
    return HardwareCardModel(
        name="Emu (HW)",
        capacity_pps=cal.EMU_DNS_CAPACITY_PPS,
        card_power_w=card.power_w,
        card_dynamic_max_w=cal.EMU_DYNAMIC_MAX_W,
        host_idle_w=cal.I7_IDLE_NO_NIC_W,
        latency_us=cal.EMU_DNS_MEDIAN_US,
    )


def emu_standalone_model() -> HardwareCardModel:
    """Emu DNS standalone ("Standalone" in Figure 3(c))."""
    card = make_emu_dns_fpga(mode=PlatformMode.STANDALONE)
    return HardwareCardModel(
        name="Emu standalone",
        capacity_pps=cal.EMU_DNS_CAPACITY_PPS,
        card_power_w=card.power_w,
        card_dynamic_max_w=cal.EMU_DYNAMIC_MAX_W,
        host_idle_w=0.0,
        latency_us=cal.EMU_DNS_MEDIAN_US,
    )


def dns_models() -> Dict[str, SteadyModel]:
    """The Figure 3(c) curve set."""
    return {
        "nsd": nsd_model(),
        "emu": emu_in_server_model(),
        "emu-standalone": emu_standalone_model(),
    }
