"""Steady-state KVS models — the Figure 3(a) series.

Three curves: software memcached (per NIC), LaKe in a server, and LaKe
standalone.  The LaKe curves assume the post-warm-up regime where queries
hit in the card ("this graph is indicative of a case where all queries are
(after warm up) hit in LaKe", §9.2); an optional miss-ratio model adds the
host-side power of servicing misses.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .. import calibration as cal
from ..errors import ConfigurationError
from ..host.nic import NIC_INTEL_X520, NIC_MELLANOX_CX311A, Nic
from ..hw.fpga import PlatformMode, make_lake_fpga
from .base import HardwareCardModel, SoftwareCurveModel, SteadyModel


def memcached_model(nic: Nic = NIC_MELLANOX_CX311A) -> SoftwareCurveModel:
    """Software memcached through a given NIC (§4.2)."""
    return SoftwareCurveModel(
        name=f"memcached ({nic.name})",
        capacity_pps=nic.host_peak_pps,
        idle_w=cal.I7_IDLE_W,
        peak_w=cal.I7_MEMCACHED_PEAK_W,
        alpha=nic.host_power_alpha,
        latency_us=cal.MEMCACHED_SW_MEDIAN_US,
    )


def _host_miss_power(miss_ratio: float) -> Callable[[float], float]:
    """Host power for servicing the miss stream at a given overall rate.

    The host sees ``miss_ratio``·rate; we charge it along the memcached
    power curve's dynamic part (§9.2: "In a case where many queries are a
    miss in the hardware, more power would be consumed by server attending
    to these queries").
    """
    if not 0.0 <= miss_ratio <= 1.0:
        raise ConfigurationError("miss_ratio outside [0,1]")
    base = memcached_model()

    def model(rate_pps: float) -> float:
        if miss_ratio == 0.0:
            return 0.0
        return base.power_at(miss_ratio * rate_pps) - base.power_at(0.0)

    return model


def lake_in_server_model(
    pe_count: int = cal.LAKE_DEFAULT_PES,
    miss_ratio: float = 0.0,
    with_external_memories: bool = True,
) -> HardwareCardModel:
    """LaKe in the i7 host (card replaces the NIC, §4.2)."""
    card = make_lake_fpga(
        pe_count=pe_count,
        with_external_memories=with_external_memories,
        mode=PlatformMode.IN_SERVER,
    )
    capacity = min(cal.LAKE_LINE_RATE_PPS, max(1, pe_count) * cal.LAKE_PE_CAPACITY_PPS)
    return HardwareCardModel(
        name=f"LaKe in-server ({pe_count} PEs)",
        capacity_pps=capacity,
        card_power_w=card.power_w,
        card_dynamic_max_w=cal.FPGA_DYNAMIC_MAX_W,
        host_idle_w=cal.I7_IDLE_NO_NIC_W,
        host_miss_model=_host_miss_power(miss_ratio) if miss_ratio else None,
        latency_us=cal.LAKE_L1_HIT_US,
    )


def lake_standalone_model(pe_count: int = cal.LAKE_DEFAULT_PES) -> HardwareCardModel:
    """LaKe outside a server ("LaKe standalone" in Figure 3(a))."""
    card = make_lake_fpga(pe_count=pe_count, mode=PlatformMode.STANDALONE)
    capacity = min(cal.LAKE_LINE_RATE_PPS, max(1, pe_count) * cal.LAKE_PE_CAPACITY_PPS)
    return HardwareCardModel(
        name="LaKe standalone",
        capacity_pps=capacity,
        card_power_w=card.power_w,
        card_dynamic_max_w=cal.FPGA_DYNAMIC_MAX_W,
        host_idle_w=0.0,
        latency_us=cal.LAKE_L1_HIT_US,
    )


def kvs_models(
    nic: Nic = NIC_MELLANOX_CX311A, miss_ratio: float = 0.0
) -> Dict[str, SteadyModel]:
    """The Figure 3(a) curve set."""
    return {
        "memcached": memcached_model(nic),
        "lake": lake_in_server_model(miss_ratio=miss_ratio),
        "lake-standalone": lake_standalone_model(),
    }
