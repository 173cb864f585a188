"""Steady-state Paxos models — the Figure 3(b) series.

Eight curves: {libpaxos, DPDK, P4xos in-server, P4xos standalone} ×
{leader, acceptor}.  The §4.3 anchors: libpaxos acceptor peaks at 178K
msg/s on one core; DPDK's power is high and flat (constant polling); P4xos
in-server idles 10W below LaKe (49W); standalone P4xos is 18.2W idle with
≤1.2W dynamic.
"""

from __future__ import annotations

import enum
from typing import Dict

from .. import calibration as cal
from ..hw.fpga import PlatformMode, make_p4xos_fpga
from .base import HardwareCardModel, SoftwareCurveModel, SteadyModel


class PaxosRole(enum.Enum):
    LEADER = "leader"
    ACCEPTOR = "acceptor"


_SW_CAPACITY = {
    PaxosRole.LEADER: cal.LIBPAXOS_LEADER_CAPACITY_PPS,
    PaxosRole.ACCEPTOR: cal.LIBPAXOS_ACCEPTOR_CAPACITY_PPS,
}
_DPDK_CAPACITY = {
    PaxosRole.LEADER: cal.DPDK_LEADER_CAPACITY_PPS,
    PaxosRole.ACCEPTOR: cal.DPDK_ACCEPTOR_CAPACITY_PPS,
}
_SW_LATENCY = {
    PaxosRole.LEADER: cal.LIBPAXOS_LEADER_STACK_US,
    PaxosRole.ACCEPTOR: cal.LIBPAXOS_ACCEPTOR_STACK_US,
}


def libpaxos_model(role: PaxosRole = PaxosRole.ACCEPTOR) -> SoftwareCurveModel:
    """libpaxos on one core of the i7 (§4.3)."""
    return SoftwareCurveModel(
        name=f"libpaxos {role.value}",
        capacity_pps=_SW_CAPACITY[role],
        idle_w=cal.I7_IDLE_W,
        peak_w=cal.LIBPAXOS_PEAK_W,
        alpha=1.0,
        poly_w=cal.LIBPAXOS_POLY_W,
        poly_exp=cal.LIBPAXOS_POLY_EXP,
        latency_us=_SW_LATENCY[role],
    )


def dpdk_model(role: PaxosRole = PaxosRole.ACCEPTOR) -> SoftwareCurveModel:
    """libpaxos over DPDK: kernel bypass, constant polling (§4.3)."""
    return SoftwareCurveModel(
        name=f"DPDK {role.value}",
        capacity_pps=_DPDK_CAPACITY[role],
        idle_w=cal.DPDK_IDLE_W,
        peak_w=cal.DPDK_PEAK_W,
        alpha=1.0,
        latency_us=cal.DPDK_STACK_US,
    )


def p4xos_in_server_model(role: PaxosRole = PaxosRole.ACCEPTOR) -> HardwareCardModel:
    """P4xos on NetFPGA inside the i7 host (§4.3)."""
    card = make_p4xos_fpga(mode=PlatformMode.IN_SERVER)
    return HardwareCardModel(
        name=f"P4xos {role.value}",
        capacity_pps=cal.P4XOS_FPGA_CAPACITY_PPS,
        card_power_w=card.power_w,
        card_dynamic_max_w=cal.FPGA_DYNAMIC_MAX_W,
        host_idle_w=cal.I7_IDLE_NO_NIC_W,
        latency_us=cal.P4XOS_FPGA_PIPELINE_US,
    )


def p4xos_standalone_model(role: PaxosRole = PaxosRole.ACCEPTOR) -> HardwareCardModel:
    """P4xos standalone: 18.2W idle, ≤1.2W dynamic (§4.3)."""
    card = make_p4xos_fpga(mode=PlatformMode.STANDALONE)
    return HardwareCardModel(
        name=f"P4xos standalone {role.value}",
        capacity_pps=cal.P4XOS_FPGA_CAPACITY_PPS,
        card_power_w=card.power_w,
        card_dynamic_max_w=cal.P4XOS_STANDALONE_DYNAMIC_MAX_W,
        host_idle_w=0.0,
        latency_us=cal.P4XOS_FPGA_PIPELINE_US,
    )


def paxos_models(role: PaxosRole = PaxosRole.ACCEPTOR) -> Dict[str, SteadyModel]:
    """The Figure 3(b) curve set for one role."""
    return {
        "libpaxos": libpaxos_model(role),
        "dpdk": dpdk_model(role),
        "p4xos": p4xos_in_server_model(role),
        "p4xos-standalone": p4xos_standalone_model(role),
    }
