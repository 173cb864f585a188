"""Host (server) substrate.

Models the paper's three server platforms (§4.1, §5.4, §7) at the level the
paper measures them: wall power as a function of load, per-socket RAPL
counters, per-core activation costs, and the kernel-stack vs DPDK driver
distinction that dominates the Paxos software power curves (§4.3).
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".cpu": ("CpuAccount", "CoreAllocation"),
        ".nic": ("Nic", "NIC_INTEL_X520", "NIC_MELLANOX_CX311A"),
        ".rapl": ("RaplDomain", "RaplReader"),
        ".server": (
            "Server",
            "make_i7_server",
            "make_xeon_2660_server",
            "make_xeon_2637_server",
        ),
    },
)

__all__ = [
    "CpuAccount",
    "CoreAllocation",
    "Nic",
    "NIC_INTEL_X520",
    "NIC_MELLANOX_CX311A",
    "RaplDomain",
    "RaplReader",
    "Server",
    "make_i7_server",
    "make_xeon_2660_server",
    "make_xeon_2637_server",
]
