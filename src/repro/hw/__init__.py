"""Programmable network hardware models.

* :mod:`repro.hw.fpga` — the NetFPGA SUME platform: module-level power with
  clock gating / power gating / reset semantics (§5.1).
* :mod:`repro.hw.memory` — BRAM/SRAM/DRAM models with the §5.3 capacities
  and latencies.
* :mod:`repro.hw.asic` — Barefoot Tofino normalized-power model (§6).
* :mod:`repro.hw.smartnic` — SmartNIC archetypes for the §10 discussion.
* :mod:`repro.hw.device` — the offload-device abstraction layer: named
  profiles (NetFPGA / SmartNIC tiers / NIC-only) behind one registry, so
  the device is a declarative scenario axis.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".memory": ("BramBank", "DramChannel", "SramBank", "MemoryState"),
        ".fpga": ("FpgaModule", "ModuleState", "NetFpgaSume", "PlatformMode"),
        ".asic": ("TofinoProgram", "TofinoSwitch"),
        ".smartnic": ("SmartNic", "SMARTNIC_ARCHETYPES"),
        ".virtualization": ("TenantProgram", "VirtualizedCard"),
        ".device": (
            "DEFAULT_DEVICE_KIND",
            "OffloadDevice",
            "SmartNicCard",
            "closest_device",
            "device_descriptions",
            "device_names",
            "device_profiles",
            "get_device",
            "register_device",
        ),
    },
)

__all__ = [
    "DEFAULT_DEVICE_KIND",
    "OffloadDevice",
    "SmartNicCard",
    "closest_device",
    "device_descriptions",
    "device_names",
    "device_profiles",
    "get_device",
    "register_device",
    "BramBank",
    "DramChannel",
    "SramBank",
    "MemoryState",
    "FpgaModule",
    "ModuleState",
    "NetFpgaSume",
    "PlatformMode",
    "TofinoProgram",
    "TofinoSwitch",
    "SmartNic",
    "SMARTNIC_ARCHETYPES",
    "TenantProgram",
    "VirtualizedCard",
]
