"""The paper's primary contribution: in-network computing on demand.

§9 proposes treating programmable network devices as schedulable computing
resources, with two proof-of-concept controllers:

* :class:`NetworkController` (§9.1) — decides in the device from traffic
  rate alone: a threshold + averaging-period pair to shift up, a mirror pair
  to shift down (hysteresis).
* :class:`HostController` (§9.1) — decides at the host from application CPU
  usage and RAPL power, with feedback from the network for shifting back.
* :class:`PaxosShiftController` (§9.2) — a centralized controller that
  shifts the Paxos leader by rewriting switch forwarding rules.

plus the §8 energy analysis (:mod:`repro.core.energy_model`) and a placement
advisor (:mod:`repro.core.placement`).
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".window": ("SlidingWindowRate", "SlidingWindowMean"),
        ".controller": (
            "CONTROLLER_KINDS",
            "PAXOS_CONTROLLER_KINDS",
            "ServiceShiftController",
            "ShiftController",
        ),
        ".fabric_controller": (
            "FABRIC_CONTROLLER_KINDS",
            "FabricController",
            "FabricControllerConfig",
            "HostPlacement",
            "SteerEvent",
        ),
        ".hysteresis": ("HysteresisSwitch", "Thresholds"),
        ".network_controller": (
            "NetworkController",
            "NetworkControllerConfig",
        ),
        ".host_controller": ("HostController", "HostControllerConfig"),
        ".paxos_controller": ("PaxosShiftController",),
        ".predictive_controller": (
            "PredictiveController",
            "PredictiveControllerConfig",
        ),
        ".energy_model": (
            "TippingPointAnalysis",
            "tipping_point",
            "tor_switch_analysis",
        ),
        ".ondemand": ("OnDemandService", "Placement"),
        ".placement": ("PlacementAdvisor", "PlatformRecommendation"),
        ".shift_strategy": ("ShiftStrategy", "ShiftStrategyModel"),
    },
)

__all__ = [
    "CONTROLLER_KINDS",
    "FABRIC_CONTROLLER_KINDS",
    "PAXOS_CONTROLLER_KINDS",
    "FabricController",
    "FabricControllerConfig",
    "HostPlacement",
    "SteerEvent",
    "ServiceShiftController",
    "ShiftController",
    "SlidingWindowRate",
    "SlidingWindowMean",
    "HysteresisSwitch",
    "Thresholds",
    "NetworkController",
    "NetworkControllerConfig",
    "HostController",
    "HostControllerConfig",
    "PaxosShiftController",
    "TippingPointAnalysis",
    "tipping_point",
    "tor_switch_analysis",
    "OnDemandService",
    "Placement",
    "PlacementAdvisor",
    "PlatformRecommendation",
    "PredictiveController",
    "PredictiveControllerConfig",
    "ShiftStrategy",
    "ShiftStrategyModel",
]
