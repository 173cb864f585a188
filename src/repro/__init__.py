"""repro — a full reproduction of "The Case For In-Network Computing On
Demand" (EuroSys 2019).

Top-level convenience exports cover the most common entry points, each
loaded on first use (:mod:`repro.lazy`); the subpackages hold the full
system:

* :mod:`repro.steady` — calibrated power/latency curves (Figures 3–5);
* :mod:`repro.core` — the on-demand controllers and analyses (§8–§10);
* :mod:`repro.apps` — the three applications, software and hardware;
* :mod:`repro.experiments` — one runner per paper figure/table.
"""

from .lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".calibration": ("I7_6700K", "XEON_E5_2637", "XEON_E5_2660"),
        ".core": (
            "HostController",
            "NetworkController",
            "OnDemandService",
            "PaxosShiftController",
            "PredictiveController",
            "ShiftController",
            "tipping_point",
        ),
        ".sim": ("Simulator",),
        ".steady": ("dns_models", "find_crossover", "kvs_models", "paxos_models"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "I7_6700K",
    "XEON_E5_2637",
    "XEON_E5_2660",
    "HostController",
    "NetworkController",
    "OnDemandService",
    "PaxosShiftController",
    "PredictiveController",
    "ShiftController",
    "tipping_point",
    "Simulator",
    "dns_models",
    "find_crossover",
    "kvs_models",
    "paxos_models",
    "__version__",
]
