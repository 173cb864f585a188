"""Workload generators and trace models.

* :mod:`repro.workloads.etc` — the Facebook "ETC" key-value workload [7]
  (Zipf key popularity, small values, high GET ratio) used by the Figure 6
  experiment.
* :mod:`repro.workloads.colocated` — the ChainerMN-style co-located CPU
  workload of Figure 6.
* :mod:`repro.workloads.dns` — Zipf-popular DNS query streams over a rack
  service zone, split per anycast host by qname hash (§3.3 at rack scale).
* :mod:`repro.workloads.dynamo` — Facebook Dynamo power-variation trace
  synthesis + the §9.3 variation-percentile analysis.
* :mod:`repro.workloads.google_trace` — Google cluster trace synthesis +
  the §9.3 offload-candidate analysis.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".etc": ("EtcWorkload", "EtcShardStream", "ShardedEtcWorkload"),
        ".dns": ("DnsNameWorkload", "DnsShardStream", "ShardedDnsWorkload"),
        ".colocated": ("ChainerMNWorkload",),
        ".dynamo": (
            "DynamoTraceSynthesizer",
            "PowerVariationAnalysis",
            "analyze_power_variation",
        ),
        ".google_trace": (
            "GoogleTraceSynthesizer",
            "GoogleTraceAnalysis",
            "Task",
            "analyze_offload_candidates",
        ),
    },
)

__all__ = [
    "EtcWorkload",
    "EtcShardStream",
    "ShardedEtcWorkload",
    "DnsNameWorkload",
    "DnsShardStream",
    "ShardedDnsWorkload",
    "ChainerMNWorkload",
    "DynamoTraceSynthesizer",
    "PowerVariationAnalysis",
    "analyze_power_variation",
    "GoogleTraceSynthesizer",
    "GoogleTraceAnalysis",
    "Task",
    "analyze_offload_candidates",
]
