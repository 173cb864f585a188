"""Network substrate: packets, links, switches, classifiers.

This package models the data-center plumbing the paper's applications run
over: UDP-style packets (all three case-study applications are UDP based,
§3.4), point-to-point links with latency/bandwidth and fault injection, and
a programmable switch whose forwarding table the Paxos on-demand controller
rewrites (§9.2).
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".packet": ("Packet", "TrafficClass"),
        ".link": ("Link", "LinkFaults"),
        ".node": ("Node",),
        ".switch": ("ForwardingRule", "Switch"),
        ".classifier": (
            "PacketClassifier",
            "ClassifierRule",
            "KeyShardRouter",
            "RouterFleet",
            "key_shard",
        ),
        ".topology": ("Fabric", "Topology", "build_fabric", "star_topology"),
    },
)

__all__ = [
    "Fabric",
    "build_fabric",
    "Packet",
    "TrafficClass",
    "Link",
    "LinkFaults",
    "Node",
    "ForwardingRule",
    "Switch",
    "PacketClassifier",
    "ClassifierRule",
    "KeyShardRouter",
    "RouterFleet",
    "key_shard",
    "Topology",
    "star_topology",
]
