"""Network substrate: latency models, bandwidth-aware links, loss, partitions.

This package substitutes for the EC2 deployments in the paper's evaluation.
The :class:`repro.net.network.Network` delivers messages between actors with
latencies drawn from a :class:`repro.net.latency.LatencyModel` and transfer
times derived from message sizes and per-node bandwidth.  The WAN profile
models the 8-region deployment used for the asynchronous Atum variant; the
LAN profile models a single-datacenter deployment used for the synchronous
variant.
"""

from repro.net.latency import (
    LatencyModel,
    FixedLatency,
    UniformLatency,
    LogNormalLatency,
    LanProfile,
    WanProfile,
    RegionalLatency,
)
from repro.net.network import Network

__all__ = [
    "LatencyModel",
    "FixedLatency",
    "UniformLatency",
    "LogNormalLatency",
    "LanProfile",
    "WanProfile",
    "RegionalLatency",
    "Network",
]
