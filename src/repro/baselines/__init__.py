"""Baselines the paper compares Atum against.

* :mod:`repro.baselines.gossip` -- a classic round-based crash-tolerant gossip
  protocol with global membership (the "S.Gossip" line of Figure 8).
* :mod:`repro.baselines.global_smr` -- the synchronous Byzantine agreement
  scaled out to the whole system (the "S.SMR" line of Figure 8).
* :mod:`repro.baselines.nfs` -- an NFS-like single-server file service with
  the same transfer cost model as AShare (the baseline of Figure 9).
"""

from repro.baselines.gossip import ClassicGossipSimulation, GossipConfig
from repro.baselines.global_smr import global_smr_latency
from repro.baselines.nfs import NfsServerModel, NfsConfig

__all__ = [
    "ClassicGossipSimulation",
    "GossipConfig",
    "global_smr_latency",
    "NfsServerModel",
    "NfsConfig",
]
