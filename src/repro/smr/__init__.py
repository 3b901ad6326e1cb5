"""BFT state machine replication protocols used inside volatile groups.

Two interchangeable engines are provided, matching the paper's two Atum
implementations:

* :class:`repro.smr.dolev_strong.SyncSmrReplica` -- a synchronous, round-based
  engine built on the Dolev-Strong authenticated Byzantine broadcast.  It
  tolerates ``f = (g - 1) // 2`` faults in a group of ``g`` replicas.
* :class:`repro.smr.pbft.PbftReplica` -- an eventually-synchronous engine in
  the style of PBFT (pre-prepare / prepare / commit with view changes).  It
  tolerates ``f = (g - 1) // 3`` faults.

Both engines expose the same interface (:class:`repro.smr.base.SmrReplica`), so
the group layer is agnostic to the choice -- exactly as Atum's design intends.
"""

from repro.smr.base import (
    SmrReplica,
    Operation,
    sync_fault_threshold,
    async_fault_threshold,
)
from repro.smr.checkpoint import (
    Checkpoint,
    CheckpointAnnounce,
    CheckpointCertificate,
    CheckpointManager,
    StateTransferRequest,
    StateTransferResponse,
)
from repro.smr.dolev_strong import DolevStrongInstance, SyncSmrReplica
from repro.smr.pbft import PbftReplica
from repro.smr.harness import ReplicaGroupHarness

__all__ = [
    "Checkpoint",
    "CheckpointAnnounce",
    "CheckpointCertificate",
    "CheckpointManager",
    "StateTransferRequest",
    "StateTransferResponse",
    "SmrReplica",
    "Operation",
    "sync_fault_threshold",
    "async_fault_threshold",
    "DolevStrongInstance",
    "SyncSmrReplica",
    "PbftReplica",
    "ReplicaGroupHarness",
]
