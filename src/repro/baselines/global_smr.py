"""Whole-system synchronous Byzantine agreement baseline.

The second baseline of Figure 8 scales the Dolev-Strong agreement used inside
Atum's vgroups out to the entire system.  Its latency is ``(f + 1)`` rounds,
where ``f`` is the number of tolerated faults: with 850 nodes, 50 tolerated
faults and 1.5-second rounds this is ~76.5 seconds -- the far-right step of
the paper's CDF.

The analytic model is exact for the failure-free case; a message-level
simulation for small systems is provided for cross-validation against the
analytic latency (used in tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import AtumParameters
from repro.smr import ReplicaGroupHarness, SyncSmrReplica
from repro.smr.base import sync_fault_threshold


def global_smr_latency(
    num_nodes: int,
    tolerated_faults: int | None = None,
    round_duration: float = 1.5,
) -> float:
    """Latency of a whole-system Dolev-Strong broadcast: ``(f + 1)`` rounds."""
    faults = (
        tolerated_faults
        if tolerated_faults is not None
        else sync_fault_threshold(num_nodes)
    )
    return (faults + 1) * round_duration


@dataclass
class GlobalSmrBaseline:
    """Whole-system SMR baseline with both analytic and simulated latency."""

    num_nodes: int = 850
    tolerated_faults: int = 50
    round_duration: float = 1.5

    def analytic_latency(self) -> float:
        return global_smr_latency(self.num_nodes, self.tolerated_faults, self.round_duration)

    def delivery_latencies(self) -> List[float]:
        """One latency sample per node (all nodes decide at the same boundary)."""
        latency = self.analytic_latency()
        return [latency] * self.num_nodes

    def simulate_small(self, num_nodes: int = 9, seed: int = 0) -> float:
        """Message-level simulation of a small instance (cross-validation).

        Returns the measured decision latency of one broadcast among
        ``num_nodes`` replicas with the configured round duration.
        """
        harness = ReplicaGroupHarness(
            group_size=num_nodes,
            replica_class=SyncSmrReplica,
            params=AtumParameters(round_duration=self.round_duration),
            seed=seed,
        )
        operation = harness.propose("replica-0", "broadcast", "baseline")
        harness.run(until=(num_nodes + 4) * self.round_duration * 2)
        return harness.decision_latency(operation.op_id)


__all__ = ["global_smr_latency", "GlobalSmrBaseline"]
