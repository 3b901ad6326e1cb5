"""A harness that runs a set of SMR replicas as actors over the network.

The harness is used by unit/integration tests and by the latency benchmarks to
exercise the SMR engines in isolation (outside the full Atum stack), and it
doubles as the calibration tool that measures agreement latency as a function
of group size for the group-level cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Type

from repro.crypto.keys import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator
from repro.smr.base import Operation, SmrReplica
from repro.smr.dolev_strong import SyncSmrReplica

if TYPE_CHECKING:  # pragma: no cover - core.config imports this package
    from repro.core.config import AtumParameters


class _ReplicaActor(Actor):
    """Wraps an SMR replica as a network actor."""

    def __init__(self, sim: Simulator, address: str) -> None:
        super().__init__(sim, address)
        self.replica: Optional[SmrReplica] = None
        self.decided: List[Operation] = []
        self.decide_times: Dict[str, float] = {}
        self.byzantine_silent = False

    def on_message(self, payload: Any, sender: str) -> None:
        if self.byzantine_silent or self.replica is None:
            return
        self.replica.on_message(payload, sender)

    def record_decision(self, operation: Operation) -> None:
        self.decided.append(operation)
        self.decide_times[operation.op_id] = self.sim.now


@dataclass
class ReplicaGroupHarness:
    """Builds a single replica group of a given size on a fresh simulator.

    Attributes:
        group_size: Number of replicas.
        replica_class: SMR engine to instantiate (Sync or PBFT).
        params: Deployment parameters the replicas read (round duration,
            timeouts, checkpoint interval); the defaults when omitted.
        seed: Master seed for the simulation.
        latency_model: Optional network latency model.
        silent_byzantine: Addresses behaving as silent Byzantine replicas
            (they receive nothing and send nothing).
    """

    group_size: int
    replica_class: Type[SmrReplica] = SyncSmrReplica
    params: Optional["AtumParameters"] = None
    seed: int = 0
    latency_model: Optional[LatencyModel] = None
    silent_byzantine: Sequence[str] = ()

    def __post_init__(self) -> None:
        if self.params is None:
            from repro.core.config import AtumParameters  # imports this package

            self.params = AtumParameters()
        self.sim = Simulator(seed=self.seed)
        self.network = Network(self.sim, latency_model=self.latency_model)
        self.registry = KeyRegistry()
        self.addresses = [f"replica-{index}" for index in range(self.group_size)]
        self.actors: Dict[str, _ReplicaActor] = {}
        for address in self.addresses:
            actor = _ReplicaActor(self.sim, address)
            self.actors[address] = actor
            self.network.register(actor)
            self.registry.generate(address)
        for address in self.addresses:
            actor = self.actors[address]
            replica = self.replica_class(
                sim=self.sim,
                node_id=address,
                members=self.addresses,
                registry=self.registry,
                send_fn=self._make_send(address),
                decide_fn=actor.record_decision,
                params=self.params,
            )
            actor.replica = replica
            if address in self.silent_byzantine:
                actor.byzantine_silent = True
                replica.stop()

    def _make_send(self, sender: str) -> Callable[[Sequence[str], Any, int], None]:
        def send(peers: Sequence[str], payload: Any, size_bytes: int) -> None:
            if self.actors[sender].byzantine_silent:
                return
            self.network.send_many(sender, peers, payload, size_bytes)
        return send

    # ------------------------------------------------------------------- runs

    def propose(self, proposer: str, kind: str, body: Any, op_id: Optional[str] = None) -> Operation:
        """Submit an operation through the given proposer replica."""
        operation = Operation(
            kind=kind,
            body=body,
            proposer=proposer,
            op_id=op_id or f"{proposer}-op-{self.sim.processed_events}-{len(self.actors[proposer].decided)}",
        )
        replica = self.actors[proposer].replica
        assert replica is not None
        replica.propose(operation)
        return operation

    def run(self, until: Optional[float] = None, max_events: int = 2_000_000) -> float:
        return self.sim.run(until=until, max_events=max_events)

    # ---------------------------------------------------------------- analysis

    def correct_actors(self) -> List[_ReplicaActor]:
        return [
            actor for actor in self.actors.values() if not actor.byzantine_silent
        ]

    def decided_logs(self) -> List[List[str]]:
        """Return decided op-id logs of all correct replicas."""
        return [[op.op_id for op in actor.decided] for actor in self.correct_actors()]

    def agreement_violations(self, require_equality: bool = False) -> List[str]:
        """Agreement-invariant check: correct logs must be prefix-consistent.

        Delegates to :func:`repro.faults.invariants.check_agreement_logs`;
        an empty list means every pair of correct replicas decided the same
        operations in the same order (lagging replicas allowed, diverging
        ones are a safety violation).  With ``require_equality`` (PBFT,
        whose checkpoints and state transfer close every gap) lagging is a
        violation too: every pair of correct logs must be *equal*.
        """
        from repro.faults.invariants import check_agreement_logs

        return check_agreement_logs(self.decided_logs(), require_equality=require_equality)

    def all_correct_decided(self, op_id: str) -> bool:
        return all(
            op_id in {op.op_id for op in actor.decided} for actor in self.correct_actors()
        )

    def decision_latency(self, op_id: str, proposed_at: float = 0.0) -> float:
        """Latency until the last correct replica decided ``op_id``."""
        times = [
            actor.decide_times[op_id]
            for actor in self.correct_actors()
            if op_id in actor.decide_times
        ]
        if not times:
            raise ValueError(f"operation {op_id} was not decided by any correct replica")
        return max(times) - proposed_at


__all__ = ["ReplicaGroupHarness"]
