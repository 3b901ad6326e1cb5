"""Common interface of the SMR engines used inside volatile groups."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.crypto.keys import KeyRegistry
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - core.config imports this module
    from repro.core.config import AtumParameters


def sync_fault_threshold(group_size: int) -> int:
    """Faults tolerated by the synchronous engine: ``f = (g - 1) // 2``."""
    return max(0, (group_size - 1) // 2)


def async_fault_threshold(group_size: int) -> int:
    """Faults tolerated by the asynchronous engine: ``f = (g - 1) // 3``."""
    return max(0, (group_size - 1) // 3)


@dataclass(frozen=True)
class Operation:
    """An operation submitted to the replicated state machine.

    Attributes:
        kind: Operation type (e.g. ``"broadcast"``, ``"join"``, ``"leave"``,
            ``"reconfigure"``); interpreted by the group layer.
        body: Operation payload.
        proposer: Address of the node that submitted the operation.
        op_id: Unique identifier assigned by the proposer.
    """

    kind: str
    body: Any
    proposer: str
    op_id: str


#: Nominal size of a protocol message for the network model.
MESSAGE_BYTES = 512


class SmrReplica(abc.ABC):
    """One replica of a BFT state machine, embedded in a host node.

    The replica does not talk to the network directly; the host wires it up by
    providing ``send_fn(peers, payload, size_bytes)`` — ship one protocol
    message to every address in the ``peers`` sequence — and receives decided
    operations through ``decide_fn(operation)``.
    Decided operations are delivered in the same order at every correct
    replica of the group.  ``params`` is the deployment's shared
    :class:`~repro.core.config.AtumParameters`; replicas of one vgroup must
    agree on its round and timeout durations for the round/view arithmetic
    to line up.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        members: Sequence[str],
        registry: KeyRegistry,
        send_fn: Callable[[Sequence[str], Any, int], None],
        decide_fn: Callable[[Operation], None],
        params: "AtumParameters",
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self._install_members(members)
        self.registry = registry
        self.send_fn = send_fn
        self.decide_fn = decide_fn
        self.params = params
        self.decided_log: List[Operation] = []
        self.running = True

    def _install_members(
        self, members: Sequence[str], member_set: Optional[frozenset] = None
    ) -> None:
        """Replace the member list and what per-message code derives from it.

        Called by the constructor and :meth:`reconfigure` only (nothing
        mutates the list in place); engines extend it with their quorum
        sizes, and those that read a member set take ``member_set`` (a view's
        own) if the caller holds one.  The multicast peers are only
        invalidated here and rebuilt by the next :meth:`_broadcast`: under
        churn a Sync replica is reconfigured thousands of times for every
        multicast it sends.
        """
        self.members: List[str] = list(members)
        self._peers: Optional[Tuple[str, ...]] = None

    # ----------------------------------------------------------------- queries

    @property
    @abc.abstractmethod
    def fault_threshold(self) -> int:
        """Number of Byzantine replicas this engine tolerates at this size."""

    # -------------------------------------------------------------------- API

    @abc.abstractmethod
    def propose(self, operation: Operation) -> None:
        """Submit an operation for agreement."""

    def repropose(self, operation: Operation) -> None:
        """Re-submit a previously decided operation for a fresh agreement.

        Used by anti-entropy repair: re-deciding an operation re-delivers
        it to group members that missed the original decision.  The base
        implementation just proposes again; engines that dedup executed
        operations (PBFT) override this to bypass that dedup.
        """
        self.propose(operation)

    @abc.abstractmethod
    def on_message(self, payload: Any, sender: str) -> None:
        """Handle an SMR protocol message from a group peer."""

    def reconfigure(
        self,
        new_members: Sequence[str],
        epoch: int,
        carry_certificates: bool = True,
        member_set: Optional[frozenset] = None,
    ) -> None:
        """Install a new membership (SMART-style epoch change).

        Engines override this to reset in-flight state; the base implementation
        just replaces the member list.  ``epoch`` is the group-synchronized
        epoch number to adopt (the vgroup view's epoch), so co-members whose
        replicas lived through a different number of views still agree on
        it.  ``carry_certificates=False`` tells checkpoint-capable engines
        the replica was re-homed into a *different* group, so the outgoing
        epoch's certificates must die rather than be re-anchored into a
        group they never described.  ``member_set``: see :meth:`_install_members`.
        """
        self._install_members(new_members, member_set)

    def stop(self) -> None:
        """Stop participating (the host node left the group or the system)."""
        self.running = False

    # ----------------------------------------------------------------- helpers

    def _commit(self, operation: Operation) -> None:
        """Append to the decided log and notify the host."""
        self.decided_log.append(operation)
        self.sim.metrics.increment("smr.decided")
        self.decide_fn(operation)

    def _broadcast(self, payload: Any, size_bytes: Optional[int] = None) -> None:
        """Multicast ``payload`` to every other member as one send."""
        peers = self._peers
        if peers is None:
            node_id = self.node_id
            peers = self._peers = tuple(m for m in self.members if m != node_id)
        if peers:
            self.send_fn(
                peers,
                payload,
                size_bytes if size_bytes is not None else MESSAGE_BYTES,
            )

    def _send(self, peer: str, payload: Any, size_bytes: int) -> None:
        """Unicast ``payload`` to one peer."""
        self.send_fn((peer,), payload, size_bytes)


__all__ = [
    "MESSAGE_BYTES",
    "Operation",
    "SmrReplica",
    "sync_fault_threshold",
    "async_fault_threshold",
]
