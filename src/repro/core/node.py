"""The Atum node: API operations and the node-level protocol stack.

An :class:`AtumNode` is the object an application embeds (one per process in a
real deployment, one per simulated node here).  It exposes the paper's API
(section 3.3): ``broadcast`` plus the ``deliver`` and ``forward`` callbacks;
``join`` and ``leave`` are invoked through the :class:`~repro.core.cluster.
AtumCluster`, which orchestrates the membership engine.

Internally the node hosts:

* one SMR replica (Sync or Async engine) for its current vgroup -- used for
  the first phase of ``broadcast`` (a Byzantine broadcast inside the caller's
  vgroup) and for agreeing on membership requests;
* a :class:`~repro.group.messages.GroupMessenger` for inter-vgroup group
  messages (gossip shares);
* a :class:`~repro.group.heartbeat.HeartbeatMonitor` for eviction of
  unresponsive peers;
* the gossip forwarding logic of the second phase of ``broadcast``: its
  vgroup's shared :class:`~repro.core.forward.ForwardPlan`, sent at once in
  an Async deployment and, in a Sync one, by a :class:`SyncForward` record
  per broadcast that is its own kernel event and owns the forward's later
  sources, late shares and retirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import AtumParameters, SmrKind
from repro.core.forward import ForwardPlan
from repro.core.middleware import MiddlewareContext
from repro.crypto.digest import seal
from repro.crypto.keys import KeyRegistry
from repro.group.antientropy import AntiEntropyConfig, AntiEntropyRepair
from repro.group.heartbeat import HeartbeatClock, HeartbeatMonitor
from repro.group.messages import GroupMessageEnvelope, GroupMessenger, NodeBinding
from repro.group.vgroup import VGroupView
from repro.net.message import CorruptedPayload
from repro.net.network import Network
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator
from repro.smr.base import Operation, SmrReplica
from repro.smr.dolev_strong import SyncSmrReplica
from repro.smr.pbft import PbftReplica

#: How long after the round boundary a Sync forward sends to the targets that
#: go second on their edge, as a fraction of the round (5 ms of a 0.5 s round):
#: long enough for the other end's LAN shares to land first, short enough that
#: the targets still forward at the next boundary.
STAGGER = 0.01


@dataclass(frozen=True)
class BroadcastMessage:
    """An application message travelling through Atum's broadcast.

    Attributes:
        bcast_id: Globally unique identifier of this broadcast.
        origin: Address of the broadcasting node.
        payload: Application payload.
        size_bytes: Payload size used for network accounting.
        created_at: Simulated time at which ``broadcast`` was invoked.
    """

    bcast_id: str
    origin: str
    payload: Any
    size_bytes: int
    created_at: float


@dataclass
class SmrEnvelope:
    """Wrapper that routes an SMR protocol message to the right vgroup/epoch."""

    group_id: str
    payload: Any


@dataclass
class DirectMessage:
    """A point-to-point application message (used by AShare and AStream)."""

    kind: str
    payload: Any


class SyncForward:
    """One member's Sync forward of one broadcast: its own kernel event, and
    the table entry (``AtumNode._forwards``) that holds what the forward
    learns until it retires.

    Delivery queues the record for the next round boundary with the seq and
    tier a timer would take and tag ``None``.  Its first firing sends to the
    targets the vgroup goes first to; if any goes second, it queues itself
    ``STAGGER`` of a round later and then sends to those not known to hold
    the broadcast by then.  Until that last step it keeps the later sources;
    their late shares add to the sender sets through
    :attr:`GroupMessenger.late_shares`.  A settled record keeps only
    ``node``, ``source`` and ``settled``, until a boundary of its node more
    than a round later retires it with its broadcast's unaccepted gossip
    state: by then every neighbour that delivered the broadcast from this
    vgroup has forwarded too, and only an anti-entropy re-send can add to
    below-majority shares that co-members' differing skips left behind.

    Attributes:
        later: ``None``, or per later source vgroup the accepted gm-id and
            the members that sent this node a share of it.
        plan: The plan the deferred step sends from; ``None`` until the
            boundary step defers a target.
        settled: The time of the last step, ``None`` before it.
    """

    __slots__ = ("node", "message", "source", "later", "plan", "deferred", "settled")

    cancelled = False
    tag = None

    def __init__(self, node: "AtumNode", message: BroadcastMessage, source: str) -> None:
        self.node = node
        self.message = message
        self.source = source
        self.later: Optional[Dict[str, Tuple[str, Set[str]]]] = None
        self.plan: Optional[ForwardPlan] = None
        self.deferred: Optional[List[str]] = None
        self.settled: Optional[float] = None

    def fire(self, entry: tuple) -> None:
        """The boundary step, or the deferred step once the boundary step
        has planned one."""
        now, node = entry[0], self.node
        plan = self.plan
        if plan is not None:
            # The deferred step: send to the deferred targets not known to
            # hold the broadcast by now, unless the node left the vgroup the
            # plan forwards from.  A new view of that vgroup sends its own
            # plan's envelopes.
            message, deferred = self.message, self.deferred
            later = self._settle(now)
            view = node.vgroup_view
            if view is None or view.group_id != plan.view.group_id:
                return
            targets = node._uncovered(deferred, later) if later else deferred
            if targets:
                if view is not plan.view:
                    plan = node._forward_plan(message, self.source)
                node._send_shares(plan, targets)
                node.sim.metrics.counters["atum.forwards_deferred"] += len(targets)
            return
        # The boundary step.  Retire the forwards that settled more than a
        # round ago: they settled in delivery order, which is table order
        # (forwards settle at their boundary or a stagger later), and this
        # one is still unsettled.
        round_duration = node.params.round_duration
        horizon = now - round_duration - 1e-9
        forwards, retired = node._forwards, []
        for bcast_id, forward in forwards.items():
            if forward.settled is None or not forward.settled < horizon:
                break
            retired.append(bcast_id)
        if retired:
            for bcast_id in retired:
                del forwards[bcast_id]
            node.messenger.retire_gossip(retired)
        if node.vgroup_view is None:
            self._settle(now)
            return
        message = self.message
        plan = node._forward_plan(message, self.source)
        later = self.later
        if later is not None or node.forward_fn is not None:
            goes_first = plan.first
            targets = node._chosen(message, plan.targets, later)
            first = [gid for gid in targets if goes_first[gid]]
            deferred = [gid for gid in targets if not goes_first[gid]]
        else:
            first, deferred = plan.first_targets, plan.deferred_targets
        node._send_shares(plan, first)
        node.sim.metrics.counters["atum.gossip_forwards"] += 1.0
        if deferred:
            self.plan, self.deferred = plan, deferred
            node.sim.queue.push_event(now + STAGGER * round_duration, self)
        else:
            self._settle(now)

    def _settle(self, now: float) -> Optional[Dict[str, Tuple[str, Set[str]]]]:
        """Mark the forward done, stop counting later shares and let go of
        what only the steps read; returns the later sources."""
        self.settled = now
        later = self.later
        if later is not None:
            late = self.node.messenger.late_shares
            for gm_id, _ in later.values():
                del late[gm_id]
            self.later = None
        self.message = self.plan = self.deferred = None
        return later


class AtumNode(Actor):
    """A participant in an Atum system.

    Args:
        sim: The simulator hosting the node.
        address: Unique node address.
        params: System parameters.
        network: The network the node communicates over.
        registry: Key registry (PKI) shared by the deployment.
        directory: Provider of overlay information (the cluster).  It must
            expose ``view_of_group(group_id) -> Optional[VGroupView]`` and
            ``forward_plan(message, source_group, view, policy) ->
            ForwardPlan``;
            ``neighbour_members(group_id) -> Sequence[str]`` when anti-entropy
            is enabled, and ``request_eviction(peer, suspected_by)`` when
            heartbeats are (a node without it never proposes an eviction).
        deliver_fn: Application callback invoked on message delivery.
        forward_fn: Application callback deciding whether to forward a
            broadcast to a neighbouring vgroup; ``None`` uses ``forward_policy``.
        forward_policy: One of ``"flood"``, ``"single"``, ``"double"`` or
            ``"random"`` -- the built-in forwarding policies.
        heartbeat_clock: The cluster's heartbeat clock, which ticks the
            node's failure detector once per period; ``None`` runs none.
    """

    def __init__(
        self,
        sim: Simulator,
        address: str,
        params: AtumParameters,
        network: Network,
        registry: KeyRegistry,
        directory: Any,
        deliver_fn: Optional[Callable[[BroadcastMessage], None]] = None,
        forward_fn: Optional[Callable[[BroadcastMessage, str], bool]] = None,
        forward_policy: str = "flood",
        heartbeat_clock: Optional[HeartbeatClock] = None,
        antientropy: Optional[AntiEntropyConfig] = None,
    ) -> None:
        super().__init__(sim, address)
        self.params = params
        self.network = network
        self.registry = registry
        self.directory = directory
        self.deliver_fn = deliver_fn
        # Compiled on_deliver pipeline of the cluster's middleware chain
        # (repro.core.middleware), invoked before deliver_fn.  Kept separate
        # from deliver_fn because apps reassign that attribute freely (e.g.
        # ASub) and must not be able to silently disconnect an attached
        # observer; ``None`` costs one truthiness check per delivery.
        self._deliver_hooks = None
        self._mw_scenario = ""
        self.forward_fn = forward_fn
        self.forward_policy = forward_policy
        # The fault label, ``None`` while the node runs the protocol; the
        # fault layer's installer writes it.
        self.byzantine: Optional[str] = None
        registry.generate(address)

        self.vgroup_view: Optional[VGroupView] = None
        self.replica: Optional[SmrReplica] = None
        self.delivered: Dict[str, float] = {}
        self.delivered_order: List[str] = []
        # bcast_id -> this node's Sync forward of it, in delivery order.
        self._forwards: Dict[str, SyncForward] = {}
        self._direct_handlers: Dict[str, Callable[[Any, str], None]] = {}

        self.messenger = GroupMessenger(
            binding=NodeBinding(address=address, network=network, sim=sim),
            own_view_fn=self._own_view_or_singleton,
            on_accept=self._on_group_message,
            # Forged-size rejection: the directory's smallest-known size of
            # the source group caps how far a claimed sender_group_size can
            # lower the acceptance majority (see GroupMessenger.handle).
            source_size_fn=getattr(directory, "smallest_group_size", None),
        )
        self.antientropy: Optional[AntiEntropyRepair] = None
        if antientropy is not None:
            self.antientropy = AntiEntropyRepair(self)
        self.heartbeats: Optional[HeartbeatMonitor] = None
        if heartbeat_clock is not None:
            self.heartbeats = HeartbeatMonitor(
                sim=sim,
                address=address,
                send_fn=partial(network.beat, address),
                heard_fn=network.heard,
                suspect_fn=self._on_peer_suspected,
                clock=heartbeat_clock,
            )
        # The node's routing table: exact frame type -> handler (a share goes
        # straight to the messenger).  Heartbeats never reach it: the monitor
        # reads them off the network.  A faulty node's behaviour (installed
        # by repro.faults) swaps in its own table and send methods.
        self._routes: Dict[type, Callable[[Any, str], None]] = {
            GroupMessageEnvelope: self.messenger.handle,
            SmrEnvelope: self._on_smr_envelope,
            DirectMessage: self._on_direct_message,
            CorruptedPayload: self._on_corrupted,
        }

    # ------------------------------------------------------------------ queries

    @property
    def is_member(self) -> bool:
        return self.vgroup_view is not None

    @property
    def is_correct(self) -> bool:
        return self.byzantine is None

    def group_id(self) -> Optional[str]:
        return self.vgroup_view.group_id if self.vgroup_view else None

    def has_delivered(self, bcast_id: str) -> bool:
        return bcast_id in self.delivered

    def delivery_time(self, bcast_id: str) -> Optional[float]:
        return self.delivered.get(bcast_id)

    # --------------------------------------------------------------- membership

    def install_view(self, view: VGroupView) -> None:
        """Adopt a (new) view of the node's own vgroup and (re)wire the SMR replica.

        Called by the cluster whenever the membership engine changes the
        composition of the vgroup this node belongs to.
        """
        previous_view = self.vgroup_view
        self.vgroup_view = view
        if self.heartbeats is not None:
            self.heartbeats.set_peers(view.members, view.member_set)
        if self.replica is None:
            self.replica = self._make_replica(view)
            if hasattr(self.replica, "epoch"):
                # Join the group at ITS epoch, not at a fresh zero —
                # epoch-stamped messages from co-members would otherwise
                # be filtered until enough reconfigurations caught us up.
                self.replica.epoch = view.epoch
        else:
            # Do NOT pre-assign replica.members here: reconfigure captures
            # the outgoing membership from it to stamp epoch-transition
            # records, and overwriting first would make every record claim
            # prev_members == members, breaking chain verification.
            self.replica.reconfigure(
                view.members,
                epoch=view.epoch,
                member_set=view.member_set,
                # Shuffling re-homes a node into a different vgroup while
                # keeping its replica object; the outgoing certificates
                # describe the OLD group's log and must not be re-anchored.
                carry_certificates=(
                    previous_view is not None
                    and previous_view.group_id == view.group_id
                ),
            )
        if self.heartbeats is not None and not self.heartbeats.running:
            self.heartbeats.start()
        if self.antientropy is not None and not self.antientropy.running:
            # Safe for crashed nodes too: the tick itself is a no-op while
            # the node is not correct and resumes after recovery.
            self.antientropy.start()

    def clear_membership(self) -> None:
        """Drop membership state after leaving the system."""
        self.vgroup_view = None
        if self.heartbeats is not None:
            self.heartbeats.set_peers((), frozenset())
        if self.replica is not None:
            self.replica.stop()
            self.replica = None
        if self.heartbeats is not None:
            self.heartbeats.stop()
        self.network.forget_bursts(self.address)
        if self.antientropy is not None:
            self.antientropy.stop()

    def _make_replica(self, view: VGroupView) -> SmrReplica:
        replica_class = SyncSmrReplica if self.params.smr_kind is SmrKind.SYNC else PbftReplica
        return replica_class(
            sim=self.sim,
            node_id=self.address,
            members=view.members,
            registry=self.registry,
            send_fn=self._send_smr,
            decide_fn=self._on_smr_decide,
            params=self.params,
        )

    # ---------------------------------------------------------------- broadcast

    def broadcast(self, payload: Any, size_bytes: int = 100) -> str:
        """Broadcast ``payload`` to every node of the system (section 3.3.4).

        Phase one performs a Byzantine broadcast inside the caller's vgroup
        through the SMR engine; phase two gossips the message across the
        overlay.  Returns the broadcast identifier.
        """
        if not self.is_member or self.replica is None:
            raise RuntimeError(f"node {self.address} is not a member of an Atum system")
        bcast_id = f"bc-{self.address}-{self.sim.next_serial('bcast')}"
        message = BroadcastMessage(
            bcast_id=bcast_id,
            origin=self.address,
            payload=payload,
            size_bytes=size_bytes,
            created_at=self.sim.now,
        )
        # The payload crossed the API boundary and is never mutated again
        # (ATL007): every hop, share check and signed wrapper of this
        # broadcast digests it by identity from here on.
        seal(message)
        operation = Operation(kind="broadcast", body=message, proposer=self.address, op_id=bcast_id)
        self.replica.propose(operation)
        self.sim.metrics.increment("atum.broadcasts_started")
        return bcast_id

    def repropose_broadcast(self, message: BroadcastMessage) -> bool:
        """Re-run a delivered broadcast through the own vgroup's SMR engine.

        Anti-entropy's intra-group repair path: re-deciding the operation
        delivers it to every current member through the agreement primitive
        itself (members that already delivered dedup on the broadcast id),
        so a co-member that missed the original decision — it was cut off,
        or on the wrong side of a split — catches up without any unsafe
        point-to-point payload transfer.
        """
        if self.replica is None or not self.is_member:
            return False
        # A delivered broadcast is immutable; its original seal may be evicted.
        seal(message)
        operation = Operation(
            kind="broadcast",
            body=message,
            proposer=self.address,
            op_id=message.bcast_id,
        )
        self.replica.repropose(operation)
        self.sim.metrics.increment("atum.broadcast_reproposals")
        return True

    def register_direct_handler(self, kind: str, handler: Callable[[Any, str], None]) -> None:
        """Register a handler for point-to-point messages of the given kind."""
        self._direct_handlers[kind] = handler

    def send_direct(self, peer: str, kind: str, payload: Any, size_bytes: int = 256) -> None:
        """Send a point-to-point application message to ``peer``."""
        self.send_direct_many((peer,), kind, payload, size_bytes)

    def send_direct_many(
        self, peers: Sequence[str], kind: str, payload: Any, size_bytes: int = 256
    ) -> None:
        """:meth:`send_direct` to each of ``peers`` as one burst: the sequence
        of its single sends, sharing one read-only :class:`DirectMessage`."""
        self.network.send_many(self.address, peers, DirectMessage(kind=kind, payload=payload), size_bytes)

    # ------------------------------------------------------------------ routing

    def on_message(self, payload: Any, sender: str) -> None:
        handler = self._routes.get(type(payload))
        if handler is not None:
            handler(payload, sender)

    def _on_smr_envelope(self, envelope: SmrEnvelope, sender: str) -> None:
        view = self.vgroup_view
        if self.replica is not None and view is not None and envelope.group_id == view.group_id:
            self.replica.on_message(envelope.payload, sender)

    def _on_direct_message(self, message: DirectMessage, sender: str) -> None:
        handler = self._direct_handlers.get(message.kind)
        if handler is not None:
            handler(message.payload, sender)

    def _on_corrupted(self, payload: CorruptedPayload, sender: str) -> None:
        inner = payload.inner
        if type(inner) is GroupMessageEnvelope:
            # Group-message shares are self-verifying: the messenger runs
            # the payload-digest check and discards the tampered share.
            self.messenger.handle_corrupted(inner, sender)
        else:
            # Everything else (heartbeats, SMR, direct messages) is MACed on
            # the wire in a real deployment: a flipped frame fails transport
            # authentication and is dropped whole.
            self.sim.metrics.increment("net.corrupted_discarded")

    # ----------------------------------------------------------------- internals

    def _own_view_or_singleton(self) -> VGroupView:
        if self.vgroup_view is not None:
            return self.vgroup_view
        return VGroupView.create(f"solo-{self.address}", [self.address])

    def _send_smr(self, peers: Sequence[str], payload: Any, size_bytes: int) -> None:
        view = self.vgroup_view
        envelope = SmrEnvelope(group_id=view.group_id if view else "", payload=payload)
        self.network.send_many(self.address, peers, envelope, size_bytes)

    def _on_smr_decide(self, operation: Operation) -> None:
        if operation.kind == "broadcast" and isinstance(operation.body, BroadcastMessage):
            self._deliver_and_forward(operation.body, source_group=self.group_id() or "")
        # Other operation kinds (joins, leaves, evictions) are handled by the
        # membership engine at vgroup granularity; the node only needs to act
        # on application-level broadcasts here.

    def _on_group_message(
        self, kind: str, payload: Any, source_group: str, gm_id: str, senders: Set[str]
    ) -> None:
        if kind != "gossip" or not isinstance(payload, BroadcastMessage):
            return
        bcast_id = payload.bcast_id
        if bcast_id not in self.delivered:
            self._deliver_and_forward(payload, source_group)
            return
        # A later source: while the Sync forward is pending, it counts who in
        # that vgroup sent a share (see _uncovered).
        forward = self._forwards.get(bcast_id)
        if forward is None or forward.settled is not None:
            return
        later = forward.later
        if later is None:
            later = forward.later = {}
        elif source_group in later:
            return
        later[source_group] = (gm_id, senders)
        self.messenger.late_shares[gm_id] = senders

    def _on_peer_suspected(self, peer: str) -> None:
        """A vgroup peer missed too many heartbeats: ask the directory to evict it."""
        evict = getattr(self.directory, "request_eviction", None)
        if evict is not None:
            evict(peer, suspected_by=self.address)

    # ------------------------------------------------------------------- gossip

    def set_middleware_hooks(self, deliver_hooks, scenario: str = "") -> None:
        """Install the compiled ``on_deliver`` pipeline (cluster-distributed).

        Covers both delivery channels of this node: broadcast deliveries
        dispatch from :meth:`_deliver_and_forward` and accepted group
        messages from the messenger (see
        :meth:`repro.group.messages.GroupMessenger.set_middleware_hooks`).
        """
        self._deliver_hooks = deliver_hooks
        self._mw_scenario = scenario
        self.messenger.set_middleware_hooks(deliver_hooks, scenario)

    def _deliver_and_forward(self, message: BroadcastMessage, source_group: str) -> None:
        bcast_id = message.bcast_id
        if bcast_id in self.delivered:
            return
        now = self.sim.now
        self.delivered[bcast_id] = now
        self.delivered_order.append(bcast_id)
        self.sim.metrics.counters["atum.deliveries"] += 1.0
        self.sim.metrics.observe("atum.delivery_latency", now - message.created_at)
        hooks = self._deliver_hooks
        if hooks is not None:
            ctx = MiddlewareContext(
                "on_deliver",
                now=now,
                scenario=self._mw_scenario,
                channel="broadcast",
                receiver=self.address,
                address=self.address,
                payload=message,
                node=self,
            )
            for hook in hooks:
                hook(ctx)
                if ctx.stop:
                    break
        if self.deliver_fn is not None:
            self.deliver_fn(message)
        if self.params.smr_kind is SmrKind.SYNC:
            # Synchronous deployments forward at round boundaries.
            forward = self._forwards[bcast_id] = SyncForward(self, message, source_group)
            self.sim.queue.push_event(now + self._time_to_next_round(), forward)
        else:
            self._forward(message, source_group)

    def _time_to_next_round(self) -> float:
        round_duration = self.params.round_duration
        position = self.sim.now % round_duration
        return round_duration - position if position > 1e-12 else 0.0

    def _forward_plan(self, message: BroadcastMessage, source_group: str) -> ForwardPlan:
        """The vgroup's plan for forwarding ``message`` first accepted from
        ``source_group``, under this member's current view.  A ``forward_fn``
        is asked about every neighbour, so its plan is the flood one."""
        policy = "flood" if self.forward_fn is not None else self.forward_policy
        return self.directory.forward_plan(message, source_group, self.vgroup_view, policy)

    def _chosen(
        self,
        message: BroadcastMessage,
        targets: List[str],
        later_sources: Optional[Dict[str, Tuple[str, Set[str]]]],
    ) -> List[str]:
        """This member's pick from a plan's ``targets``: a vgroup in
        ``later_sources`` is dropped by :meth:`_uncovered`, and ``forward_fn``
        is asked about the rest, in order, and never about a dropped one."""
        if later_sources:
            targets = self._uncovered(targets, later_sources)
        forward_fn = self.forward_fn
        if forward_fn is None:
            return targets
        return [gid for gid in targets if forward_fn(message, gid)]

    def _forward(self, message: BroadcastMessage, source_group: str) -> None:
        """Async: send this member's share of ``message`` to its gossip targets."""
        if self.vgroup_view is None:
            return
        plan = self._forward_plan(message, source_group)
        self._send_shares(plan, self._chosen(message, plan.targets, None))
        self.sim.metrics.increment("atum.gossip_forwards")

    def _send_shares(self, plan: ForwardPlan, targets: List[str]) -> None:
        """Send this member's share of the plan's broadcast to each of
        ``targets`` whose vgroup still exists, read at send time."""
        messenger = self.messenger
        view_of_group = self.directory.view_of_group
        full = messenger.sends_full_copy(self.vgroup_view)
        size = plan.sizes[full]
        send_share, envelopes = messenger.send_share, plan.envelopes
        for target in targets:
            target_view = view_of_group(target)
            if target_view is not None:
                send_share(target_view.members, envelopes[target][full], size)

    def _uncovered(
        self, candidates: List[str], later_sources: Dict[str, Tuple[str, Set[str]]]
    ) -> List[str]:
        """``candidates`` minus every later source whose whole current view
        sent this node a share: each of them forwarded, so each holds the
        broadcast, and a member that entered it since still gets one.  The
        drops are counted as ``atum.forwards_suppressed``."""
        view_of_group = self.directory.view_of_group
        targets = []
        for gid in candidates:
            shares = later_sources.get(gid)
            view = view_of_group(gid) if shares is not None else None
            if view is None or not shares[1].issuperset(view.members):
                targets.append(gid)
        suppressed = len(candidates) - len(targets)
        if suppressed:
            self.sim.metrics.increment("atum.forwards_suppressed", suppressed)
        return targets


__all__ = [
    "AtumNode",
    "BroadcastMessage",
    "SmrEnvelope",
    "SyncForward",
    "DirectMessage",
]
