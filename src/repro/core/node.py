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
* the gossip forwarding logic of the second phase of ``broadcast``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Collection, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MiddlewareContext
from repro.crypto.digest import seal
from repro.crypto.keys import KeyRegistry
from repro.faults.plan import RESPONDER_BEHAVIOURS
from repro.group.antientropy import AntiEntropyConfig, AntiEntropyRepair
from repro.group.heartbeat import HeartbeatClock, HeartbeatMonitor
from repro.group.messages import GroupMessageEnvelope, GroupMessenger, NodeBinding
from repro.group.vgroup import VGroupView
from repro.net.message import CorruptedPayload
from repro.net.network import Network
from repro.net.requests import RequestEnvelope
from repro.overlay.gossip import forward_cycles, forward_targets, sends_first
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator
from repro.smr.base import Operation, SmrReplica
from repro.smr.checkpoint import StateTransferRequest, StateTransferResponse
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
            ``cycle_neighbor_ids(group_id) -> Sequence[Tuple[str, str]]``;
            ``neighbour_members(group_id) -> Sequence[str]`` when anti-entropy
            is enabled, and ``request_eviction(peer, suspected_by)`` when
            heartbeats are (a node without it never proposes an eviction).
        deliver_fn: Application callback invoked on message delivery.
        forward_fn: Application callback deciding whether to forward a
            broadcast to a neighbouring vgroup; ``None`` uses ``forward_policy``.
        forward_policy: One of ``"flood"``, ``"single"``, ``"double"`` or
            ``"random"`` -- the built-in forwarding policies.
        byzantine: ``None`` for a correct node, ``"silent"`` for a node that
            stops participating in every protocol except heartbeats,
            ``"mute"`` for a completely unresponsive node,
            ``"evict_attack"`` for the paper's §6.1.3 synchronous adversary
            (heartbeats only, plus eviction proposals against correct peers —
            the proposals themselves are driven by
            :class:`repro.faults.behaviours.FaultController`),
            ``"equivocate"`` for a node that participates in gossip but sends
            conflicting payload variants of every forwarded group message to
            disjoint halves of the destination vgroup, or ``"rejoin_attack"``
            for a member of the adaptive join-leave coalition (silent on the
            protocol; its strategic leave/re-join schedule is driven by the
            fault controller).  The responder behaviours (``"stonewall"``,
            ``"slow_drip"``, ``"garbage_serve"``, ``"stale_cert"``) attack
            only the state-transfer serving path: the node participates
            normally everywhere else — crucially it signs checkpoints, so
            it legitimately enters the certifier rotation recovering
            replicas fetch state from — and stonewalls, drip-feeds,
            tampers or stales its transfer responses (see
            :data:`repro.faults.plan.RESPONDER_BEHAVIOURS`).
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
        byzantine: Optional[str] = None,
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
        self.byzantine = byzantine
        registry.generate(address)

        self.vgroup_view: Optional[VGroupView] = None
        self.replica: Optional[SmrReplica] = None
        self.delivered: Dict[str, float] = {}
        self.delivered_order: List[str] = []
        # bcast_id -> {vgroup it was accepted from after the first: (gm-id,
        # the members that sent this node a share)}; an entry lives only until
        # a Sync forward's deferred send.
        self._heard_from: Dict[str, Dict[str, Tuple[str, Set[str]]]] = {}
        # (time, bcast_id) of each completed Sync forward, oldest first, until
        # a later forward retires the broadcast's unaccepted gossip state.
        self._settling: Deque[Tuple[float, str]] = deque()
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
        # reads them off the network.
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
            self.heartbeats.peers = view.members
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
                # Shuffling re-homes a node into a different vgroup while
                # keeping its replica object; the outgoing certificates
                # describe the OLD group's log and must not be re-anchored.
                carry_certificates=(
                    previous_view is not None
                    and previous_view.group_id == view.group_id
                ),
            )
        if (
            self.heartbeats is not None
            and not self.heartbeats.running
            and self.byzantine != "mute"
        ):
            # A mute (crashed) node's stopped monitor must stay stopped, or
            # any reconfiguration of its vgroup would resurrect its
            # heartbeats and hide the crash from the failure detector.
            self.heartbeats.start()
        if self.antientropy is not None and not self.antientropy.running:
            # Safe for crashed nodes too: the tick itself is a no-op while
            # the node is not correct and resumes after recovery.
            self.antientropy.start()

    def set_behaviour(self, behaviour: Optional[str]) -> None:
        """Make the node behave as ``behaviour`` (``None``: correct; see the
        class docstring) — the one writer of :attr:`byzantine`.

        A mute node is completely unresponsive, heartbeats included: its
        monitor stops, so its peers see a crash, and it stays stopped until
        the node takes any other behaviour (a member then resumes
        heartbeating: every behaviour but mute keeps the monitor).
        """
        self.byzantine = behaviour
        monitor = self.heartbeats
        if monitor is None:
            return
        if behaviour == "mute":
            monitor.stop()
        elif self.is_member and not monitor.running:
            monitor.start()

    def clear_membership(self) -> None:
        """Drop membership state after leaving the system."""
        self.vgroup_view = None
        if self.heartbeats is not None:
            self.heartbeats.peers = ()
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
        if self.byzantine is not None and self._byzantine_consumes(payload, sender):
            return
        handler = self._routes.get(type(payload))
        if handler is not None:
            handler(payload, sender)

    def _byzantine_consumes(self, payload: Any, sender: str) -> bool:
        """The receive rules of a Byzantine node, in order; True = frame consumed."""
        behaviour = self.byzantine
        if behaviour == "mute":
            return True
        kind = type(payload)
        if behaviour in ("silent", "evict_attack", "rejoin_attack"):
            # A silent Byzantine node keeps its heartbeat monitor (heartbeats
            # never come through here) but ignores every protocol message.
            # The evict-attack and rejoin-attack adversaries behave the same
            # on the receive path; their eviction proposals / strategic
            # leave-and-re-join schedules are timer-driven by the fault
            # controller.  A corrupted frame other than a group-message share
            # still fails transport authentication (and is counted) first.
            if kind is CorruptedPayload:
                return type(payload.inner) is GroupMessageEnvelope
            return True
        if behaviour in RESPONDER_BEHAVIOURS and kind is SmrEnvelope:
            inner, view = payload.payload, self.vgroup_view
            if (
                type(inner) is RequestEnvelope
                and inner.kind == "ckpt.transfer"
                and view is not None
                and payload.group_id == view.group_id
            ):
                # The responder adversary hijacks exactly one protocol
                # surface: serving its own group's state transfers.
                self._serve_adversarial_transfer(inner, sender)
                return True
        return False

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
        if self.byzantine is not None and self.byzantine not in RESPONDER_BEHAVIOURS:
            # Responder adversaries stay live on the SMR wire — their whole
            # attack depends on participating (voting, signing checkpoints)
            # well enough to be selected as a transfer server.
            return
        view = self.vgroup_view
        envelope = SmrEnvelope(group_id=view.group_id if view else "", payload=payload)
        self.network.send_many(self.address, peers, envelope, size_bytes)

    def _serve_adversarial_transfer(self, envelope: RequestEnvelope, sender: str) -> None:
        """Serve a state-transfer request in this node's adversarial style.

        All four responder behaviours stay within what a Byzantine server
        can actually do: none can forge a certificate (2f+1 signatures)
        or make a tampered body verify, so the attacks are confined to
        withholding (``stonewall``), timing (``slow_drip``), rejectable
        garbage (``garbage_serve``) and genuinely old-but-signed answers
        (``stale_cert``).  The requester's scoreboard + rotation is what
        bounds the resulting catch-up latency inflation.
        """
        replica = self.replica
        manager = getattr(replica, "checkpoints", None)
        if manager is None:
            return
        metrics = self.sim.metrics
        behaviour = self.byzantine
        if behaviour == "stonewall":
            metrics.increment("faults.transfer_stonewalled")
            return
        request = envelope.payload
        if not isinstance(request, StateTransferRequest):
            return
        if behaviour == "slow_drip":
            response = manager.build_state_response(request, sender)
            if response is None:
                return
            # Reply *correctly* but only just inside the requester's
            # deadline: no rejectable evidence, maximal waiting.  The
            # margin absorbs typical network latency; a drip that still
            # lands late degenerates into a scored timeout.
            delay = envelope.deadline - self.sim.now - 0.25
            if delay <= 0.0:
                metrics.increment("faults.transfer_stonewalled")
                return
            metrics.increment("faults.transfer_slow_dripped")
            self.sim.schedule(
                delay,
                lambda: manager.respond_transfer(envelope, response),
                tag=f"{self.address}:slow-drip",
            )
            return
        if behaviour == "garbage_serve":
            response = manager.build_state_response(request, sender)
            if response is None:
                return
            # Well-formed but digest-mismatched: every operation body is
            # wrapped, so the chained state digest cannot reproduce.
            tampered = replace(
                response,
                operations=tuple(
                    replace(op, body=("garbage", op.body)) for op in response.operations
                ),
            )
            metrics.increment("faults.transfer_garbage_served")
            manager.respond_transfer(envelope, tampered)
            return
        if behaviour == "stale_cert":
            old = manager.previous_stable
            if old is None:
                # Nothing genuinely old to serve yet; withhold instead.
                metrics.increment("faults.transfer_stonewalled")
                return
            operations = (
                tuple(replica.decided_log[request.have_count : old.seq])
                if old.seq > request.have_count
                else ()
            )
            stale = StateTransferResponse(
                epoch=replica.epoch,
                certificate=old,
                base_count=request.have_count,
                operations=operations,
            )
            metrics.increment("faults.transfer_stale_served")
            manager.respond_transfer(envelope, stale)

    def _on_smr_decide(self, operation: Operation) -> None:
        if operation.kind == "broadcast" and isinstance(operation.body, BroadcastMessage):
            self._deliver_and_forward(operation.body, source_group=self.group_id() or "")
        # Other operation kinds (joins, leaves, evictions) are handled by the
        # membership engine at vgroup granularity; the node only needs to act
        # on application-level broadcasts here.

    def _on_group_message(
        self, kind: str, payload: Any, source_group: str, gm_id: str, senders: Set[str]
    ) -> None:
        if kind == "gossip" and isinstance(payload, BroadcastMessage):
            self._deliver_and_forward(payload, source_group, (gm_id, senders))

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

    def _deliver_and_forward(
        self,
        message: BroadcastMessage,
        source_group: str,
        shares: Optional[Tuple[str, Set[str]]] = None,
    ) -> None:
        """``shares`` is the accepted group message's (gm-id, senders); ``None``
        for the own vgroup's decision."""
        bcast_id = message.bcast_id
        if bcast_id in self.delivered:
            # A later source: while the forward waits for its round, keep
            # counting who in that vgroup sent a share (see _gossip_targets).
            heard = self._heard_from.get(bcast_id)
            if heard is not None and shares is not None and source_group not in heard:
                heard[source_group] = shares
                self.messenger.count_late_shares(*shares)
            return
        now = self.sim.now
        self.delivered[bcast_id] = now
        self.delivered_order.append(bcast_id)
        self.sim.metrics.increment("atum.deliveries")
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
            self._heard_from[bcast_id] = {}
            delay = self._time_to_next_round()
            self.sim.schedule(delay, lambda: self._forward_at_boundary(message, source_group))
        else:
            self._forward(message, source_group)

    def _time_to_next_round(self) -> float:
        round_duration = self.params.round_duration
        position = self.sim.now % round_duration
        return round_duration - position if position > 1e-12 else 0.0

    def _forward(self, message: BroadcastMessage, source_group: str) -> None:
        """Async: send this member's share of ``message`` to its gossip targets."""
        if self.vgroup_view is None:
            return
        own_group = self.vgroup_view.group_id
        self._send_gossip(message, own_group, self._gossip_targets(message, (source_group,)))
        self.sim.metrics.increment("atum.gossip_forwards")

    def _forward_at_boundary(self, message: BroadcastMessage, source_group: str) -> None:
        """Sync, first step: send to the targets this vgroup goes first to.

        The others wait ``STAGGER`` of a round for :meth:`_forward_deferred`,
        so a neighbour that delivered in the same round and goes first on the
        shared edge has sent its shares by then.
        """
        bcast_id = message.bcast_id
        self._retire_settled()
        if self.vgroup_view is None:
            self._complete_forward(bcast_id)
            return
        own_group = self.vgroup_view.group_id
        first: List[str] = []
        deferred: List[str] = []
        for gid in self._gossip_targets(message, (source_group,), self._heard_from[bcast_id]):
            (first if sends_first(bcast_id, own_group, gid) else deferred).append(gid)
        self._send_gossip(message, own_group, first)
        self.sim.metrics.increment("atum.gossip_forwards")
        if deferred:
            self.sim.schedule(
                STAGGER * self.params.round_duration,
                lambda: self._forward_deferred(message, own_group, deferred),
            )
        else:
            self._complete_forward(bcast_id)

    def _forward_deferred(
        self, message: BroadcastMessage, own_group: str, deferred: List[str]
    ) -> None:
        """Sync, second step: send to the ``deferred`` targets that are not
        known to hold the broadcast by now, unless this node left ``own_group``."""
        later_sources = self._complete_forward(message.bcast_id)
        view = self.vgroup_view
        if view is None or view.group_id != own_group:
            return
        targets = self._uncovered(deferred, later_sources)
        if targets:
            self._send_gossip(message, own_group, targets)
            self.sim.metrics.increment("atum.forwards_deferred", len(targets))

    def _complete_forward(self, bcast_id: str) -> Dict[str, Tuple[str, Set[str]]]:
        """The later sources of ``bcast_id``, whose shares are counted no more."""
        later = self._heard_from.pop(bcast_id)
        for gm_id, _ in later.values():
            self.messenger.stop_counting(gm_id)
        self._settling.append((self.sim.now, bcast_id))
        return later

    def _retire_settled(self) -> None:
        """Retire the unaccepted gossip state of every broadcast whose forward
        completed more than a round ago.

        By then every neighbour that delivered it from this vgroup has
        forwarded too: what is left are below-majority shares from co-members
        that disagreed on a skip, and only an anti-entropy re-send can still
        add to them.  This node holds the broadcast, so accepting one more of
        its gossip group messages would deliver nothing.
        """
        settling = self._settling
        horizon = self.sim.now - self.params.round_duration - 1e-9
        while settling and settling[0][0] < horizon:
            self.messenger.retire_pending(f"gossip:{settling.popleft()[1]}:")

    def _send_gossip(self, message: BroadcastMessage, own_group: str, targets: List[str]) -> None:
        """Send this member's share of ``message`` to each of ``targets``."""
        for target_group in targets:
            target_view = self.directory.view_of_group(target_group)
            if target_view is None:
                continue
            gm_id = f"gossip:{message.bcast_id}:{own_group}->{target_group}"
            if self.byzantine == "equivocate":
                # An equivocating broadcaster ships a conflicting variant of
                # the share to half of the destination vgroup.  The forged
                # payload depends only on the message (not on this node), so
                # colluding equivocators aggregate into one conflicting
                # digest bucket — the strongest version of the attack the
                # group-message majority rule must absorb.
                forged = replace(message, payload=("equivocated", message.payload))
                self.messenger.send_equivocating(
                    target_view,
                    "gossip",
                    message,
                    forged,
                    gm_id=gm_id,
                    payload_bytes=message.size_bytes + 64,
                )
            else:
                self.messenger.send(
                    target_view,
                    "gossip",
                    message,
                    gm_id=gm_id,
                    payload_bytes=message.size_bytes + 64,
                )

    def _gossip_targets(
        self,
        message: BroadcastMessage,
        exclude: Collection[str],
        later_sources: Optional[Dict[str, Tuple[str, Set[str]]]] = None,
    ) -> List[str]:
        """Neighbouring vgroups this broadcast should be forwarded to.

        The choice must be identical at every correct member of the vgroup
        (otherwise the group message never reaches a majority), which is why
        the built-in policies (:func:`repro.overlay.gossip.forward_cycles`)
        derive any variation from the broadcast id.  ``exclude`` holds the
        vgroup the broadcast was first accepted from; a vgroup in
        ``later_sources`` is dropped by :meth:`_uncovered`, and ``forward_fn``
        is never asked about it.
        """
        if self.vgroup_view is None:
            return []
        own_group = self.vgroup_view.group_id
        cycle_neighbors = self.directory.cycle_neighbor_ids(own_group)
        if not cycle_neighbors:
            return []
        hc = len(cycle_neighbors)
        if self.forward_fn is not None:
            cycles: Sequence[int] = range(hc)
        else:
            cycles = forward_cycles(self.forward_policy, message.bcast_id, hc)
        targets = forward_targets(cycle_neighbors, cycles, own_group, exclude)
        if later_sources:
            targets = self._uncovered(targets, later_sources)
        if self.forward_fn is None:
            return targets
        return [gid for gid in targets if self.forward_fn(message, gid)]

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
    "DirectMessage",
]
