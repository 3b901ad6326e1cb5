"""Byzantine node behaviours: what a faulty node does instead of the protocol.

A behaviour is an object :func:`set_behaviour` installs on one
:class:`~repro.core.node.AtumNode` and removes again, overriding the node's
receive table ``_routes``, SMR send ``_send_smr`` (and the live replica's
``send_fn``) or share send ``_send_shares`` as instance attributes.
:data:`BEHAVIOURS` names every behaviour a plan's ``NodeFault`` may request:

* ``"crash"``, ``"mute"`` (:class:`Mute`) — completely unresponsive,
  heartbeats included.  A crash with a ``stop`` time recovers.
* ``"silent"`` (:class:`Silent`) — heartbeats and ignores everything else
  (the paper's asynchronous adversary), as do ``"evict_attack"`` (§6.1.3:
  it also proposes evicting correct peers) and ``"rejoin_attack"`` (a
  join-leave coalition concentrating in one vgroup), whose proposals and
  moves run on :class:`~repro.faults.behaviours.FaultController` timers.
* ``"equivocate"`` (:class:`Equivocate`) — receives everything, sends no SMR
  frame, and sends each forwarded share with conflicting payloads to the
  two halves of the destination vgroup.
* The four *responders* (:class:`Responder`) run the protocol and sign
  checkpoints, so recovering replicas fetch state from them, and attack
  only their own vgroup's state transfers: ``"stonewall"`` never replies (a
  full request timeout per attempt); ``"slow_drip"`` replies correctly just
  inside the deadline; ``"garbage_serve"`` replies at once with tampered
  operation bodies, which the certified digest check rejects;
  ``"stale_cert"`` serves the previous stable certificate (signed but
  useless).  None can forge a certificate; the requester's scoreboard and
  rotation bound the delay they cause.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.node import SmrEnvelope
from repro.crypto.digest import digest_object
from repro.group.messages import PAYLOAD_BYTES, GroupMessageEnvelope
from repro.net.message import CorruptedPayload
from repro.net.requests import RequestEnvelope
from repro.smr.checkpoint import StateTransferRequest, StateTransferResponse


def _drop_smr(peers: Sequence[str], payload: Any, size_bytes: int) -> None:
    """An SMR send that never leaves the node."""


def _stay_stopped() -> None:
    """A mute node's heartbeat monitor's ``start``: a view install calls it."""


class Behaviour:
    """One behaviour on one node: the overrides it installs and removes.
    The base keeps the node's receive table and drops its SMR sends."""

    #: The node's label while installed; ``None`` labels it with the name.
    label: Optional[str] = None
    #: Whether the node's SMR frames still leave it.
    sends_smr = False
    #: The replacement for the node's ``_send_shares``; ``None`` keeps it.
    send_shares: Optional[Callable] = None

    def __init__(self, node) -> None:
        self.node = node
        self.own_routes = node._routes

    def routes(self) -> Optional[Dict[type, Callable[[Any, str], None]]]:
        """The receive table to install; ``None`` keeps the node's."""
        return None

    def install(self) -> None:
        node = self.node
        routes = self.routes()
        if routes is not None:
            node._routes = routes
        if not self.sends_smr:
            node._send_smr = _drop_smr
            if node.replica is not None:
                node.replica.send_fn = _drop_smr
        if self.send_shares is not None:
            node._send_shares = self.send_shares

    def remove(self) -> None:
        node = self.node
        node._routes = self.own_routes
        node.__dict__.pop("_send_smr", None)
        node.__dict__.pop("_send_shares", None)
        if node.replica is not None:
            node.replica.send_fn = node._send_smr


class Mute(Behaviour):
    """Receives nothing, sends no SMR frame and does not heartbeat.  A Sync
    forward it had pending still sends its shares."""

    label = "mute"

    def routes(self):
        return {}

    def install(self) -> None:
        super().install()
        monitor = self.node.heartbeats
        if monitor is not None:
            monitor.stop()
            monitor.start = _stay_stopped

    def remove(self) -> None:
        super().remove()
        if self.node.heartbeats is not None:
            del self.node.heartbeats.start


class Silent(Behaviour):
    """Heartbeats only (its monitor reads them off the network)."""

    def routes(self):
        return {CorruptedPayload: self._on_corrupted}

    def _on_corrupted(self, payload: CorruptedPayload, sender: str) -> None:
        # A corrupted frame other than a share still fails transport
        # authentication first, and is counted.
        if type(payload.inner) is not GroupMessageEnvelope:
            self.node._on_corrupted(payload, sender)


class Equivocate(Behaviour):
    """Gossips conflicting shares.  The forged payload depends only on the
    message, so colluding equivocators aggregate into one conflicting digest
    bucket: the strongest attack the group-message majority rule absorbs."""

    def send_shares(self, plan, targets) -> None:
        node = self.node
        message = plan.message
        forged = replace(message, payload=("equivocated", message.payload))
        view_of_group = node.directory.view_of_group
        for target in targets:
            target_view = view_of_group(target)
            if target_view is not None:
                send_equivocating(
                    node.messenger, target_view, "gossip", message, forged,
                    gm_id=plan.gm_prefix + target, payload_bytes=plan.sizes[True],
                )


def send_equivocating(
    messenger, target_view, kind: str, payload: Any, forged_payload: Any,
    gm_id: str, payload_bytes: int = PAYLOAD_BYTES,
) -> None:
    """Send ``messenger``'s share of one group message as ``payload`` to the
    first half of ``target_view`` and as ``forged_payload`` to the second:
    one gm-id, two digests.  Receivers count the conflicting digest in its
    own bucket (:meth:`~repro.group.messages.GroupMessenger.handle`).  Both
    shares carry full payloads: a full forged copy is the stronger attack."""
    own_view = messenger.own_view_fn()
    members = target_view.members
    half = len(members) // 2
    for chunk, chunk_payload in ((members[:half], payload), (members[half:], forged_payload)):
        if chunk:
            envelope = messenger.envelope(
                own_view, target_view.group_id, kind, chunk_payload,
                digest_object(chunk_payload), gm_id,
            )
            messenger.send_share(chunk, envelope, payload_bytes)
    messenger.binding.sim.metrics.increment("group.equivocations_sent")


class Responder(Behaviour):
    """Runs the protocol, and serves its own vgroup's state transfers with
    :meth:`respond` — which, here, stonewalls."""

    sends_smr = True

    def routes(self):
        return {**self.own_routes, SmrEnvelope: self._on_smr_envelope}

    def _on_smr_envelope(self, envelope: SmrEnvelope, sender: str) -> None:
        inner, view = envelope.payload, self.node.vgroup_view
        if type(inner) is RequestEnvelope and inner.kind == "ckpt.transfer" and (
            view is not None and envelope.group_id == view.group_id
        ):
            self.serve(inner, sender)
        else:
            self.node._on_smr_envelope(envelope, sender)

    def serve(self, envelope: RequestEnvelope, sender: str) -> None:
        manager = getattr(self.node.replica, "checkpoints", None)
        if manager is not None:
            self.respond(manager, envelope, sender)

    def respond(self, manager, envelope: RequestEnvelope, sender: str) -> None:
        self.node.sim.metrics.increment("faults.transfer_stonewalled")


class SlowDrip(Responder):
    def respond(self, manager, envelope: RequestEnvelope, sender: str) -> None:
        request = envelope.payload
        if not isinstance(request, StateTransferRequest):
            return
        response = manager.build_state_response(request, sender)
        if response is None:
            return
        # The margin absorbs typical network latency; a drip that still
        # lands late degenerates into a scored timeout.
        sim = self.node.sim
        delay = envelope.deadline - sim.now - 0.25
        if delay <= 0.0:
            super().respond(manager, envelope, sender)
            return
        sim.metrics.increment("faults.transfer_slow_dripped")
        tag = f"{self.node.address}:slow-drip"
        sim.schedule(delay, lambda: manager.respond_transfer(envelope, response), tag=tag)


class GarbageServe(Responder):
    def respond(self, manager, envelope: RequestEnvelope, sender: str) -> None:
        request = envelope.payload
        if not isinstance(request, StateTransferRequest):
            return
        response = manager.build_state_response(request, sender)
        if response is None:
            return
        # Every operation body is wrapped, so the chained state digest
        # cannot reproduce.
        operations = tuple(replace(op, body=("garbage", op.body)) for op in response.operations)
        self.node.sim.metrics.increment("faults.transfer_garbage_served")
        manager.respond_transfer(envelope, replace(response, operations=operations))


class StaleCert(Responder):
    def respond(self, manager, envelope: RequestEnvelope, sender: str) -> None:
        request = envelope.payload
        if not isinstance(request, StateTransferRequest):
            return
        old, replica = manager.previous_stable, self.node.replica
        if old is None:
            super().respond(manager, envelope, sender)
            return
        have = request.have_count
        operations = tuple(replica.decided_log[have : old.seq]) if old.seq > have else ()
        stale = StateTransferResponse(
            epoch=replica.epoch, certificate=old, base_count=have, operations=operations
        )
        self.node.sim.metrics.increment("faults.transfer_stale_served")
        manager.respond_transfer(envelope, stale)


#: Behaviour name -> the class that implements it, in the order plans list them.
BEHAVIOURS: Dict[str, type] = {
    "crash": Mute, "silent": Silent, "mute": Mute, "evict_attack": Silent,
    "equivocate": Equivocate, "rejoin_attack": Silent, "stonewall": Responder,
    "slow_drip": SlowDrip, "garbage_serve": GarbageServe, "stale_cert": StaleCert,
}
NODE_BEHAVIOURS = tuple(BEHAVIOURS)
RESPONDER_BEHAVIOURS = tuple(n for n, cls in BEHAVIOURS.items() if issubclass(cls, Responder))


def set_behaviour(node, name: Optional[str]) -> None:
    """Make ``node`` behave as ``name`` (``None``: correctly) in place of
    whatever behaviour it had: the one writer of ``node.byzantine``."""
    previous = node.__dict__.pop("_behaviour", None)
    if previous is not None:
        previous.remove()
    label = None
    if name is not None:
        behaviour = node._behaviour = BEHAVIOURS[name](node)
        behaviour.install()
        label = behaviour.label or name
    node.byzantine = label
    monitor = node.heartbeats
    if monitor is not None and node.is_member and not monitor.running:
        # A member heartbeats under every behaviour; a mute one's monitor
        # does not start.
        monitor.start()


__all__ = ["BEHAVIOURS", "NODE_BEHAVIOURS", "RESPONDER_BEHAVIOURS", "Behaviour", "Equivocate",
           "Mute", "Responder", "Silent", "send_equivocating", "set_behaviour"]
