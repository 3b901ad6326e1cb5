"""Group messages: reliable communication between pairs of vgroups.

A group message from vgroup A to vgroup B is a message that all correct nodes
of A send to all nodes of B; a node of B *accepts* it once it has received the
message from a strict majority of A's membership (paper section 3.1).  Because
every vgroup has a correct majority, an accepted group message is guaranteed to
originate from a decision of A's state machine, not from a Byzantine minority.

The messenger also implements the *message digest* optimisation of section
5.1: only a majority of A's nodes send the full payload, the remaining nodes
send just a digest.  Digest copies count towards acceptance, but delivery to
the upper layer happens only once a full copy is available.

Hot-path layout (the m×m fan-out of every broadcast hop flows through here):

* :meth:`GroupMessenger.send` builds ONE immutable envelope per gm-id and
  ships per-destination copies of it through :meth:`Network.send_fanout` —
  envelopes are read-only on the receive path, so the m destinations share
  the same object instead of constructing m identical ones;
* the full-copy-vs-digest decision is cached per own-view snapshot (views are
  immutable, so identity is a sound cache key);
* :meth:`GroupMessenger.handle` keeps ``__slots__`` accumulation state, drops
  it on delivery, and dedups shares of already-accepted gm-ids with a single
  O(1) set lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.core.middleware import MiddlewareContext
from repro.crypto.digest import digest_object
from repro.group.vgroup import VGroupView, majority_threshold
from repro.net.network import Network
from repro.sim.simulator import Simulator


@dataclass
class NodeBinding:
    """How the messenger is attached to its host node."""

    address: str
    network: Network
    sim: Simulator


@dataclass(slots=True)
class GroupMessageEnvelope:
    """Node-level wire format of one share of a group message.

    One envelope instance is shared by every destination of a burst (and by
    every queued delivery): receivers treat it as read-only.  (``slots`` keeps
    construction and field access on the m×m hot path cheap; the class is not
    frozen because frozen dataclasses construct via ``object.__setattr__``,
    which roughly doubles the per-envelope cost.)

    Attributes:
        gm_id: Identifier of the group message (same for all shares).
        source_group: Group id of the sending vgroup.
        source_epoch: Epoch of the sender's view of its own vgroup.
        target_group: Group id of the destination vgroup.
        kind: Application-level type tag (e.g. ``"gossip"``, ``"walk"``).
        payload: Full payload, or ``None`` when this share carries only a digest.
        digest: Digest of the payload (always present).
        sender_group_size: Size of the sending vgroup (for majority counting).
    """

    gm_id: str
    source_group: str
    source_epoch: int
    target_group: str
    kind: str
    payload: Optional[Any]
    digest: str
    sender_group_size: int


#: Wire size of a full share sent without ``payload_bytes``, and of a
#: digest-only share.
PAYLOAD_BYTES = 1024
DIGEST_BYTES = 96


class _PendingGroupMessage:
    """Receiver-side accumulation state for one (gm_id, digest) pair."""

    __slots__ = ("digest", "senders", "required", "full_payload", "accepted")

    def __init__(self, digest: str, required: int) -> None:
        self.digest = digest
        self.senders: Set[str] = set()
        self.required = required
        self.full_payload: Optional[Any] = None
        self.accepted = False


class GroupMessenger:
    """Per-node component that sends and accepts group messages.

    The host node provides its current view of its own vgroup via
    ``own_view_fn`` and receives accepted group messages through the
    ``on_accept`` callback, which is invoked exactly once per group message
    with ``(kind, payload, source_group, gm_id, senders)``.  ``senders`` is the
    set of source members whose shares counted; it stops growing at delivery
    unless the host asks for later shares with :meth:`count_late_shares`.
    """

    def __init__(
        self,
        binding: NodeBinding,
        own_view_fn: Callable[[], VGroupView],
        on_accept: Callable[[str, Any, str, str, Set[str]], None],
        use_digest_optimization: bool = True,
        source_size_fn: Optional[Callable[[str], Optional[int]]] = None,
    ) -> None:
        self.binding = binding
        self.own_view_fn = own_view_fn
        self.on_accept = on_accept
        self.use_digest_optimization = use_digest_optimization
        # Directory cross-check of the envelope's claimed sender-group size
        # (see handle()): returns the smallest size the directory ever saw
        # for a group id, or None for unknown groups.  ``None`` disables the
        # check (bare messengers without a directory).
        self.source_size_fn = source_size_fn
        # Compiled on_deliver pipeline of the cluster's middleware chain
        # (repro.core.middleware), dispatched just before an accepted group
        # message is delivered.  ``None`` costs one attribute check per
        # *accept* (not per share) and never changes event order, so golden
        # traces are safe.
        self._accept_hooks = None
        self._mw_scenario = ""
        # Accumulation state keyed by gm-id alone (the overwhelmingly common
        # case: one digest per gm-id).  Shares carrying a *different* digest
        # for an already-tracked gm-id — only Byzantine equivocation produces
        # them — accumulate separately in ``_conflicting``, keyed by the full
        # (gm_id, digest) pair, so they can never pollute the honest majority.
        self._pending: Dict[str, _PendingGroupMessage] = {}
        self._conflicting: Dict[Tuple[str, str], _PendingGroupMessage] = {}
        self._delivered_gm_ids: Set[str] = set()
        # gm-id -> sender set of a delivered group message that later shares
        # still add to, while the host asks (count_late_shares / stop_counting).
        self._late_senders: Dict[str, Set[str]] = {}
        # Single-entry cache of the full-copy-vs-digest decision, keyed by the
        # identity of the (immutable) own-view snapshot it was computed for.
        self._send_full_view: Optional[VGroupView] = None
        self._send_full = True
        # Prebound hot-path handles.
        self._send_fanout = binding.network.send_fanout
        self._metrics_increment = binding.sim.metrics.increment
        self._address = binding.address

    def set_middleware_hooks(self, accept_hooks, scenario: str = "") -> None:
        """Install the compiled ``on_deliver`` pipeline for accepted messages."""
        self._accept_hooks = accept_hooks
        self._mw_scenario = scenario

    # ------------------------------------------------------------------ sending

    def _sends_full_copy(self, own_view: VGroupView) -> bool:
        """Whether this node sends full payloads under ``own_view``.

        Digest optimisation: members are ordered deterministically; the first
        majority sends the full payload, the rest send only the digest.
        """
        if own_view is self._send_full_view:
            return self._send_full
        members = own_view.members
        address = self.binding.address
        send_full = (not self.use_digest_optimization) or (
            address in members[: majority_threshold(len(members))]
        ) or (address not in members)
        self._send_full_view = own_view
        self._send_full = send_full
        return send_full

    def send(
        self,
        target_view: VGroupView,
        kind: str,
        payload: Any,
        gm_id: str,
        payload_bytes: Optional[int] = None,
    ) -> None:
        """Send this node's share of a group message to every node of ``target_view``.

        Every correct member of the sending vgroup is expected to make the same
        call with the same ``gm_id`` (they all execute the same decided
        operation, so the id is derived from it); this method sends only the
        local node's shares.
        """
        own_view = self.own_view_fn()
        digest = digest_object(payload)
        send_full = self._sends_full_copy(own_view)
        if send_full:
            size = payload_bytes if payload_bytes is not None else PAYLOAD_BYTES
        else:
            payload = None
            size = DIGEST_BYTES

        envelope = GroupMessageEnvelope(
            gm_id=gm_id,
            source_group=own_view.group_id,
            source_epoch=own_view.epoch,
            target_group=target_view.group_id,
            kind=kind,
            payload=payload,
            digest=digest,
            sender_group_size=own_view.size,
        )
        members = target_view.members
        self._send_fanout(self._address, members, envelope, size)
        self._metrics_increment("group.shares_sent", len(members))

    def send_equivocating(
        self,
        target_view: VGroupView,
        kind: str,
        payload: Any,
        forged_payload: Any,
        gm_id: str,
        payload_bytes: Optional[int] = None,
    ) -> None:
        """Byzantine equivocation: conflicting shares to halves of the target.

        The first half of the destination vgroup receives ``payload``, the
        second half ``forged_payload`` — same ``gm_id``, different digests.
        Receivers accumulate the conflicting digest in its own equivocation
        bucket (see :meth:`handle`), so a Byzantine minority can never push
        the forged variant past the majority-acceptance rule.  Both shares
        carry full payloads: an equivocator gains nothing from the digest
        optimisation and a full forged copy is the stronger attack.
        """
        own_view = self.own_view_fn()
        size = payload_bytes if payload_bytes is not None else PAYLOAD_BYTES
        members = target_view.members
        half = len(members) // 2
        honest_targets, forged_targets = members[:half], members[half:]
        for chunk, chunk_payload in ((honest_targets, payload), (forged_targets, forged_payload)):
            if not chunk:
                continue
            envelope = GroupMessageEnvelope(
                gm_id=gm_id,
                source_group=own_view.group_id,
                source_epoch=own_view.epoch,
                target_group=target_view.group_id,
                kind=kind,
                payload=chunk_payload,
                digest=digest_object(chunk_payload),
                sender_group_size=own_view.size,
            )
            self._send_fanout(self._address, chunk, envelope, size)
        self._metrics_increment("group.shares_sent", len(members))
        self._metrics_increment("group.equivocations_sent")

    # ---------------------------------------------------------------- receiving

    def handle(self, envelope: GroupMessageEnvelope, sender: str) -> None:
        """Process one share of a group message arriving from ``sender``."""
        gm_id = envelope.gm_id
        if gm_id in self._delivered_gm_ids:
            late = self._late_senders.get(gm_id)
            if late is not None:
                late.add(sender)
            return
        digest = envelope.digest
        pending = self._pending
        state = pending.get(gm_id)
        if state is None:
            size = envelope.sender_group_size
            state = pending[gm_id] = _PendingGroupMessage(
                digest, (size if size > 1 else 1) // 2 + 1
            )
        elif state.digest != digest:
            # Equivocation: a share whose digest disagrees with the tracked
            # one accumulates in its own (gm_id, digest) bucket.
            key = (gm_id, digest)
            state = self._conflicting.get(key)
            if state is None:
                size = envelope.sender_group_size
                state = self._conflicting[key] = _PendingGroupMessage(
                    digest, (size if size > 1 else 1) // 2 + 1
                )
        payload = envelope.payload
        if payload is not None and state.full_payload is None:
            # Adopt a full copy only if it digests to the digest the share
            # votes for (the verify_share check, inlined: one memo hit for a
            # sealed broadcast).  Otherwise one Byzantine member whose share
            # arrives first could attach a forged payload to the honest
            # digest and have it delivered by the honest majority's votes.
            if digest_object(payload) != digest:
                self._metrics_increment("group.payload_digest_mismatch")
                return
            state.full_payload = payload
        senders = state.senders
        senders.add(sender)

        if not state.accepted and len(senders) >= state.required:
            # Forged-size rejection: the claimed sender-group size sets the
            # acceptance threshold, so a Byzantine minority could lie it down
            # to 1 and push a message through alone.  Cross-check against the
            # directory's smallest-ever size of the source group: the claim
            # may never *lower* the majority below the directory's view.
            # Honest shares always carry a size >= that minimum (shares are
            # stamped with the size at send time), so this never blocks an
            # honest group message and never changes event order.
            if self.source_size_fn is not None:
                known_size = self.source_size_fn(envelope.source_group)
                if known_size is not None and len(senders) < majority_threshold(
                    known_size
                ):
                    self._metrics_increment("group.forged_size_rejected")
                    return
            state.accepted = True
        if state.accepted and state.full_payload is not None:
            # Accepted with a full copy available: deliver exactly once, then
            # retire the accumulation state — later shares of this gm-id short
            # circuit on the O(1) delivered-set lookup above.
            self._delivered_gm_ids.add(gm_id)
            pending.pop(gm_id, None)
            if self._conflicting:
                # Retire every equivocating bucket of this gm-id too, or they
                # would linger forever (the delivered-set short-circuits all
                # future shares).  Only populated under Byzantine
                # equivocation, so the scan is effectively free.
                for key in [k for k in self._conflicting if k[0] == gm_id]:
                    del self._conflicting[key]
            self._metrics_increment("group.messages_accepted")
            hooks = self._accept_hooks
            if hooks is not None:
                ctx = MiddlewareContext(
                    "on_deliver",
                    now=self.binding.sim.now,
                    scenario=self._mw_scenario,
                    channel="group",
                    receiver=self._address,
                    address=self._address,
                    payload=envelope,
                    senders=senders,
                )
                for hook in hooks:
                    hook(ctx)
                    if ctx.stop:
                        break
            self.on_accept(
                envelope.kind, state.full_payload, envelope.source_group, gm_id, senders
            )

    def count_late_shares(self, gm_id: str, senders: Set[str]) -> None:
        """Add the sender of every later share of delivered ``gm_id`` to ``senders``."""
        self._late_senders[gm_id] = senders

    def stop_counting(self, gm_id: str) -> None:
        self._late_senders.pop(gm_id, None)

    def retire_pending(self, prefix: str) -> None:
        """Drop the not-yet-accepted state of every gm-id starting with ``prefix``.

        For group messages the host no longer needs: a share that arrives
        later starts a fresh count.  Counted as ``group.pending_retired``.
        """
        retired = 0
        pending, conflicting = self._pending, self._conflicting
        if pending:
            stale = [k for k, s in pending.items() if not s.accepted and k.startswith(prefix)]
            for gm_id in stale:
                del pending[gm_id]
            retired += len(stale)
        if conflicting:
            split = [k for k, s in conflicting.items() if not s.accepted and k[0].startswith(prefix)]
            for key in split:
                del conflicting[key]
            retired += len(split)
        if retired:
            self._metrics_increment("group.pending_retired", retired)

    def verify_share(self, envelope: GroupMessageEnvelope) -> bool:
        """Payload-digest verification of one full share.

        A share carrying a full payload must digest to the envelope's
        ``digest`` field; anything else is wire corruption (or tampering)
        and must be discarded before it can pollute accumulation state —
        :meth:`handle` applies the same check before adopting a full copy.
        Digest-only shares carry nothing to verify — a corrupted digest is
        indistinguishable from an equivocating digest and lands in its own
        conflicting bucket, where it can never reach a majority.
        """
        if envelope.payload is None:
            return True
        return digest_object(envelope.payload) == envelope.digest

    def handle_corrupted(self, envelope: GroupMessageEnvelope, sender: str) -> None:
        """Process a share whose bits were flipped in transit.

        Models the corruption, then runs the digest verification: a flipped
        full share is a whole frame lost — its payload no longer matches the
        envelope's digest, so it is discarded without casting a vote, even
        for a gm-id whose full copy is already adopted (where :meth:`handle`
        would not look at the payload again).  A share that (impossibly, for
        a collision-resistant digest) still verified would be processed
        normally.
        """
        if envelope.payload is not None:
            tampered = replace(envelope, payload=("bitflip", envelope.payload))
        else:
            # Digest-only share: the flip garbles the digest itself.
            tampered = replace(envelope, digest="bitflip:" + envelope.digest)
        if not self.verify_share(tampered):
            self._metrics_increment("group.corrupted_shares_dropped")
            return
        self.handle(tampered, sender)

    # ----------------------------------------------------------------- queries

    def pending_count(self) -> int:
        return len(self._pending) + len(self._conflicting)


__all__ = ["GroupMessenger", "GroupMessageEnvelope", "NodeBinding"]
