"""Post-partition anti-entropy: digest-exchange repair of missed broadcasts.

Gossip dissemination is best-effort while the network is degraded: shares
dropped by a partition are never retransmitted, so a vgroup (or a side of a
side-preserving split) that missed a broadcast stays divergent forever after
the heal.  This module adds the repair layer the ROADMAP calls for — and
that the policy-free-middleware line of work argues must be a first-class
layer rather than an assumption: each node exchanges a compact summary of
the broadcast ids it has delivered with gossip neighbours (vgroup
co-members and members of H-graph neighbour vgroups), detects gaps in
either direction, and re-requests or re-supplies the missing payloads.

Summaries run on the Trickle timer checkpoint announces use
(:class:`~repro.sim.trickle.Trickle`): every ``PERIOD`` while something
disagrees, doubling after every summary round in which a peer was heard, up
to ``MAX_PERIODS`` periods while the peers agree -- so a healthy quiet
system stops paying for repair it does not need.  A received summary is
*inconsistent* when it names ids the receiver lacks (the receiver pulls
them) or lacks ids the receiver delivered at least ``2 * REPAIR_MIN_AGE``
ago; an inconsistent summary resets the receiver's interval.  When the
*sender* is the one behind, the receiver also answers it at once with its
own summary, marked as a reply (``ae.reply``), which is never answered in
turn.  A node that hears nothing -- cut off -- keeps summarizing every
``PERIOD``, so within a period of the heal a peer finds it behind and
answers it.

A summary carries broadcast ids only.  A PBFT replica that falls behind its
vgroup's log learns so from the SMR engine's own checkpoint machinery
(:mod:`repro.smr.checkpoint`), never from this layer.

Repair never bypasses the safety machinery it heals:

* **Cross-group repair** re-sends this node's *own share* of the broadcast
  through :class:`~repro.group.messages.GroupMessenger` under the same
  deterministic gm-id ordinary forwarding uses, so re-sent shares combine
  with any shares that survived the partition and the receiving vgroup
  still accepts only on a strict majority of the sender vgroup.  A hint to
  co-members makes the rest of the local vgroup re-send their shares too,
  so a majority accumulates within a couple of periods.
* **Intra-group repair** re-*proposes* the broadcast operation through the
  vgroup's own SMR engine (the agreement primitive), which re-decides it at
  every member; nodes that already delivered dedup on the broadcast id.

All randomness (peer choice) comes from a dedicated per-node seeded stream
(``antientropy.<address>``), created only when the layer is enabled, so
runs without anti-entropy are byte-identical to builds without this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.core.middleware import Middleware, MiddlewareContext
from repro.net.requests import JitteredBackoff, RequestManager, ResponseEnvelope
from repro.sim.trickle import Trickle


#: Shortest interval between summary rounds (Trickle's period; the longest
#: is :data:`~repro.sim.trickle.MAX_PERIODS` of them), the shortest between
#: two replies, and the delay before the first round after a (re)start.
PERIOD = 1.0
START_DELAY = 0.5
#: Peers contacted per tick.
FANOUT = 2
#: Newest delivered broadcast ids per summary.  This is also the repair
#: horizon: a gap older than every peer's window can no longer be detected
#: (``ae.summary_window_truncated`` records when the window saturates), and
#: payloads that age out of it are dropped from the repair store.
MAX_SUMMARY_IDS = 256
#: Only broadcasts delivered at least this long ago are advertised.  Ordinary
#: dissemination is still in flight for younger ones, and repairing a gap the
#: next network hop is about to close anyway would waste bandwidth: a quiet
#: healthy system exchanges summaries but repairs nothing.
REPAIR_MIN_AGE = 2.0
#: Repair actions triggered per incoming message.
MAX_REPAIRS_PER_PEER = 16
#: First-retry spacing of re-sends of one share to one target vgroup, and of
#: SMR re-proposals of one broadcast inside the own vgroup; repeats back off
#: with seeded jitter (:class:`~repro.net.requests.JitteredBackoff`).
RESEND_BACKOFF_BASE = 2.0
REPROPOSE_BACKOFF_BASE = 4.0
#: Responders tried per ``ae.pull`` before giving up (the next summary round
#: re-detects an open gap).
PULL_ATTEMPTS = 3
#: Wire size of a summary/request/hint: fixed part plus per id.
SUMMARY_BYTES_BASE = 48
SUMMARY_BYTES_PER_ID = 8
#: Age after which a *settled* broadcast's payload leaves the repair store
#: (with its backoff state).  Every reachable peer had this long to pull it;
#: keeping settled payloads forever grows the store without bound under
#: sustained traffic (continuous churn especially).
GC_SETTLED_AGE = 120.0

@dataclass(frozen=True)
class AntiEntropyConfig:
    """Turns the repair layer on: ``AtumCluster(antientropy=AntiEntropyConfig())``.

    The layer's timing and sizes are the module constants above, fixed for
    every deployment.
    """


def _is_id_tuple(payload) -> bool:
    """Whether ``payload`` is a tuple of broadcast ids (the summary shape)."""
    return isinstance(payload, tuple) and all(map(isinstance, payload, repeat(str)))


class AntiEntropyRepair:
    """Per-node anti-entropy component (owned by an ``AtumNode``).

    The host node routes the ``ae.summary`` / ``ae.reply`` / ``ae.request`` /
    ``ae.hint`` direct messages here, feeds every delivered broadcast into
    :meth:`on_delivered`, and starts/stops the summary timer alongside its
    membership (started on view install, stopped on leave).
    """

    def __init__(self, node) -> None:
        self.node = node
        self.running = False
        self._trickle = Trickle(node.sim, PERIOD, self._tick, tag="ae.tick")
        self._last_reply = -math.inf
        self._rng = node.sim.rng.stream(f"antientropy.{node.address}")
        # Payloads of delivered broadcasts, kept for repair re-supply.
        self.store: Dict[str, Any] = {}
        # Repair spacing: seeded-jitter exponential backoff per repair key
        # ((bcast_id, target_group) for share re-sends, bcast_id for
        # re-proposals) replaces the old fixed cooldown constants, so
        # repair traffic desynchronises after a heal instead of spiking
        # in lockstep.  The streams are created lazily: a run that never
        # repairs draws nothing.
        stream = f"antientropy.backoff.{node.address}"
        self._resend_backoff = JitteredBackoff(node.sim, stream, RESEND_BACKOFF_BASE)
        self._repropose_backoff = JitteredBackoff(node.sim, stream, REPROPOSE_BACKOFF_BASE)
        # Envelope-wrapped ae.pull requests: correlation, deadlines,
        # rotation over gossip neighbours and the responder scoreboard
        # come from the unified request layer.
        self._requests = RequestManager(
            node.sim,
            node.address,
            self._send_pull,
            stream_name=f"requests.ae.{node.address}",
        )
        # Broadcast ids with a pull in flight (no duplicate pulls).
        self._pending_pull_ids: set = set()
        # The advertised slice of ``node.delivered_order`` and its summary.
        self._summary_span = (0, 0)
        self._summary: Tuple[str, ...] = ()
        # End of the prefix of ``node.delivered_order`` delivered at least
        # 2 * REPAIR_MIN_AGE ago (see _lacks_settled); only ever advanced.
        self._settled_end = 0
        node.register_direct_handler("ae.summary", self._on_summary)
        node.register_direct_handler("ae.reply", partial(self._on_summary, reply=True))
        node.register_direct_handler("ae.request", self._on_request)
        node.register_direct_handler("ae.hint", self._on_hint)

    def _send_pull(self, peer: str, payload: Any, size_bytes: int) -> None:
        self.node.send_direct(peer, "ae.request", payload, size_bytes=size_bytes)

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        self.running = True
        if not self._trickle.armed:
            self._trickle.start(self.node.sim.now + START_DELAY)

    def stop(self) -> None:
        self.running = False

    def on_delivered(self, message) -> None:
        """Record a delivered broadcast's payload for later re-supply.

        The store is bounded by the advertisable summary window: a
        broadcast that fell out of every peer's newest-``MAX_SUMMARY_IDS``
        summary can never be requested again (repair is pull-only), so its
        payload — and its repair cooldowns — are dropped.  The trim runs at
        25% slack so it costs one pass per quarter-window of deliveries.
        """
        self.store[message.bcast_id] = message
        cap = MAX_SUMMARY_IDS
        if len(self.store) > cap + cap // 4:
            advertisable = set(self.node.delivered_order[-cap:])
            for bcast_id in [b for b in self.store if b not in advertisable]:
                del self.store[bcast_id]
            self._forget_repair_state(lambda b: b not in advertisable)

    def _forget_repair_state(self, dropped) -> None:
        """Drop backoff state for broadcasts matching ``dropped``."""
        self._resend_backoff.prune(lambda key: dropped(key[0]))
        self._repropose_backoff.prune(dropped)

    # -------------------------------------------------------------------- ticks

    def _tick(self) -> bool:
        """One summary round; whether the timer goes on (see :class:`Trickle`)."""
        if not self.running:
            return False
        node = self.node
        if not node.is_correct or not node.is_member:
            return True
        self._gc_settled()
        peers = self._peer_candidates()
        if not peers:
            return True
        count = min(FANOUT, len(peers))
        self._send_summary(self._rng.sample(peers, count), "ae.summary")
        node.sim.metrics.increment("ae.summaries_sent", count)
        self._trickle.sent()
        return True

    def _send_summary(self, peers, kind: str) -> None:
        """Send this node's summary to ``peers`` as an ``ae.summary`` or ``ae.reply``.

        The summary is the delivered-id window alone; repair direction is
        carried by the ae.request reply (which names the *requester's*
        group).
        """
        summary = self._summary_ids()
        size = SUMMARY_BYTES_BASE + SUMMARY_BYTES_PER_ID * len(summary)
        self.node.send_direct_many(peers, kind, summary, size_bytes=size)

    def _gc_settled(self) -> None:
        """Drop settled payloads (and their cooldowns) from the repair store.

        A payload delivered more than ``GC_SETTLED_AGE`` ago had dozens of
        summary periods to be pulled by any reachable peer; holding it
        longer only grows the store without bound under sustained traffic.
        Gaps older than that horizon are beyond this node's repair reach
        (a co-member with a fresher copy, or nobody, serves them).
        """
        if not self.store:
            return
        cutoff = self.node.sim.now - GC_SETTLED_AGE
        delivered = self.node.delivered
        # The store is insertion-ordered by delivery and the clock monotone,
        # so the stale payloads are a prefix: most ticks look at one entry.
        stale = []
        for bcast_id in self.store:
            if not delivered.get(bcast_id, cutoff) < cutoff:
                break
            stale.append(bcast_id)
        if not stale:
            return
        for bcast_id in stale:
            del self.store[bcast_id]
        stale_set = set(stale)
        self._forget_repair_state(lambda b: b in stale_set)
        self.node.sim.metrics.increment("ae.store_gc_dropped", len(stale))

    def _peer_candidates(self) -> List[str]:
        """Gossip neighbours, in deterministic order: co-members, then members
        of H-graph cycle-neighbour vgroups (the directory's per-group list)."""
        node = self.node
        view = node.vgroup_view
        if view is None:
            return []
        candidates: List[str] = [m for m in view.members if m != node.address]
        candidates.extend(node.directory.neighbour_members(view.group_id))
        return candidates

    def _summary_ids(self) -> Tuple[str, ...]:
        """The newest ``MAX_SUMMARY_IDS`` ids delivered ``REPAIR_MIN_AGE`` ago.

        ``delivered_order`` is append-only and delivery times come from a
        monotone clock, so "old enough" is a prefix of it: its end is kept and
        only advanced, and one tuple serves while neither end of the slice moves.
        """
        node = self.node
        order = node.delivered_order
        total = len(order)
        start = total - MAX_SUMMARY_IDS
        if start > 0:
            # Gaps older than every peer's window become unrepairable; the
            # counter makes the coverage cap observable instead of silent.
            node.sim.metrics.increment("ae.summary_window_truncated")
        else:
            start = 0
        threshold = node.sim.now - REPAIR_MIN_AGE
        delivered = node.delivered
        end = self._summary_span[1]
        while end < total and delivered[order[end]] <= threshold:
            end += 1
        if (start, end) != self._summary_span:
            self._summary_span = (start, end)
            self._summary = tuple(order[start:end])
        return self._summary

    def _lacks_settled(self, peer_ids) -> bool:
        """Whether ``peer_ids`` lacks an id delivered here ``2 * REPAIR_MIN_AGE`` ago.

        The peer advertises what it delivered ``REPAIR_MIN_AGE`` ago, so an
        id this node has held twice as long is one the peer should have
        advertised unless it is behind.  Only the newest half-window is
        compared: the peer's window is its own newest ``MAX_SUMMARY_IDS``,
        and its delivery order differs from ours.
        """
        node = self.node
        order = node.delivered_order
        threshold = node.sim.now - 2.0 * REPAIR_MIN_AGE
        delivered = node.delivered
        end, total = self._settled_end, len(order)
        while end < total and delivered[order[end]] <= threshold:
            end += 1
        self._settled_end = end
        start = max(0, total - MAX_SUMMARY_IDS // 2)
        return end > start and not set(peer_ids).issuperset(order[start:end])

    # ----------------------------------------------------------------- handlers

    def _on_summary(self, peer_ids, sender: str, reply: bool = False) -> None:
        """Pull what the summary names and we lack; reset and answer on a gap.

        Pull-only: the requester knows *exactly* what it lacks, so gaps
        detected here are real.  (Pushing on a summary *difference* would
        compare two age-filtered snapshots taken at different times and
        re-send shares for deliveries that are merely in flight.)  A sender
        that is behind gets this node's own summary at once instead, so it
        can pull in turn -- at most one reply per ``PERIOD``, and never to
        a reply, so no peer can make a node answer faster than that.
        """
        node = self.node
        if not node.is_correct or not node.is_member:
            return
        if not _is_id_tuple(peer_ids):
            node.sim.metrics.increment("ae.rejected_malformed")
            return
        self._trickle.hear()
        delivered = node.delivered
        missing_here = [b for b in peer_ids if b not in delivered]
        if missing_here:
            pending = self._pending_pull_ids
            wanted = [b for b in missing_here if b not in pending]
            if wanted:
                self._issue_pull(sender, tuple(wanted[:MAX_REPAIRS_PER_PEER]))
        behind = self._lacks_settled(peer_ids)
        if (missing_here or behind) and self._trickle.reset():
            node.sim.metrics.increment("ae.summary_resets")
        now = node.sim.now
        if behind and not reply and now - self._last_reply >= PERIOD:
            self._last_reply = now
            self._send_summary((sender,), "ae.reply")
            node.sim.metrics.increment("ae.summary_replies")

    def _issue_pull(self, sender: str, wanted: Tuple[str, ...]) -> None:
        """Pull missing broadcasts through the unified request layer.

        The summary sender — the one peer known to hold the missing ids —
        is tried first; on timeout or an empty-handed reply the request
        rotates through the other gossip neighbours in that order (a bounded
        request keeps the caller's order), up to ``PULL_ATTEMPTS`` peers.
        Satisfaction is *delivery*: an honest server repairs through
        gossip/SMR side channels, so the pull completes quietly once the
        ids land — only servers that neither replied nor repaired in time
        accrue timeout suspicion.
        """
        node = self.node
        candidates = [sender] + [
            p for p in self._peer_candidates() if p != sender
        ]
        group_id = node.vgroup_view.group_id
        delivered = node.delivered
        wanted_set = set(wanted)

        def _verdict(payload, responder: str) -> Optional[str]:
            if not isinstance(payload, tuple):
                return "garbage"
            if not payload:
                return "stale"  # empty-handed: rotate to the next neighbour
            return None  # acked; wait for the gossip-side repair to land

        self._requests.request(
            "ae.pull",
            (group_id, wanted),
            candidates,
            on_response=_verdict,
            satisfied=lambda: all(b in delivered for b in wanted),
            on_done=lambda: self._pending_pull_ids.difference_update(wanted_set),
            size_bytes=SUMMARY_BYTES_BASE + SUMMARY_BYTES_PER_ID * len(wanted),
            max_attempts=PULL_ATTEMPTS,
        )
        self._pending_pull_ids.update(wanted_set)
        node.sim.metrics.increment("ae.requests_sent")

    def _on_request(self, payload, sender: str) -> None:
        node = self.node
        if not node.is_correct or not node.is_member:
            return
        if isinstance(payload, ResponseEnvelope):
            self._requests.on_envelope(payload, sender)
            return
        envelope = self._requests.validate_request(payload, "ae.pull", sender)
        if envelope is None:
            return
        inner = envelope.payload
        if (
            not isinstance(inner, tuple)
            or len(inner) != 2
            or not isinstance(inner[1], tuple)
        ):
            node.sim.metrics.increment("req.rejected_malformed")
            return
        requester_group, wanted = inner
        held = [b for b in wanted if b in self.store][:MAX_REPAIRS_PER_PEER]
        ack = tuple(held)
        size = SUMMARY_BYTES_BASE + SUMMARY_BYTES_PER_ID * len(ack)
        self._requests.respond(envelope, ack, size_bytes=size)
        if held:
            self._repair(held, requester_group, hint=True)

    def _on_hint(self, payload, sender: str) -> None:
        """A co-member noticed ``target_group`` misses ids we may hold."""
        node = self.node
        if not node.is_correct or not node.is_member:
            return
        view = node.vgroup_view
        if sender not in view.members:
            return
        if not (
            isinstance(payload, tuple)
            and len(payload) == 2
            and isinstance(payload[0], str)
            and _is_id_tuple(payload[1])
        ):
            node.sim.metrics.increment("ae.rejected_malformed")
            return
        target_group, ids = payload
        held = [b for b in ids if b in self.store]
        if held:
            # No further hinting: hints fan out one intra-group hop only.
            self._repair(held[:MAX_REPAIRS_PER_PEER], target_group, hint=False)

    # ------------------------------------------------------------------- repair

    def _repair(self, bcast_ids, target_group: str, hint: bool) -> None:
        node = self.node
        view = node.vgroup_view
        if view is None:
            return
        if target_group == view.group_id:
            # Intra-group gap: go through the vgroup's own agreement engine.
            for bcast_id in bcast_ids:
                message = self.store.get(bcast_id)
                if message is None:
                    continue
                if not self._repropose_backoff.attempt(bcast_id):
                    continue
                if node.repropose_broadcast(message):
                    node.sim.metrics.increment("ae.reproposals")
            return
        target_view = node.directory.view_of_group(target_group)
        if target_view is None:
            return
        resent: List[str] = []
        for bcast_id in bcast_ids:
            message = self.store.get(bcast_id)
            if message is None:
                continue
            if not self._resend_backoff.attempt((bcast_id, target_group)):
                continue
            # Same deterministic gm-id as ordinary forwarding, so re-sent
            # shares combine with shares that survived the partition and the
            # target still accepts only on a sender-vgroup majority.
            gm_id = f"gossip:{bcast_id}:{view.group_id}->{target_group}"
            node.messenger.send(
                target_view,
                "gossip",
                message,
                gm_id=gm_id,
                payload_bytes=message.size_bytes + 64,
            )
            node.sim.metrics.increment("ae.shares_resent")
            resent.append(bcast_id)
        if hint and resent:
            payload = (target_group, tuple(resent))
            size = SUMMARY_BYTES_BASE + SUMMARY_BYTES_PER_ID * len(resent)
            others = [member for member in view.members if member != node.address]
            if others:
                node.send_direct_many(others, "ae.hint", payload, size_bytes=size)
                node.sim.metrics.increment("ae.hints_sent", len(others))


class AntiEntropyTap(Middleware):
    """Feeds broadcast deliveries to each node's repair actor.

    The summary tap of the repair layer: every broadcast a node delivers
    enters that node's :class:`AntiEntropyRepair` store so later digest
    exchanges can advertise (and re-supply) it.  Installed automatically by
    ``AtumCluster`` whenever an :class:`AntiEntropyConfig` is set.  Pure
    store mutation — no RNG draws, no scheduled events — so its position in
    the ``on_deliver`` pipeline never affects the event trace.
    """

    def on_deliver(self, ctx: MiddlewareContext) -> None:
        if ctx.channel != "broadcast":
            return
        repair = ctx.node.antientropy
        if repair is not None:
            repair.on_delivered(ctx.payload)


__all__ = ["AntiEntropyConfig", "AntiEntropyRepair", "AntiEntropyTap"]
