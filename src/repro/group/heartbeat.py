"""Heartbeats and eviction of unresponsive vgroup members (paper section 5.1).

Every node periodically sends a heartbeat to its vgroup peers.  A peer that
misses a configurable number of consecutive heartbeats is *suspected*; once a
node suspects a peer it proposes an eviction through the vgroup's SMR engine,
and when the eviction is decided the group reconfigures exactly as it does for
a voluntary leave.  Heartbeats are deliberately coarse-grained (a minute in
the paper) so that slow-but-correct nodes are not evicted under asynchrony.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Sequence

from repro.sim.simulator import Simulator


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Wire payload of a heartbeat message."""

    sender: str
    group_id: str
    sequence: int


@dataclass
class HeartbeatConfig:
    """Timing of the heartbeat/eviction mechanism.

    Attributes:
        period: Interval between heartbeats (60 s in the paper).  Runtime
            changes go through :meth:`HeartbeatMonitor.set_period` and take
            effect at the *next* tick — see the monitor's adoption rules; the
            monitor reads this field at construction only.
        misses_before_eviction: Consecutive missed heartbeats after which a
            peer is considered unresponsive and an eviction is proposed.
            Adaptation-immutable: policies adjust ``period`` only, so the
            suspicion deadline scales with the send cadence.
    """

    period: float = 60.0
    misses_before_eviction: int = 3


class HeartbeatMonitor:
    """Per-node heartbeat sender and failure detector.

    The host wires the monitor with a ``send_fn(peers, heartbeat)`` that emits
    one heartbeat to every address in ``peers`` (one same-payload fan-out per
    tick), a ``peers_fn()`` returning the current vgroup peers, and a
    ``suspect_fn(peer)`` invoked when a peer should be evicted.
    """

    def __init__(
        self,
        sim: Simulator,
        address: str,
        group_id_fn: Callable[[], str],
        peers_fn: Callable[[], Iterable[str]],
        send_fn: Callable[[Sequence[str], Heartbeat], None],
        suspect_fn: Callable[[str], None],
        config: HeartbeatConfig | None = None,
    ) -> None:
        self.sim = sim
        self.address = address
        self.group_id_fn = group_id_fn
        self.peers_fn = peers_fn
        self.send_fn = send_fn
        self.suspect_fn = suspect_fn
        self.config = config or HeartbeatConfig()
        # Effective period used by both the send and suspicion paths.  It is
        # only ever replaced at a tick boundary (see _adopt_period): reading
        # ``config.period`` live in ``_check_peers`` while rescheduling with a
        # different value aliased the two paths, and a shrinking period would
        # instantly mass-suspect every peer whose (previously healthy) age
        # exceeded the new, smaller deadline.
        self._period = self.config.period
        self._pending_period: float | None = None
        self.sequence = 0
        self.last_seen: Dict[str, float] = {}
        self.suspected: set = set()
        self.running = False
        # Peer-set cache keyed on the identity of the object ``peers_fn``
        # returns: vgroup views hand out the same immutable members tuple
        # until the next reconfiguration, so the per-tick cost stays
        # proportional to the monitored peers with no per-tick set building.
        self._peers_obj: object = None
        self._peer_set: frozenset = frozenset()
        self._others: tuple = ()

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Begin sending heartbeats and checking peers.

        A (re)starting monitor grants every peer a fresh deadline: a node
        recovering from a crash would otherwise compare ``now`` against
        pre-crash ``last_seen`` timestamps and instantly mass-suspect every
        correct peer — and a handful of such recoveries would assemble a
        wrongful eviction majority.
        """
        if self.running:
            return
        self.running = True
        self.last_seen.clear()
        self.suspected.clear()
        self._tick()

    def stop(self) -> None:
        self.running = False

    def set_period(self, period: float) -> None:
        """Request a new heartbeat period, adopted at the next tick.

        The change applies atomically to both the send cadence and the
        suspicion deadline at the start of the next ``_tick`` — never
        mid-tick, so one tick can never send on the old period while judging
        peers against the new deadline (or vice versa).  When the deadline
        shrinks, peers that are not already suspected are granted a fresh
        deadline (the same rule :meth:`start` applies after a recovery), so
        tightening the period can never instantly mass-suspect a healthy
        group whose heartbeats were timed against the old, longer period.
        """
        if period <= 0:
            raise ValueError(f"heartbeat period must be positive, got {period!r}")
        self._pending_period = period

    # ----------------------------------------------------------------- protocol

    def _adopt_period(self) -> None:
        """Adopt a pending period change at a tick boundary (see set_period)."""
        pending = self._pending_period
        if pending is None:
            return
        self._pending_period = None
        misses = self.config.misses_before_eviction
        old_deadline = self._period * misses
        new_deadline = pending * misses
        self._period = pending
        self.config.period = pending
        if new_deadline < old_deadline:
            now = self.sim.now
            suspected = self.suspected
            for peer, seen_at in self.last_seen.items():
                if peer not in suspected and now - seen_at > new_deadline:
                    self.last_seen[peer] = now

    def _tick(self) -> None:
        if not self.running:
            return
        self._adopt_period()
        self.sequence += 1
        group_id = self.group_id_fn()
        heartbeat = Heartbeat(sender=self.address, group_id=group_id, sequence=self.sequence)
        now = self.sim.now
        peers = self.peers_fn()
        if not isinstance(peers, tuple):
            peers = tuple(peers)
        if peers is not self._peers_obj:
            self._peers_obj = peers
            self._peer_set = frozenset(peers)
            address = self.address
            self._others = tuple(peer for peer in peers if peer != address)
        others = self._others
        if others:
            self.send_fn(others, heartbeat)
        last_seen = self.last_seen
        for peer in others:
            if peer not in last_seen:
                last_seen[peer] = now
        self._check_peers()
        self.sim.schedule(self._period, self._tick, tag=f"{self.address}:hb")

    def observe(self, heartbeat: Heartbeat) -> None:
        """Record a heartbeat received from a peer."""
        self.last_seen[heartbeat.sender] = self.sim.now
        self.suspected.discard(heartbeat.sender)

    def forget(self, peer: str) -> None:
        """Drop state about a peer that left or was evicted."""
        self.last_seen.pop(peer, None)
        self.suspected.discard(peer)

    def _check_peers(self) -> None:
        deadline = self._period * self.config.misses_before_eviction
        now = self.sim.now
        current_peers = self._peer_set
        suspected = self.suspected
        for peer, seen_at in list(self.last_seen.items()):
            if peer not in current_peers:
                self.forget(peer)
                continue
            if now - seen_at > deadline:
                if peer not in suspected:
                    suspected.add(peer)
                    self.sim.metrics.increment("group.evictions_proposed")
                # Re-report every tick while the peer stays unresponsive:
                # eviction votes age out at the cluster (so a Byzantine
                # minority cannot bank stale accusations), which means live
                # suspicions must keep refreshing or a genuinely dead peer
                # whose accusers' reports expired could linger forever.
                self.suspect_fn(peer)


__all__ = ["Heartbeat", "HeartbeatConfig", "HeartbeatMonitor"]
