"""Heartbeats and eviction of unresponsive vgroup members (paper section 5.1).

Every node periodically sends a heartbeat to its vgroup peers.  A peer that
misses a configurable number of consecutive heartbeats is *suspected*; once a
node suspects a peer it proposes an eviction through the vgroup's SMR engine,
and when the eviction is decided the group reconfigures exactly as it does for
a voluntary leave.  Heartbeats are deliberately coarse-grained (a minute in
the paper) so that slow-but-correct nodes are not evicted under asynchrony.

The detector's output depends only on the latest arrival per peer, so a
heartbeat is not a message event: the transport keeps each tick's send as one
burst under its sender, and a monitor's tick asks it, per peer, when that
peer's latest burst to this node arrived (:meth:`Network.heard
<repro.net.network.Network.heard>`).

Nor is a tick an event of its own.  One :class:`HeartbeatClock` per cluster
drives every running monitor (a timing wheel with a single slot, after
Varghese and Lauck): while any monitor runs it keeps exactly one pending
event, and each period that event ticks every running monitor once, in start
order.  Its grid is 0, P, 2P, ..., accumulated by adding P, so a monitor that
starts at 0 and never restarts ticks at the times a private timer chain
would.  ``start()`` ticks at once and joins the clock; ``stop()`` leaves it.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Sequence

from repro.net.message import Heartbeat
from repro.sim.simulator import Simulator


#: Consecutive missed heartbeats after which a peer is considered
#: unresponsive and an eviction is proposed.  The cluster ages suspicion
#: reports out after the same ``period * MISSES_BEFORE_EVICTION``.
MISSES_BEFORE_EVICTION = 3


class HeartbeatClock:
    """The one timer behind every heartbeat monitor of a cluster.

    While a monitor is enrolled the clock keeps one pending event on the grid
    0, ``period``, 2 ``period``, ...; each sweep ticks the enrolled monitors
    once, in the order they started, then re-arms.  With nobody enrolled it
    lets the queue drain, and the next :meth:`enroll` re-arms it at the next
    point of the same grid.
    """

    def __init__(self, sim: Simulator, period: float) -> None:
        self.sim = sim
        #: The heartbeat period (60 s in the paper): the send cadence and,
        #: times ``MISSES_BEFORE_EVICTION``, every monitor's deadline.
        self.period = period
        # Running monitors in start order (a dict: O(1) leave, ordered sweep).
        self._monitors: Dict["HeartbeatMonitor", None] = {}
        self._armed = False
        # The pending sweep's grid time, or the last one's while unarmed.
        self._grid = 0.0

    def enroll(self, monitor: "HeartbeatMonitor") -> None:
        self._monitors[monitor] = None
        if not self._armed:
            self._armed = True
            now = self.sim.now
            at = self._grid
            while at <= now:
                at += self.period
            self._grid = at
            self.sim.schedule_at(at, self._sweep, tag="hb.clock")

    def leave(self, monitor: "HeartbeatMonitor") -> None:
        self._monitors.pop(monitor, None)

    def _sweep(self) -> None:
        sim = self.sim
        now = self._grid = sim._now
        # A snapshot: a suspicion can stop (or restart) a monitor mid-sweep.
        # Stopped monitors are skipped, and so is one that already ticked at
        # this instant because it started here.
        for monitor in tuple(self._monitors):
            if monitor.running and monitor._ticked_at != now:
                monitor._ticked_at = now
                monitor._tick(now)
        if self._monitors:
            sim.schedule(self.period, self._sweep, tag="hb.clock")
        else:
            self._armed = False


class HeartbeatMonitor:
    """Per-node heartbeat sender and failure detector.

    The host wires the monitor with a ``send_fn(peers, heartbeat)`` that emits
    one heartbeat to every address in ``peers`` (one same-payload fan-out per
    tick), a ``heard_fn(peer, address, now)`` that returns when ``address``
    last heard ``peer``'s heartbeat by ``now``, ``-inf`` if never
    (:meth:`Network.heard <repro.net.network.Network.heard>`), a ``peers_fn()``
    returning the current vgroup members (the host included), a
    ``suspect_fn(peer)`` invoked when a peer should be evicted and the
    cluster's :class:`HeartbeatClock`, which ticks it once per period while it
    runs.  ``start()`` ticks at once and enrolls with the clock; ``stop()``
    leaves it.  A monitor ticks at most once per instant.
    """

    def __init__(
        self,
        sim: Simulator,
        address: str,
        peers_fn: Callable[[], Iterable[str]],
        send_fn: Callable[[Sequence[str], Heartbeat], object],
        heard_fn: Callable[[str, str, float], float],
        suspect_fn: Callable[[str], None],
        clock: HeartbeatClock,
    ) -> None:
        self.sim = sim
        self.address = address
        self.peers_fn = peers_fn
        self.send_fn = send_fn
        self.heard_fn = heard_fn
        self.suspect_fn = suspect_fn
        self.clock = clock
        self.last_seen: Dict[str, float] = {}
        self.suspected: set = set()
        self.running = False
        # The instant of the latest tick: a monitor ticks at most once per instant.
        self._ticked_at = -math.inf
        self._heartbeat = Heartbeat(address)
        # Peer-set cache keyed on the identity of the object ``peers_fn``
        # returns: vgroup views hand out the same immutable members tuple
        # until the next reconfiguration.  Under churn most ticks see a new
        # view (53 % on the ``churn_hb`` benchmark workload), so the rebuild
        # itself is two C-level operations, not a Python loop.
        self._peers_obj: object = None
        self._peer_set: frozenset = frozenset()
        self._others: tuple = ()

    # ---------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Begin sending heartbeats and checking peers: tick now, then on
        every sweep of the clock.

        A (re)starting monitor grants every peer a fresh deadline: a node
        recovering from a crash would otherwise compare ``now`` against
        pre-crash ``last_seen`` timestamps and instantly mass-suspect every
        correct peer — and a handful of such recoveries would assemble a
        wrongful eviction majority.  The fresh deadline starts now, so no
        heartbeat that arrived before the start counts.
        """
        if self.running:
            return
        self.running = True
        self.last_seen.clear()
        self.suspected.clear()
        now = self.sim._now
        if self._ticked_at != now:
            self._ticked_at = now
            self._tick(now)
        self.clock.enroll(self)

    def stop(self) -> None:
        """Stop sending and checking, and leave the clock."""
        self.running = False
        self.clock.leave(self)

    # ----------------------------------------------------------------- protocol

    def _tick(self, now: float) -> None:
        peers = self.peers_fn()
        if not isinstance(peers, tuple):
            peers = tuple(peers)
        if peers is not self._peers_obj:
            self._peers_obj = peers
            self._peer_set = frozenset(peers)
            if self.address in self._peer_set:
                index = peers.index(self.address)
                self._others = peers[:index] + peers[index + 1 :]
            else:
                self._others = peers
        others = self._others
        if others:
            self.send_fn(others, self._heartbeat)
        # One scan seeds peers not heard from yet, reads what the others'
        # heartbeats say and tests the deadline.  A seed is ``now``, so an
        # arrival only counts if it is later than the peer's first tick here.
        # The ordered walk of ``last_seen`` (whose order the eviction vote can
        # observe through ``suspect_fn``) runs only when it has something to
        # do: a late peer, or an entry that is not a current peer.
        last_seen = self.last_seen
        suspected = self.suspected
        heard = self.heard_fn
        address = self.address
        deadline = self.clock.period * MISSES_BEFORE_EVICTION
        late = False
        for peer in others:
            seen_at = last_seen.get(peer)
            if seen_at is None:
                last_seen[peer] = now
                continue
            arrival = heard(peer, address, now)
            if arrival > seen_at:
                last_seen[peer] = seen_at = arrival
                suspected.discard(peer)
            if now - seen_at > deadline:
                late = True
        if late or len(last_seen) != len(others):
            self._check_peers(now, deadline)

    def _check_peers(self, now: float, deadline: float) -> None:
        current_peers = self._peer_set
        suspected = self.suspected
        last_seen = self.last_seen
        for peer, seen_at in list(last_seen.items()):
            if peer not in current_peers:
                # A peer that left the view: under churn half the ticks purge one.
                del last_seen[peer]
                suspected.discard(peer)
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


__all__ = ["Heartbeat", "HeartbeatClock", "HeartbeatMonitor", "MISSES_BEFORE_EVICTION"]
