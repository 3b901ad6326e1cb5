"""Heartbeats and eviction of unresponsive vgroup members (paper section 5.1).

Every node periodically sends a heartbeat to its vgroup peers.  A peer that
misses a configurable number of consecutive heartbeats is *suspected*; once a
node suspects a peer it proposes an eviction through the vgroup's SMR engine,
and when the eviction is decided the group reconfigures exactly as it does for
a voluntary leave.  Heartbeats are deliberately coarse-grained (a minute in
the paper) so that slow-but-correct nodes are not evicted under asynchrony.

The detector's output depends only on the latest arrival per peer, so a
heartbeat is not a message event: a tick sends through :meth:`Network.beat
<repro.net.network.Network.beat>`, which keeps the send as one burst under
its sender and returns it, and a monitor's tick asks the network, per peer,
when that peer's latest burst to this node arrived (:meth:`Network.heard
<repro.net.network.Network.heard>`).  The host hands the monitor its peers
(:attr:`HeartbeatMonitor.peers`, a view's ``members``) when they change.

Nor is a tick an event of its own.  One :class:`HeartbeatClock` per cluster
drives every running monitor (a timing wheel with a single slot, after
Varghese and Lauck): while any monitor runs it keeps exactly one pending
event, and each period that event ticks every running monitor once, in start
order.  Its grid is 0, P, 2P, ..., accumulated by adding P, so a monitor that
starts at 0 and never restarts ticks at the times a private timer chain
would.  ``start()`` ticks at once and joins the clock; ``stop()`` leaves it.

Reads by exception.  A healthy vgroup's reads are predictable, so its
ticks skip them.  Per sweep the clock keeps, for each peer set (a view's
``members``), a tally of the monitors that sent a *regular* burst on it,
which each swept tick makes from the burst ``beat`` returned: from a swept
tick, by a member of the set, on the fast path (the receivers are the
monitor's own peer tuple, with no hook delay).  Any other heartbeat burst
takes its sender out of this sweep's and the previous sweep's tallies:
``start()`` uncounts its own monitor, and the network uncounts the sender of
every burst its per-receiver path keeps (a tick's while a hook, partition or
split is active, and any heartbeat sent outside a tick).  A swept tick at ``t``
takes the *implied* path when its monitor was counted on the previous sweep
(so its previous tick was that sweep, at ``t - P``), that tally is complete,
nobody is suspected and the latency model's largest median
(``LatencyModel.median_bound``) plus the transfer time lands by ``t``.  It
then knows what :meth:`Network.heard <repro.net.network.Network.heard>`
would say for every peer it keeps: the arrival of the peer's burst at
``t - P``, which no deadline has passed.  So it seeds the peers that are new,
purges those that left and records the one ``(t - P, peers, transfer)``
whose reads it skipped (a new peer's seed, ``t``, is later than any arrival
that record implies).  Every other tick is the eager scan.

``last_seen`` stays the exact, public dict: a read of it, and any eager
tick, first applies the skipped reads with ``heard``'s own float expression
(``sent_at + median_latency(peer, me) + transfer``, kept if later than the
stored value).  Only the latest implied tick needs applying: a peer an
earlier one covered has since been purged, or the latest covers it too, with
a later burst.  Applying a record late is exact only while the latency model's
medians stay what they were when its reads were skipped: a model's medians
must not change while monitors run.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence, Tuple

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

    def __init__(self, sim: Simulator, period: float, network) -> None:
        self.sim = sim
        #: The heartbeat period (60 s in the paper): the send cadence and,
        #: times ``MISSES_BEFORE_EVICTION``, every monitor's deadline.
        self.period = period
        # Running monitors in start order (a dict: O(1) leave, ordered sweep).
        self._monitors: Dict["HeartbeatMonitor", None] = {}
        self._armed = False
        # The pending sweep's grid time, or the last one's while unarmed.
        self._grid = 0.0
        # Reads by exception (see the module docstring): the network the
        # monitors send on and read (their ``send_fn`` is its ``beat``, their
        # ``heard_fn`` its ``heard``), which uncounts a routed burst's sender.
        self._network = network
        network._heartbeat_clock = self
        # The monitor whose swept tick is running, until it counts its burst.
        self._ticking: "HeartbeatMonitor | None" = None
        # This sweep's tallies by the member set of their peers tuple, each
        # ``[regular bursts, members (-1: void), sent_at, transfer]``; and the
        # tally each address was counted in, this sweep and the last.
        self._tallies: Dict[frozenset, list] = {}
        self._regular: Dict[str, list] = {}
        self._previous: Dict[str, list] = {}

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

    def _uncount(self, address: str) -> None:
        """Take ``address`` out of this sweep's and the previous sweep's
        tallies: its latest bursts are no longer the regular ones."""
        tally = self._regular.pop(address, None)
        if tally is not None:
            tally[0] -= 1
        tally = self._previous.pop(address, None)
        if tally is not None:
            tally[0] -= 1

    def _sweep(self) -> None:
        sim = self.sim
        now = self._grid = sim._now
        self._previous = self._regular
        self._regular = {}
        # A tally of the last sweep is only complete if every burst it counted
        # has landed by now and no deadline has passed since it was sent.
        # ``now < now + transfer`` keeps exactness too: a burst a peer sends
        # earlier in this sweep has not landed when a later tick would read
        # it, so ``heard`` still answers the last sweep's burst.
        bound = self._network.latency_model.median_bound()
        deadline = self.period * MISSES_BEFORE_EVICTION
        for tally in self._tallies.values():
            sent_at, transfer = tally[2], tally[3]
            if not (
                sent_at + bound + transfer <= now < now + transfer
                and now - sent_at <= deadline
            ):
                tally[1] = -1
        self._tallies = {}
        # A snapshot: a suspicion can stop (or restart) a monitor mid-sweep.
        # Stopped monitors are skipped, and so is one that already ticked at
        # this instant because it started here.
        for monitor in tuple(self._monitors):
            if monitor.running and monitor._ticked_at != now:
                monitor._ticked_at = now
                self._ticking = monitor
                monitor._tick(now)
        self._ticking = None
        if self._monitors:
            sim.schedule(self.period, self._sweep, tag="hb.clock")
        else:
            self._armed = False


class HeartbeatMonitor:
    """Per-node heartbeat sender and failure detector.

    The host sets :attr:`peers` to the current vgroup members (the host
    included; ``()`` outside any vgroup) whenever they change, and wires the
    monitor with a ``send_fn(peers, heartbeat)`` that emits one heartbeat to
    every address in ``peers`` and returns the burst it kept
    (:meth:`Network.beat <repro.net.network.Network.beat>`), a
    ``heard_fn(peer, address, now)`` that returns when ``address`` last heard
    ``peer``'s heartbeat by ``now``, ``-inf`` if never (:meth:`Network.heard
    <repro.net.network.Network.heard>`), a ``suspect_fn(peer)`` invoked when
    a peer should be evicted and the cluster's :class:`HeartbeatClock`, which
    ticks it once per period while it runs.  ``start()`` ticks at once and
    enrolls with the clock; ``stop()`` leaves it.  A monitor ticks at most
    once per instant, and a tick calls ``heard_fn`` only when the implied
    path (module docstring) is closed.
    """

    def __init__(
        self,
        sim: Simulator,
        address: str,
        send_fn: Callable[[Sequence[str], Heartbeat], tuple],
        heard_fn: Callable[[str, str, float], float],
        suspect_fn: Callable[[str], None],
        clock: HeartbeatClock,
    ) -> None:
        self.sim = sim
        self.address = address
        #: The current vgroup members, a tuple (the host included).
        self.peers: Tuple[str, ...] = ()
        self.send_fn = send_fn
        self.heard_fn = heard_fn
        self.suspect_fn = suspect_fn
        self.clock = clock
        self._last_seen: Dict[str, float] = {}
        # The reads the latest tick skipped, ``(sent_at, peers, transfer)``,
        # until ``last_seen`` is read or a tick reads (module docstring).
        self._unread: "tuple | None" = None
        self.suspected: set = set()
        self.running = False
        # The instant of the latest tick: a monitor ticks at most once per instant.
        self._ticked_at = -math.inf
        self._heartbeat = Heartbeat(address)
        # Peer-set cache keyed on the identity of ``peers``: vgroup views
        # hand out the same immutable members tuple until the next
        # reconfiguration.  Under churn most ticks see a new view (53 % on
        # the ``churn_hb`` benchmark workload), so the rebuild itself is two
        # C-level operations, not a Python loop.
        self._peers_obj: object = None
        self._peer_set: frozenset = frozenset()
        self._others: tuple = ()

    @property
    def last_seen(self) -> Dict[str, float]:
        """Peer -> when this monitor last heard it (its first tick here, if
        not since), in the order the peers were first tracked."""
        if self._unread is not None:
            self._read_skipped()
        return self._last_seen

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
        self._last_seen.clear()
        self._unread = None
        self.suspected.clear()
        self.clock._uncount(self.address)
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
        peers = self.peers
        same_view = peers is self._peers_obj
        if not same_view:
            self._peers_obj = peers
            self._peer_set = frozenset(peers)
            if self.address in self._peer_set:
                index = peers.index(self.address)
                self._others = peers[:index] + peers[index + 1 :]
            else:
                self._others = peers
        others = self._others
        address = self.address
        clock = self.clock
        if others:
            burst = self.send_fn(others, self._heartbeat)
            if clock._ticking is self:
                # A swept tick counts its own burst if it is regular: sent
                # to this monitor's peer tuple itself, with no hook delay,
                # by a member of its peer set.
                clock._ticking = None
                members = self._peer_set
                if burst[1] is others and burst[2] is None and address in members:
                    tally = clock._tallies.get(members)
                    if tally is None:
                        tally = clock._tallies[members] = [0, len(members), burst[0], burst[3]]
                    tally[0] += 1
                    clock._regular[address] = tally
        last_seen = self._last_seen
        suspected = self.suspected
        tally = clock._previous.get(address)
        if tally is not None and tally[0] == tally[1] and not suspected:
            # Every kept peer's latest landed burst is its regular one of the
            # last sweep: skip the reads (module docstring).  A new peer's
            # seed is ``now``, which that burst's arrival cannot pass.
            if not same_view:
                for peer in last_seen.keys() - self._peer_set:
                    del last_seen[peer]
                if len(last_seen) != len(others):
                    for peer in others:
                        if peer not in last_seen:
                            last_seen[peer] = now
            self._unread = (tally[2], others, tally[3])
            return
        if self._unread is not None:
            self._read_skipped()
        # One scan seeds peers not heard from yet, reads what the others'
        # heartbeats say and tests the deadline.  A seed is ``now``, so an
        # arrival only counts if it is later than the peer's first tick here.
        # The ordered walk of ``last_seen`` (whose order the eviction vote can
        # observe through ``suspect_fn``) runs only when it has something to
        # do: a late peer, or an entry that is not a current peer.
        heard = self.heard_fn
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

    def _read_skipped(self) -> None:
        sent_at, peers, transfer = self._unread
        self._unread = None
        median_latency = self.clock._network.latency_model.median_latency
        address = self.address
        last_seen = self._last_seen
        for peer in peers:
            arrival = sent_at + median_latency(peer, address) + transfer
            if arrival > last_seen[peer]:
                last_seen[peer] = arrival

    def _check_peers(self, now: float, deadline: float) -> None:
        current_peers = self._peer_set
        suspected = self.suspected
        last_seen = self._last_seen
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
