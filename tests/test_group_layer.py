"""Tests for the group layer: vgroup views, group messages, heartbeats, cost model."""

import gc
import math
import random
import weakref
from functools import partial

import pytest

from repro.crypto.digest import digest_object
from repro.crypto.keys import KeyRegistry
from repro.faults.byzantine import send_equivocating
from repro.group import (
    GroupCostModel,
    GroupMessenger,
    HeartbeatClock,
    HeartbeatMonitor,
    NodeBinding,
    VGroupView,
    majority_threshold,
)
from repro.group import heartbeat
from repro.group.heartbeat import MISSES_BEFORE_EVICTION, Heartbeat
from repro.group.messages import GroupMessageEnvelope
from repro.core.middleware import Middleware, MiddlewareChain
from repro.net.latency import FixedLatency, WanProfile
from repro.net.network import BANDWIDTH_BYTES_PER_S, HEADERS_BYTES, HEARTBEAT_BYTES, Network
from repro.sim import Simulator
from repro.sim.actor import Actor


class TestVGroupView:
    def test_create_sorts_members(self):
        view = VGroupView.create("g1", ["c", "a", "b"])
        assert view.members == ("a", "b", "c")
        assert view.size == 3

    @pytest.mark.parametrize("size,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (7, 4), (14, 8)])
    def test_majority_threshold(self, size, expected):
        assert majority_threshold(size) == expected

    def test_add_and_remove_bump_epoch(self):
        view = VGroupView.create("g", ["a", "b"])
        grown = view.add("c")
        assert grown.epoch == view.epoch + 1
        assert "c" in grown.members
        shrunk = grown.remove("a")
        assert shrunk.epoch == grown.epoch + 1
        assert "a" not in shrunk.members

    def test_add_existing_is_noop(self):
        view = VGroupView.create("g", ["a"])
        assert view.add("a") is view

    def test_remove_absent_is_noop(self):
        view = VGroupView.create("g", ["a"])
        assert view.remove("z") is view

    def test_len(self):
        assert len(VGroupView.create("g", ["b", "a"])) == 2


class _MessengerHost(Actor):
    """Node actor exposing only a GroupMessenger, for isolated testing."""

    def __init__(self, sim, address, network, own_view_fn):
        super().__init__(sim, address)
        self.accepted = []
        self.messenger = GroupMessenger(
            binding=NodeBinding(address=address, network=network, sim=sim),
            own_view_fn=own_view_fn,
            on_accept=lambda kind, payload, src, gm, senders: self.accepted.append(
                (kind, payload, src, gm)
            ),
        )

    def on_message(self, payload, sender):
        self.messenger.handle(payload, sender)


def _make_two_groups(sim, network, size_a=4, size_b=4, use_digest=True):
    group_a = VGroupView.create("A", [f"a{i}" for i in range(size_a)])
    group_b = VGroupView.create("B", [f"b{i}" for i in range(size_b)])
    hosts = {}
    for address in list(group_a.members) + list(group_b.members):
        own = group_a if address.startswith("a") else group_b
        host = _MessengerHost(sim, address, network, lambda v=own: v)
        host.messenger.use_digest_optimization = use_digest
        hosts[address] = host
        network.register(host)
    return group_a, group_b, hosts


class TestGroupMessages:
    def test_accepted_after_majority_of_senders(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network)
        # All members of A send their share of the same group message.
        for sender in group_a.members:
            hosts[sender].messenger.send(group_b, "gossip", {"x": 1}, gm_id="gm-1")
        sim.run()
        for receiver in group_b.members:
            assert len(hosts[receiver].accepted) == 1
            kind, payload, source, gm_id = hosts[receiver].accepted[0]
            assert kind == "gossip" and payload == {"x": 1} and source == "A"

    def test_not_accepted_below_majority(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network, size_a=5)
        # Only 2 of 5 members send: below the majority of 3.
        for sender in list(group_a.members)[:2]:
            hosts[sender].messenger.send(group_b, "gossip", "payload", gm_id="gm-2")
        sim.run()
        for receiver in group_b.members:
            assert hosts[receiver].accepted == []

    def test_byzantine_minority_cannot_forge_group_message(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network, size_a=5)
        # A Byzantine minority (2 of 5) tries to push a forged payload.
        for sender in list(group_a.members)[:2]:
            hosts[sender].messenger.send(group_b, "gossip", "forged", gm_id="gm-forged")
        # The correct majority sends the real payload under a different gm id.
        for sender in list(group_a.members)[2:]:
            hosts[sender].messenger.send(group_b, "gossip", "real", gm_id="gm-real")
        sim.run()
        for receiver in group_b.members:
            payloads = [p for _, p, _, _ in hosts[receiver].accepted]
            assert "forged" not in payloads
            assert "real" in payloads

    def test_digest_optimization_reduces_bytes(self):
        def run(with_digest):
            sim = Simulator()
            network = Network(sim, latency_model=FixedLatency(0.001))
            group_a, group_b, hosts = _make_two_groups(
                sim, network, size_a=6, size_b=6, use_digest=with_digest
            )
            for sender in group_a.members:
                hosts[sender].messenger.send(
                    group_b, "gossip", {"blob": "x" * 100}, gm_id="gm", payload_bytes=5000
                )
            sim.run()
            delivered = all(len(hosts[r].accepted) == 1 for r in group_b.members)
            return sim.metrics.counter("net.bytes_sent"), delivered

        bytes_with, ok_with = run(True)
        bytes_without, ok_without = run(False)
        assert ok_with and ok_without
        assert bytes_with < bytes_without

    @pytest.mark.parametrize("method", ["send", "send_equivocating"])
    def test_a_group_message_id_is_required(self, method):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network)
        messenger = hosts["a0"].messenger
        if method == "send":
            send, payloads = messenger.send, ("x",)
        else:
            send, payloads = partial(send_equivocating, messenger), ("x", "y")
        with pytest.raises(TypeError):
            send(group_b, "gossip", *payloads)

    def test_shares_under_per_member_ids_never_reach_a_majority(self):
        # Why the id must be derived from the decided operation: an id built
        # from the sender's own address and counter differs at every member.
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network)
        for sender in group_a.members:
            hosts[sender].messenger.send(group_b, "gossip", "x", gm_id=f"{sender}/gossip/0")
        sim.run()
        for receiver in group_b.members:
            assert hosts[receiver].accepted == []

    def test_duplicate_shares_do_not_redeliver(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network)
        for _ in range(2):
            for sender in group_a.members:
                hosts[sender].messenger.send(group_b, "gossip", "x", gm_id="gm-dup")
        sim.run()
        for receiver in group_b.members:
            assert len(hosts[receiver].accepted) == 1


class _HeartbeatHost(Actor):
    def __init__(self, sim, address, network, peers, clock):
        super().__init__(sim, address)
        self.network = network
        self.suspected = []
        self.sent_at = []
        self.monitor = HeartbeatMonitor(
            sim=sim,
            address=address,
            send_fn=self._send,
            heard_fn=network.heard,
            suspect_fn=self.suspected.append,
            clock=clock,
        )
        self.monitor.peers = tuple(peers)

    def _send(self, peers, heartbeat):
        self.sent_at.append(self.sim.now)
        return self.network.beat(self.address, peers, heartbeat)

    def on_message(self, payload, sender):
        raise AssertionError(f"a heartbeat host got a message event: {payload!r}")


class TestHeartbeats:
    def test_responsive_peers_not_suspected(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        peers = ["n0", "n1", "n2"]
        clock = HeartbeatClock(sim, 1.0, network)
        hosts = {p: _HeartbeatHost(sim, p, network, peers, clock) for p in peers}
        for host in hosts.values():
            network.register(host)
            host.monitor.start()
        sim.run(until=10.0)
        assert all(host.suspected == [] for host in hosts.values())

    def test_unresponsive_peer_is_suspected(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        peers = ["n0", "n1", "n2"]
        clock = HeartbeatClock(sim, 1.0, network)
        hosts = {p: _HeartbeatHost(sim, p, network, peers, clock) for p in peers}
        for host in hosts.values():
            network.register(host)
        # n2 never starts its monitor and never answers: it must be suspected.
        hosts["n0"].monitor.start()
        hosts["n1"].monitor.start()
        sim.run(until=10.0)
        assert "n2" in hosts["n0"].suspected
        assert "n2" in hosts["n1"].suspected
        assert "n1" not in hosts["n0"].suspected

    def test_tick_purges_a_peer_that_left_the_view(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        host = _HeartbeatHost(sim, "n0", network, ("n0", "n1"), HeartbeatClock(sim, 1.0, network))
        network.register(host)
        host.monitor.start()
        # n1 never heartbeats: it is tracked, then suspected.
        sim.run(until=10.0)
        assert "n1" in host.monitor.last_seen
        assert "n1" in host.monitor.suspected
        # n1 leaves the view: the next tick drops every trace of it.
        host.monitor.peers = ("n0",)
        sim.run(until=11.5)
        assert "n1" not in host.monitor.last_seen
        assert "n1" not in host.monitor.suspected


    def test_a_purged_peer_that_returns_gets_a_fresh_deadline(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        host = _HeartbeatHost(sim, "n0", network, ("n0", "n1"), HeartbeatClock(sim, 1.0, network))
        network.register(host)
        host.monitor.start()
        sim.run(until=10.0)
        assert "n1" in host.monitor.suspected
        host.monitor.peers = ("n0",)
        sim.run(until=11.5)
        assert "n1" not in host.monitor.last_seen
        # n1 rejoins the view: it is tracked from the rejoin on, not from
        # its old silence, and is suspected again only after a full deadline.
        host.monitor.peers = ("n0", "n1")
        sim.run(until=12.5)
        rejoined_at = host.monitor.last_seen["n1"]
        assert rejoined_at > 11.5
        assert "n1" not in host.monitor.suspected
        sim.run(until=rejoined_at + MISSES_BEFORE_EVICTION * 1.0 - 0.01)
        assert "n1" not in host.monitor.suspected
        sim.run(until=rejoined_at + (MISSES_BEFORE_EVICTION + 1) * 1.0 + 0.01)
        assert "n1" in host.monitor.suspected

PERIODS = [0.25, 0.5, 1.0, 2.0, 5.0]


class TestHeartbeatPeriod:
    """The clock runs one period, given at construction: it sets the send
    cadence and, times ``MISSES_BEFORE_EVICTION``, the suspicion deadline."""

    def _wired_hosts(self, sim, peers, period=1.0):
        network = Network(sim, latency_model=FixedLatency(0.001))
        clock = HeartbeatClock(sim, period, network)
        hosts = {p: _HeartbeatHost(sim, p, network, peers, clock) for p in peers}
        for host in hosts.values():
            network.register(host)
            host.monitor.start()
        return hosts

    @pytest.mark.parametrize("period", PERIODS)
    def test_send_cadence_is_the_period(self, period):
        sim = Simulator()
        hosts = self._wired_hosts(sim, ["n0", "n1"], period)
        sim.run(until=6.5 * period)
        assert hosts["n0"].sent_at == [index * period for index in range(7)]

    @pytest.mark.parametrize("period", PERIODS)
    def test_healthy_peers_are_never_suspected(self, period):
        sim = Simulator()
        hosts = self._wired_hosts(sim, ["n0", "n1", "n2"], period)
        sim.run(until=40.0 * period)
        assert all(host.suspected == [] for host in hosts.values())

    @pytest.mark.parametrize("period", PERIODS)
    def test_silent_peer_is_suspected_one_tick_past_the_deadline(self, period):
        sim = Simulator()
        hosts = self._wired_hosts(sim, ["n0", "n1", "n2"], period)
        sim.run(until=5.5 * period)
        hosts["n2"].monitor.stop()  # last heard at 5 periods + 1 ms
        # The deadline is 3 periods: the tick at 8 periods is 1 ms short.
        sim.run(until=8.5 * period)
        assert hosts["n0"].suspected == [] and hosts["n1"].suspected == []
        sim.run(until=9.5 * period)
        assert "n2" in hosts["n0"].suspected
        assert "n2" in hosts["n1"].suspected
        assert "n1" not in hosts["n0"].suspected

    @pytest.mark.parametrize("misses", [1, 2, 3, 5])
    def test_misses_before_eviction_scales_the_deadline(self, misses, monkeypatch):
        # The monitor reads the module constant at every tick.
        monkeypatch.setattr(heartbeat, "MISSES_BEFORE_EVICTION", misses)
        sim = Simulator()
        hosts = self._wired_hosts(sim, ["n0", "n1", "n2"])
        sim.run(until=5.5)
        hosts["n2"].monitor.stop()  # last heard at t=5.001
        sim.run(until=5.5 + misses)
        assert hosts["n0"].suspected == []
        sim.run(until=6.5 + misses)
        assert "n2" in hosts["n0"].suspected


class TestHeartbeatRestart:
    def test_stop_start_inside_a_period_leaves_one_tick_chain(self):
        # A restart ticks at once, then on the clock's grid: one tick per
        # period, never a second chain beside the first (crash -> recover, or
        # clear_membership -> install_view).
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        host = _HeartbeatHost(sim, "n0", network, ["n0", "n1"], HeartbeatClock(sim, 5.0, network))
        network.register(host)
        host.monitor.start()
        sim.schedule_at(12.0, host.monitor.stop)
        sim.schedule_at(13.0, host.monitor.start)
        sim.run(until=40.0)
        assert host.sent_at == [0.0, 5.0, 10.0, 13.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0]

    def test_every_restart_leaves_one_chain(self):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        host = _HeartbeatHost(sim, "n0", network, ["n0", "n1"], HeartbeatClock(sim, 5.0, network))
        network.register(host)
        host.monitor.start()
        for at in (1.0, 2.0, 3.0):
            sim.schedule_at(at, host.monitor.stop)
            sim.schedule_at(at + 0.5, host.monitor.start)
        sim.run(until=20.0)
        assert host.sent_at == [0.0, 1.5, 2.5, 3.5, 5.0, 10.0, 15.0, 20.0]


class TestHeartbeatClock:
    """One clock per cluster: one pending event, one sweep per period."""

    def _hosts(self, sim, period, count=2):
        network = Network(sim, latency_model=FixedLatency(0.001))
        clock = HeartbeatClock(sim, period, network)
        peers = tuple(f"n{index}" for index in range(count))
        hosts = [_HeartbeatHost(sim, peer, network, peers, clock) for peer in peers]
        for host in hosts:
            network.register(host)
        return clock, hosts

    def test_staggered_monitors_cost_one_event_per_period(self):
        sim = Simulator()
        _, hosts = self._hosts(sim, 1.0, count=6)
        for host, at in zip(hosts, (0.0, 0.3, 1.7, 2.0, 2.2, 4.9)):
            sim.schedule_at(at, host.monitor.start, tag="start")
        trace = []
        sim.run(until=20.5, trace=trace)
        sweeps = [time for time, tag in trace if tag != "start"]
        assert sweeps == [float(tick) for tick in range(1, 21)]
        assert len(trace) == len(sweeps) + len(hosts)
        # Each monitor ticked at its start, then once per sweep.
        assert hosts[1].sent_at == [0.3] + [float(tick) for tick in range(1, 21)]
        assert hosts[5].sent_at == [4.9] + [float(tick) for tick in range(5, 21)]

    @pytest.mark.parametrize("before_the_sweep", [True, False])
    def test_a_start_or_a_restart_at_a_grid_instant_ticks_once(self, before_the_sweep):
        sim = Simulator()
        _, (first, second) = self._hosts(sim, 1.0)
        first.monitor.start()

        def restart():
            first.monitor.stop()
            first.monitor.start()

        if before_the_sweep:
            # Scheduled before the sweeps at 3 and 5 were: these fire first.
            sim.schedule_at(3.0, second.monitor.start)
            sim.schedule_at(5.0, restart)
        else:
            # Scheduled after them: the sweeps fire first.
            sim.schedule_at(2.5, lambda: sim.schedule_at(3.0, second.monitor.start))
            sim.schedule_at(4.5, lambda: sim.schedule_at(5.0, restart))
        sim.run(until=7.5)
        grid = [float(tick) for tick in range(8)]
        assert first.sent_at == grid
        assert second.sent_at == grid[3:]

    def test_a_monitor_a_suspicion_stops_mid_sweep_is_skipped(self):
        sim = Simulator()
        _, (first, second, _) = self._hosts(sim, 1.0, count=3)
        # n2 never starts; the first monitor's suspicion of it (at 4, one
        # tick past the deadline) stops the second monitor mid-sweep.
        first.monitor.suspect_fn = lambda peer: second.monitor.stop()
        first.monitor.start()
        second.monitor.start()
        sim.run(until=5.5)
        assert first.sent_at == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert second.sent_at == [0.0, 1.0, 2.0, 3.0]

    def test_a_stopped_monitor_is_not_referenced_by_the_clock(self):
        sim = Simulator()
        clock, (host, _) = self._hosts(sim, 1.0)
        host.monitor.start()
        stopped = HeartbeatMonitor(
            sim=sim,
            address="n1",
            send_fn=partial(host.network.beat, "n1"),
            heard_fn=lambda peer, address, now: -math.inf,
            suspect_fn=lambda peer: None,
            clock=clock,
        )
        stopped.peers = ("n0", "n1")
        stopped.start()
        sim.run(until=2.5)
        assert list(clock._monitors) == [host.monitor, stopped]
        stopped.stop()
        assert list(clock._monitors) == [host.monitor]
        # Nothing else holds it either: not the clock's pending sweep.
        stopped = weakref.ref(stopped)
        gc.collect()
        assert stopped() is None
        sim.run(until=4.5)
        assert host.sent_at == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_with_every_monitor_stopped_the_queue_drains(self):
        sim = Simulator()
        _, hosts = self._hosts(sim, 1.0, count=3)
        for host in hosts:
            host.monitor.start()
        sim.run(until=7.5)
        for host in hosts:
            host.monitor.stop()
        # The sweep already pending at 8 fires, ticks nobody and does not
        # re-arm: the run drains (the cap only turns a regression into a
        # failure instead of a hang).
        assert sim.run(max_events=100) == 8.0
        assert len(sim.queue) == 0
        assert all(host.sent_at[-1] == 7.0 for host in hosts)

    def test_a_later_start_re_arms_on_the_same_grid(self):
        sim = Simulator()
        _, (host, _) = self._hosts(sim, 5.0)
        host.monitor.start()
        sim.schedule_at(3.0, host.monitor.stop)
        sim.schedule_at(12.3, host.monitor.start)
        trace = []
        sim.run(until=20.0, trace=trace)
        assert [time for time, tag in trace if tag == "hb.clock"] == [5.0, 15.0, 20.0]
        assert host.sent_at == [0.0, 12.3, 15.0, 20.0]


class _FillThenWalkMonitor(HeartbeatMonitor):
    """The tick before the one-scan rewrite: seed every peer not heard from
    yet and read the others' heartbeats, then walk ``last_seen`` in order on
    *every* tick."""

    def _tick(self, now):
        peers = self.peers
        self._peer_set = frozenset(peers)
        others = tuple(peer for peer in peers if peer != self.address)
        if others:
            self.send_fn(others, self._heartbeat)
        for peer in others:
            if peer not in self.last_seen:
                self.last_seen[peer] = now
                continue
            arrival = self.heard_fn(peer, self.address, now)
            if arrival > self.last_seen[peer]:
                self.last_seen[peer] = arrival
                self.suspected.discard(peer)
        self._check_peers(now, self.clock.period * MISSES_BEFORE_EVICTION)


class TestOneScanTickDifferential:
    """Seeded differential: the one-scan tick against fill-then-walk."""

    POOL = [f"p{i}" for i in range(9)]

    def _drive(self, monitor_class, seed):
        rng = random.Random(seed)
        sim = Simulator()
        # Zero latency: a burst to "me" lands after its 16 us transfer.
        network = Network(sim, latency_model=FixedLatency(0.0))
        calls = []
        sends = []
        monitor = monitor_class(
            sim=sim,
            address="me",
            send_fn=lambda peers, heartbeat: sends.append((sim.now, peers))
            or network.beat("me", peers, heartbeat),
            heard_fn=network.heard,
            suspect_fn=lambda peer: calls.append((sim.now, peer)),
            clock=HeartbeatClock(sim, 1.0, network),
        )
        monitor.peers = ("me", "p0", "p1", "p2")
        monitor.start()
        silent = set(rng.sample(self.POOL, 3))
        snapshots = []
        for _ in range(400):
            roll = rng.random()
            if roll < 0.55:
                # A heartbeat from a talkative address: mostly a current
                # peer, sometimes a stranger the next tick has to purge.
                current = [peer for peer in monitor.peers if peer != "me"]
                sender = rng.choice(current if current and rng.random() < 0.85 else self.POOL)
                if sender not in silent:
                    network.send_many(sender, ("me",), Heartbeat(sender), 64)
            elif roll < 0.65:
                members = rng.sample(self.POOL, rng.randrange(0, 6))
                if rng.random() < 0.8:
                    members.append("me")
                rng.shuffle(members)
                monitor.peers = tuple(members)
            elif roll < 0.70:
                silent = set(rng.sample(self.POOL, rng.randrange(0, 5)))
            elif roll < 0.73:
                monitor.stop()
                monitor.start()
            sim.run(until=sim.now + rng.choice([0.1, 0.3, 0.7, 1.1]))
            snapshots.append(
                (sim.now, list(monitor.last_seen.items()), sorted(monitor.suspected), len(calls))
            )
        return calls, sends, snapshots

    @pytest.mark.parametrize("seed", range(8))
    def test_same_suspicions_in_the_same_order(self, seed):
        calls, sends, snapshots = self._drive(HeartbeatMonitor, seed)
        expected = self._drive(_FillThenWalkMonitor, seed)
        assert (calls, sends, snapshots) == expected
        if seed == 0:
            # Not vacuous: peers were suspected, purged and re-heard.
            assert len(calls) > 20
            assert len({peer for _, peer in calls}) > 2


class _DropAndDelay(Middleware):
    """Drops a fifth of the copies and delays a third of the rest, by up to
    one and a half periods."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def on_send(self, ctx):
        roll = self.rng.random()
        if roll < 0.2:
            ctx.drop = True
        elif roll < 0.5:
            ctx.extra_delay = self.rng.choice([0.0005, 0.3, 0.9, 1.5])


class TestReadsByExceptionDifferential:
    """Seeded tick-level differential on one network of 6-12 monitors: the
    tick that skips a healthy vgroup's reads against fill-then-walk, which
    reads every peer on every tick.  Views swap, split and merge; monitors
    stop and restart (some mid-sweep, from a suspicion), some go mute for
    a while, a member leaves but goes on heartbeating its old vgroup, one
    member's heartbeats are longer than the others', a partition and a split
    come and go, stray heartbeats are sent outside any tick, and an
    ``on_send`` hook that drops and delays joins late in the run."""

    STEPS = 160

    LATENCY = {
        "lan": lambda pool: FixedLatency(0.001),
        "wan": WanProfile,
        # Every burst lands after the next sweep: no tick may skip a read.
        "slow": lambda pool: FixedLatency(1.25),
    }

    def _drive(self, monitor_class, seed, latency, every_tick):
        rng = random.Random(seed)
        chaos = random.Random(seed + 1000)
        sim = Simulator()
        pool = [f"m{i}" for i in range(rng.randrange(6, 13))]
        network = Network(sim, latency_model=self.LATENCY[latency](pool))
        chain = MiddlewareChain()
        network.install_middleware(chain)
        clock = HeartbeatClock(sim, 1.0, network)
        half = len(pool) // 2
        views = {}

        def assign(*groups):
            for group in groups:
                members = tuple(group)
                for address in members:
                    views[address] = members

        assign(pool[:half], pool[half:])
        calls, snapshots, paths = [], [], []
        monitors = {}

        def snapshot(monitor):
            snapshots.append(
                (
                    sim.now,
                    monitor.address,
                    list(monitor.last_seen.items()),
                    sorted(monitor.suspected),
                    len(calls),
                )
            )

        reads = [0]

        def heard(peer, address, now):
            reads[0] += 1
            return network.heard(peer, address, now)

        class Recording(monitor_class):
            def _tick(self, now):
                before = reads[0]
                super()._tick(now)
                paths.append((self._unread is not None, reads[0] > before))
                if every_tick:
                    snapshot(self)

        def suspect(address, peer):
            calls.append((sim.now, address, peer))
            roll = chaos.random()
            if roll < 0.05:
                # A restart mid-sweep (not of the accuser, mid-walk).
                target = monitors[chaos.choice([peer for peer in pool if peer != address])]
                target.stop()
                target.start()
            elif roll < 0.08:
                monitors[chaos.choice(pool)].stop()

        def hand_out_views():
            for address, monitor in monitors.items():
                monitor.peers = views.get(address, ())

        for address in pool:
            monitor = Recording(
                sim=sim,
                address=address,
                send_fn=partial(network.beat, address),
                heard_fn=heard,
                suspect_fn=lambda peer, address=address: suspect(address, peer),
                clock=clock,
            )
            monitors[address] = monitor
        hand_out_views()
        for address in pool:
            sim.schedule_at(rng.choice([0.0, 0.0, 0.4, 1.0]), monitors[address].start)

        hook_at = rng.randrange(self.STEPS * 2 // 3, self.STEPS)
        for step in range(self.STEPS):
            roll = rng.random()
            if step == hook_at:
                chain.add(_DropAndDelay(seed))
            if roll < 0.16:
                shape = rng.random()
                if shape < 0.3:
                    # A swap: one address moves to another vgroup.
                    mover = rng.choice(pool)
                    source = views.get(mover, ())
                    target = views.get(rng.choice(pool), ())
                    if mover not in target:
                        assign(
                            [address for address in source if address != mover],
                            sorted(target + (mover,)),
                        )
                elif shape < 0.5:
                    # A split, or a merge back into two halves.
                    shuffled = pool[:]
                    rng.shuffle(shuffled)
                    cut = rng.randrange(2, len(pool) - 1)
                    assign(sorted(shuffled[:cut]), sorted(shuffled[cut:]))
                elif shape < 0.7:
                    # The same members under a new view object.
                    assign(list(views[rng.choice(sorted(views))]))
                else:
                    # A member leaves its vgroup (and may go on watching it
                    # from outside), or an outsider joins one.
                    address = rng.choice(pool)
                    source = views.pop(address, ())
                    members = sorted(peer for peer in views if peer in views[peer])
                    if address in source:
                        assign([peer for peer in source if peer != address])
                        if len(source) > 1 and rng.random() < 0.5:
                            views[address] = views[source[source[0] == address]]
                    elif members:
                        assign(sorted(views[rng.choice(members)] + (address,)))
            elif roll < 0.22:
                monitor = monitors[rng.choice(pool)]
                monitor.stop()
                sim.schedule(rng.choice([0.0, 0.5, 1.0, 2.0]), monitor.start)
            elif roll < 0.25:
                # Mute for five periods: its peers suspect it.
                monitor = monitors[rng.choice(pool)]
                monitor.stop()
                sim.schedule(5.0, monitor.start)
            elif roll < 0.28:
                isolated = rng.sample(pool, 2)
                network.partition(isolated)
                sim.schedule(rng.choice([0.5, 2.0, 4.0]), lambda i=isolated: network.heal(i))
            elif roll < 0.31:
                shuffled = pool[:]
                rng.shuffle(shuffled)
                split = network.split([shuffled[:half], shuffled[half:]])
                sim.schedule(rng.choice([1.0, 3.0, 5.0]), lambda s=split: network.merge(s))
            elif roll < 0.41:
                # A heartbeat sent outside any tick, padded: a longer transfer.
                sender = rng.choice(pool)
                network.send_many(
                    sender, (rng.choice(pool),), Heartbeat(sender), HEARTBEAT_BYTES * 2
                )
            hand_out_views()
            sim.run(until=sim.now + rng.choice([0.3, 0.7, 1.0, 1.0, 1.6, 2.5]))
            if not every_tick:
                for address in pool:
                    snapshot(monitors[address])
        return calls, snapshots, paths

    @pytest.mark.parametrize("every_tick", [True, False], ids=["every-tick", "every-step"])
    @pytest.mark.parametrize("latency", sorted(LATENCY))
    @pytest.mark.parametrize("seed", range(4))
    def test_every_tick_matches_fill_then_walk(self, seed, latency, every_tick):
        calls, snapshots, paths = self._drive(HeartbeatMonitor, seed, latency, every_tick)
        expected = self._drive(_FillThenWalkMonitor, seed, latency, every_tick)
        assert (calls, snapshots) == expected[:2]
        # Not vacuous: ticks skipped their reads (unless no burst lands
        # within a period), others read, and peers were suspected.
        skipped = sum(skipped for skipped, _ in paths)
        assert skipped == 0 if latency == "slow" else skipped > 150
        assert sum(read for _, read in paths) > 100
        assert len(calls) > 10

    @staticmethod
    def _small(monitor_class, views, events, until):
        """Monitors for ``views`` (started in its order) on a 1 ms LAN with a
        one-second period; ``events`` maps a time to a change of the views
        or a send.  Returns every suspicion call."""
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        clock = HeartbeatClock(sim, 1.0, network)
        calls = []
        monitors = {}
        for address in views:
            monitor = monitors[address] = monitor_class(
                sim=sim,
                address=address,
                send_fn=partial(network.beat, address),
                heard_fn=network.heard,
                suspect_fn=lambda peer, address=address: calls.append(
                    (sim.now, address, peer)
                ),
                clock=clock,
            )
            monitor.peers = views[address]
            monitor.start()

        def fire(event):
            event(network, views)
            for address, monitor in monitors.items():
                monitor.peers = views[address]

        for at, event in events.items():
            sim.schedule_at(at, lambda event=event: fire(event))
        sim.run(until=until)
        return calls

    def _regroup(self, monitor_class):
        """Four monitors whose deadline is half a period, so every peer is
        late by the sweep after its first.  Pairs {a, b} and {c, d} accuse
        each other, then regroup as {a, c} and {b, d}: the sweep after that
        finds nobody suspected and every tally complete, yet every kept peer
        is late."""
        views = {"a": ("a", "b"), "b": ("a", "b"), "c": ("c", "d"), "d": ("c", "d")}
        regroup = {"a": ("a", "c"), "c": ("a", "c"), "b": ("b", "d"), "d": ("b", "d")}
        return self._small(
            monitor_class, views, {3.5: lambda network, views: views.update(regroup)}, 6.5
        )

    def test_a_deadline_inside_one_period_is_checked(self, monkeypatch):
        monkeypatch.setattr(heartbeat, "MISSES_BEFORE_EVICTION", 0.5)
        # And for fill-then-walk, which reads this module's copy.
        monkeypatch.setitem(globals(), "MISSES_BEFORE_EVICTION", 0.5)
        calls = self._regroup(HeartbeatMonitor)
        assert calls == self._regroup(_FillThenWalkMonitor)
        assert (5.0, "a", "c") in calls

    def _stray(self, monitor_class):
        """b, a and c beat regularly until b sends one heartbeat to c alone,
        between the sweeps at 5 and 6.  At 6 b ticks first, so a's read of b
        finds two bursts that do not name a: a must keep what it skipped
        reading at 2-5 (b heard at 4.001), not go back to its last read at
        1 (b heard at 0.001), which is past the deadline."""
        members = ("a", "b", "c")
        views = {"b": members, "a": members, "c": members}

        def stray(network, views):
            network.send_many("b", ("c",), Heartbeat("b"), HEARTBEAT_BYTES)

        return self._small(monitor_class, views, {5.5: stray}, 6.5)

    def test_an_eager_tick_first_applies_the_reads_it_skipped(self):
        calls = self._stray(HeartbeatMonitor)
        assert calls == self._stray(_FillThenWalkMonitor) == []

    @staticmethod
    def _mid_sweep_stray(monitor_class):
        """b, a and c beat regularly; at 5 b's own tick follows its regular
        burst with one to c alone, which pushes b's burst of 4 out.  a ticks
        next in that sweep: the clock must notice the stray before a reads,
        or a skips its read and hears b at 4.001 where ``heard`` finds
        nothing newer than the 3.001 a already has."""
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        clock = HeartbeatClock(sim, 1.0, network)

        def b_beats(peers, heartbeat):
            burst = network.beat("b", peers, heartbeat)
            if sim.now == 5.0:
                network.send_many("b", ("c",), heartbeat, HEARTBEAT_BYTES)
            return burst

        seen = {}
        for address in ("b", "a", "c"):
            monitor = seen[address] = monitor_class(
                sim=sim,
                address=address,
                send_fn=b_beats if address == "b" else partial(network.beat, address),
                heard_fn=network.heard,
                suspect_fn=lambda peer: None,
                clock=clock,
            )
            monitor.peers = ("a", "b", "c")
            monitor.start()
        sim.run(until=5.5)
        return {address: list(monitor.last_seen.items()) for address, monitor in seen.items()}

    def test_a_heartbeat_sent_mid_sweep_is_noticed_before_the_next_read(self):
        seen = self._mid_sweep_stray(HeartbeatMonitor)
        assert seen == self._mid_sweep_stray(_FillThenWalkMonitor)
        transfer = (HEARTBEAT_BYTES + HEADERS_BYTES) / BANDWIDTH_BYTES_PER_S
        assert dict(seen["a"])["b"] == 3.0 + 0.001 + transfer


class TestGroupCostModel:
    def test_sync_agreement_latency_scales_with_group_size(self):
        model = GroupCostModel(synchronous=True, round_duration=1.0)
        assert model.agreement_latency(4) < model.agreement_latency(20)
        # f+1 rounds plus half a round of waiting: g=7 -> f=3 -> 4.5 rounds.
        assert model.agreement_latency(7) == pytest.approx(4.5)

    def test_async_agreement_much_faster_than_sync(self):
        sync = GroupCostModel(synchronous=True, round_duration=1.0)
        asyn = GroupCostModel(synchronous=False, network_latency=0.05)
        assert asyn.agreement_latency(7) < sync.agreement_latency(7) / 5

    def test_backward_phase_walk_costs_twice_the_forward(self):
        model = GroupCostModel()
        backward = model.random_walk_latency(10, 8, backward_phase=True)
        forward_only = 10 * model.walk_step_latency(8, 8)
        assert backward == pytest.approx(2 * forward_only)

    def test_certificate_walk_cheaper_than_backward_for_long_walks(self):
        model = GroupCostModel(synchronous=False, network_latency=0.05)
        certificates = model.random_walk_latency(12, 8, backward_phase=False)
        backward = model.random_walk_latency(12, 8, backward_phase=True)
        assert certificates < backward

    def test_state_transfer_grows_with_cycles(self):
        model = GroupCostModel()
        assert model.state_transfer_latency(8, 10) > model.state_transfer_latency(2, 10)


class TestGroupMessengerFastPath:
    """PR-2 regression tests: pending-state retirement and O(1) gm-id dedup."""

    def _wire(self, size_a=4, size_b=4):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.001))
        group_a, group_b, hosts = _make_two_groups(sim, network, size_a, size_b)
        return sim, group_a, group_b, hosts

    def test_pending_state_retired_after_delivery(self):
        sim, group_a, group_b, hosts = self._wire()
        for sender in group_a.members:
            hosts[sender].messenger.send(group_b, "gossip", "x", gm_id="gm-retire")
        sim.run()
        for receiver in group_b.members:
            messenger = hosts[receiver].messenger
            assert len(hosts[receiver].accepted) == 1
            assert messenger.pending_count() == 0
            assert "gm-retire" in messenger._delivered_gm_ids

    def test_pending_count_reflects_undelivered_messages(self):
        sim, group_a, group_b, hosts = self._wire(size_a=5)
        # Below-majority share count: state stays pending.
        for sender in list(group_a.members)[:2]:
            hosts[sender].messenger.send(group_b, "gossip", "x", gm_id="gm-low")
        sim.run()
        for receiver in group_b.members:
            assert hosts[receiver].accepted == []
            assert hosts[receiver].messenger.pending_count() == 1

    def test_retiring_drops_only_unaccepted_state_under_the_prefix(self):
        sim, group_a, group_b, hosts = self._wire(size_a=5)
        receiver = group_b.members[0]
        messenger = hosts[receiver].messenger

        def share(gm_id, payload, sender, full=True):
            messenger.handle(
                GroupMessageEnvelope(
                    gm_id=gm_id,
                    source_group="A",
                    source_epoch=0,
                    target_group="B",
                    kind="gossip",
                    payload=payload if full else None,
                    digest=digest_object(payload),
                    sender_group_size=5,
                ),
                sender,
            )

        share("gossip:b1:A->B", "x", "a0")
        share("gossip:b1:A->B", "forged", "a1")  # an equivocating bucket
        share("gossip:b10:A->B", "x", "a0")  # same prefix up to the colon
        for sender in ("a0", "a1", "a2"):  # a majority, but no full copy yet
            share("gossip:b1:C->B", "x", sender, full=False)
        assert messenger.pending_count() == 4
        messenger.retire_gossip(["b1"])
        assert messenger.pending_count() == 2
        assert sim.metrics.counter("group.pending_retired") == 2
        # A later share starts a fresh count; the accepted one still delivers.
        share("gossip:b1:A->B", "x", "a1")
        share("gossip:b1:A->B", "x", "a2")
        assert hosts[receiver].accepted == []
        share("gossip:b1:C->B", "x", "a3")
        assert [gm for _, _, _, gm in hosts[receiver].accepted] == ["gossip:b1:C->B"]

    def test_late_shares_short_circuit_after_delivery(self):
        sim, group_a, group_b, hosts = self._wire()
        for sender in group_a.members:
            hosts[sender].messenger.send(group_b, "gossip", "x", gm_id="gm-late")
        sim.run()
        receiver = group_b.members[0]
        messenger = hosts[receiver].messenger
        late = GroupMessageEnvelope(
            gm_id="gm-late",
            source_group="A",
            source_epoch=0,
            target_group="B",
            kind="gossip",
            payload="x",
            digest=digest_object("x"),
            sender_group_size=4,
        )
        before = len(hosts[receiver].accepted)
        messenger.handle(late, "a0")
        assert len(hosts[receiver].accepted) == before
        assert messenger.pending_count() == 0

    def test_equivocating_digests_accumulate_separately(self):
        sim, group_a, group_b, hosts = self._wire(size_a=5)
        receiver = group_b.members[0]
        messenger = hosts[receiver].messenger

        def share(payload, sender):
            return messenger.handle(
                GroupMessageEnvelope(
                    gm_id="gm-equiv",
                    source_group="A",
                    source_epoch=0,
                    target_group="B",
                    kind="gossip",
                    payload=payload,
                    digest=digest_object(payload),
                    sender_group_size=5,
                ),
                sender,
            )

        # Two Byzantine members push a forged digest; three correct members
        # send the real one.  Only the real message reaches a majority.
        share("forged", "a0")
        share("forged", "a1")
        share("real", "a2")
        share("real", "a3")
        assert hosts[receiver].accepted == []
        share("real", "a4")
        payloads = [p for _, p, _, _ in hosts[receiver].accepted]
        assert payloads == ["real"]
        # The forged bucket can never deliver now: the gm id is retired and
        # its conflicting buckets were purged with it.
        assert messenger.pending_count() == 0
        share("forged", "a4")
        assert [p for _, p, _, _ in hosts[receiver].accepted] == ["real"]
        assert messenger.pending_count() == 0

    def test_forged_payload_under_honest_digest_is_never_adopted(self):
        """Regression: the first full copy of a gm-id used to be adopted
        unchecked, so one Byzantine member whose share arrived first could
        pair a forged payload with the honest digest and have the honest
        majority's votes deliver it."""
        sim, group_a, group_b, hosts = self._wire(size_a=3)
        receiver = group_b.members[0]
        messenger = hosts[receiver].messenger

        def share(payload, sender):
            messenger.handle(
                GroupMessageEnvelope(
                    gm_id="gm-swap",
                    source_group="A",
                    source_epoch=0,
                    target_group="B",
                    kind="gossip",
                    payload=payload,
                    digest=digest_object("real"),
                    sender_group_size=3,
                ),
                sender,
            )

        share("forged", "a0")
        share("real", "a1")
        assert hosts[receiver].accepted == []  # a0's bogus share cast no vote
        share("real", "a2")
        assert [p for _, p, _, _ in hosts[receiver].accepted] == ["real"]
        assert sim.metrics.counter("group.payload_digest_mismatch") == 1
        assert messenger.pending_count() == 0
