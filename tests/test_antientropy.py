"""Tests for the anti-entropy repair layer (repro.group.antientropy)."""

from dataclasses import replace

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters
from repro.core.node import DirectMessage
from repro.faults import FaultPlan, Partition, apply_plan
from repro.faults.invariants import InvariantMonitor
from repro.group import antientropy
from repro.group.antientropy import AntiEntropyConfig
from repro.net.requests import BACKOFF_FACTOR, BACKOFF_MAX_DELAY
from repro.sim.trickle import MAX_PERIODS


def small_params(**overrides):
    defaults = dict(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)
    defaults.update(overrides)
    return AtumParameters(**defaults)


def build_cluster(seed=9, nodes=16, antientropy=True, monitor=None, **kwargs):
    cluster = AtumCluster(
        small_params(),
        seed=seed,
        antientropy=AntiEntropyConfig() if antientropy else None,
        **kwargs,
    )
    if monitor is not None:
        cluster.attach_monitor(monitor)
    cluster.build_static([f"n{i}" for i in range(nodes)])
    return cluster


class TestWiring:
    def test_disabled_by_default(self):
        cluster = build_cluster(antientropy=False)
        assert all(node.antientropy is None for node in cluster.nodes.values())

    def test_enabled_component_runs_with_membership(self):
        cluster = build_cluster()
        node = cluster.nodes["n0"]
        assert node.antientropy is not None and node.antientropy.running
        cluster.leave("n0")
        cluster.run_until_membership_quiescent(max_time=60.0)
        assert not node.antientropy.running

    def test_delivered_broadcasts_are_stored(self):
        cluster = build_cluster()
        bcast_id = cluster.broadcast("n0", "payload")
        cluster.run(until=10.0)
        holders = [
            node
            for node in cluster.nodes.values()
            if bcast_id in node.antientropy.store
        ]
        assert len(holders) == len(cluster.nodes)
        assert holders[0].antientropy.store[bcast_id].payload == "payload"

    def test_store_is_bounded_by_the_summary_window(self, monkeypatch):
        cluster = build_cluster(seed=15, nodes=8)
        # Shrink the window so the bound is cheap to exercise.
        monkeypatch.setattr(antientropy, "MAX_SUMMARY_IDS", 4)
        for index in range(12):
            cluster.sim.schedule(
                0.2 * index, lambda i=index: cluster.broadcast("n0", f"b{i}")
            )
        cluster.run(until=20.0)
        for node in cluster.nodes.values():
            store = node.antientropy.store
            assert len(store) <= 5  # cap + 25% slack
            # only the newest window survives
            assert set(store) <= set(node.delivered_order[-5:])
        assert cluster.sim.metrics.counter("ae.summary_window_truncated") > 0

    def test_quiet_system_exchanges_summaries_but_repairs_nothing(self):
        cluster = build_cluster(seed=13)
        cluster.broadcast("n0", "x")
        cluster.run(until=15.0)
        metrics = cluster.sim.metrics
        assert metrics.counter("ae.summaries_sent") > 0
        assert metrics.counter("ae.shares_resent") == 0
        assert metrics.counter("ae.reproposals") == 0

    def test_late_joiner_runs_the_repair_layer(self):
        cluster = build_cluster(nodes=8)
        node = cluster.join("late-1", contact="n0")
        cluster.run_for(30.0)
        assert node.antientropy.running


def record_sends(node, kinds=("ae.summary", "ae.reply")):
    """``(time, kind, peers)`` of every ``kinds`` message ``node`` sends from now on."""
    sent = []
    original = node.send_direct_many

    def spy(peers, kind, payload, size_bytes=256):
        if kind in kinds:
            sent.append((node.sim.now, kind, tuple(peers)))
        return original(peers, kind, payload, size_bytes=size_bytes)

    node.send_direct_many = spy
    return sent


def times_of(sent, kind):
    return [at for at, sent_kind, _ in sent if sent_kind == kind]


def gaps(times):
    return [later - earlier for earlier, later in zip(times, times[1:])]


class TestTrickleSummaries:
    """Summaries follow change: every PERIOD while peers disagree or are
    unheard, backing off to MAX_PERIODS periods while they agree."""

    CAP = MAX_PERIODS * antientropy.PERIOD

    def backed_off(self, seed=13, nodes=16):
        cluster = build_cluster(seed=seed, nodes=nodes)
        cluster.broadcast("n0", "x")
        cluster.run(until=6 * self.CAP)
        for node in cluster.nodes.values():
            assert node.antientropy._trickle.interval == self.CAP
        return cluster

    @pytest.mark.parametrize("period", [0.5, 1.0, 2.0, 5.0])
    def test_a_node_that_hears_nothing_summarizes_every_period(self, period, monkeypatch):
        monkeypatch.setattr(antientropy, "PERIOD", period)
        cluster = build_cluster(nodes=8)
        plan = FaultPlan(partitions=(Partition(members=("n3",), start=0.0, heal_at=1e6),))
        apply_plan(cluster, plan)
        sent = record_sends(cluster.nodes["n3"])
        ticks = 5
        cluster.run(until=antientropy.START_DELAY + (ticks - 1) * period + period / 2)
        expected = [antientropy.START_DELAY + index * period for index in range(ticks)]
        assert times_of(sent, "ae.summary") == pytest.approx(expected)
        assert cluster.nodes["n3"].antientropy._trickle.interval == period

    def test_a_consistent_quiet_cluster_backs_off_to_the_cap(self):
        cluster = self.backed_off()
        metrics = cluster.sim.metrics
        assert metrics.counter("ae.shares_resent") == 0
        assert metrics.counter("ae.summary_replies") == 0
        # Every node at every PERIOD would have sent 16 * 2 * 96 summaries.
        assert metrics.counter("ae.summaries_sent") < 16 * 2 * 96 / 5
        sent = record_sends(cluster.nodes["n0"])
        cluster.run(until=cluster.sim.now + 4 * self.CAP)
        assert gaps(times_of(sent, "ae.summary")) == pytest.approx([self.CAP] * 3)

    def test_after_a_reset_the_next_summary_is_never_sooner_than_a_period(self):
        cluster = self.backed_off()
        node = cluster.nodes["n0"]
        sent = record_sends(node)
        cluster.run(until=cluster.sim.now + self.CAP + 0.01)
        last = times_of(sent, "ae.summary")[-1]
        resets = cluster.sim.metrics.counter("ae.summary_resets")
        # A summary naming an id n0 lacks, 10 ms after n0's own summary.
        node.on_message(DirectMessage("ae.summary", ("bc-unknown-1",)), "n1")
        assert cluster.sim.metrics.counter("ae.summary_resets") == resets + 1
        assert node.antientropy._trickle.interval == antientropy.PERIOD
        cluster.run(until=cluster.sim.now + 3 * antientropy.PERIOD)
        later = [at for at in times_of(sent, "ae.summary") if at > last]
        assert later[0] == pytest.approx(last + antientropy.PERIOD)
        assert all(gap >= antientropy.PERIOD - 1e-9 for gap in gaps([last] + later))

    def test_a_spamming_member_cannot_raise_the_rate_above_a_summary_and_a_reply_per_period(self):
        cluster = self.backed_off()
        node = cluster.nodes["n0"]
        spammer = next(m for m in sorted(node.vgroup_view.members) if m != "n0")
        sent = record_sends(node)
        start = cluster.sim.now
        # Every 10 ms: a summary that names an id n0 lacks and lacks the id
        # n0 delivered long ago -- inconsistent both ways, its sender behind.
        for index in range(2000):
            cluster.sim.schedule_at(
                start + 0.01 * index,
                lambda i=index: node.on_message(
                    DirectMessage("ae.summary", (f"bc-forged-{i}",)), spammer
                ),
            )
        cluster.run(until=start + 20.0)
        for kind in ("ae.summary", "ae.reply"):
            times = times_of(sent, kind)
            assert len(times) >= 10, kind
            assert all(gap >= antientropy.PERIOD - 1e-9 for gap in gaps(times)), kind

    def test_two_mutually_behind_nodes_exchange_one_reply(self, monkeypatch):
        # No timer fires: the only summaries are the ones the test sends.
        monkeypatch.setattr(antientropy, "START_DELAY", 1e6)
        cluster = build_cluster(seed=17, nodes=8)
        first, second = (cluster.nodes[a] for a in ("n0", "n1"))
        for node, bcast_id in ((first, "bc-only-first-1"), (second, "bc-only-second-1")):
            node.delivered[bcast_id] = 0.0
            node.delivered_order.append(bcast_id)
        cluster.run(until=10.0)
        first.antientropy._send_summary(("n1",), "ae.summary")
        sent = {node.address: record_sends(node) for node in (first, second)}
        cluster.run(until=30.0)
        # n1 answers n0's summary (n0 lacks n1's id); n0 never answers a reply.
        assert [kind for _, kind, _ in sent["n1"]] == ["ae.reply"]
        assert sent["n0"] == []
        assert cluster.sim.metrics.counter("ae.summary_replies") == 1

    def test_a_late_heal_is_repaired_within_four_periods(self):
        # The system has gone quiet (every connected node at the longest
        # interval) by the time the cut heals, 36 s after the last broadcast.
        cluster = build_cluster(seed=19, nodes=30)
        cut = ("n4", "n11", "n20")
        heal_at = 40.0
        apply_plan(cluster, FaultPlan(partitions=(Partition(members=cut, start=0.6, heal_at=heal_at),)))
        ids = []
        for index, origin in enumerate(("n0", "n1", "n2", "n3", "n5", "n6")):
            cluster.sim.schedule(
                1.0 + 0.5 * index, lambda o=origin: ids.append(cluster.broadcast(o, o))
            )
        cluster.run(until=heal_at - 0.01)
        assert all(not cluster.nodes[a].has_delivered(b) for a in cut for b in ids)
        assert all(
            node.antientropy._trickle.interval == self.CAP
            for address, node in cluster.nodes.items()
            if address not in cut
        )
        cluster.run(until=heal_at + 20.0)
        landed = [cluster.nodes[a].delivery_time(b) for a in cut for b in ids]
        assert None not in landed
        assert max(landed) - heal_at <= 4 * antientropy.PERIOD


class TestRepair:
    def test_isolated_node_catches_up_after_heal(self):
        # n1 is fully cut off while a broadcast disseminates; without
        # anti-entropy it would stay divergent forever (no retransmission).
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=21, monitor=monitor)
        plan = FaultPlan(partitions=(Partition(members=("n1",), start=0.0, heal_at=6.0),))
        apply_plan(cluster, plan, monitor=monitor)
        ids = {}
        cluster.sim.schedule(1.0, lambda: ids.setdefault("id", cluster.broadcast("n0", "d")))
        cluster.run(until=5.0)
        assert not cluster.nodes["n1"].has_delivered(ids["id"])  # still cut
        cluster.run(until=30.0)
        assert cluster.nodes["n1"].has_delivered(ids["id"])  # repaired
        assert cluster.delivery_fraction(ids["id"]) == 1.0
        monitor.finalize()
        monitor.assert_clean()

    def test_two_sided_split_reconciles_both_directions(self):
        # Broadcasts originate on BOTH sides during the split; each side
        # diverges and anti-entropy must reconcile both after the heal.
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=23, nodes=20, monitor=monitor)
        addresses = sorted(cluster.nodes)
        side_a = tuple(addresses[0::2])
        side_b = tuple(addresses[1::2])
        plan = FaultPlan(
            partitions=(Partition(sides=(side_a, side_b), start=0.5, heal_at=6.0),)
        )
        apply_plan(cluster, plan, monitor=monitor)
        ids = {}
        cluster.sim.schedule(
            1.0, lambda: ids.setdefault("a", cluster.broadcast(side_a[0], "from-a"))
        )
        cluster.sim.schedule(
            1.0, lambda: ids.setdefault("b", cluster.broadcast(side_b[0], "from-b"))
        )
        cluster.run(until=5.5)
        # Divergence while split: neither broadcast crossed the cut.
        assert cluster.delivery_fraction(ids["a"]) < 1.0
        assert cluster.delivery_fraction(ids["b"]) < 1.0
        cluster.run(until=45.0)
        assert cluster.delivery_fraction(ids["a"]) == 1.0
        assert cluster.delivery_fraction(ids["b"]) == 1.0
        metrics = cluster.sim.metrics
        assert metrics.counter("ae.shares_resent") > 0
        monitor.finalize()
        monitor.assert_clean()

    def test_repair_respects_group_message_majority(self):
        # The repair path re-sends ordinary shares under the ordinary gm-id:
        # a single re-sender can never push a message past the majority rule
        # by itself, so acceptance counters only move once enough distinct
        # co-members re-sent.  Indirect check: repaired deliveries at the
        # healed node arrive through group-message accepts, not some side
        # channel -- the accept count grows between heal and repair.
        cluster = build_cluster(seed=27)
        plan = FaultPlan(partitions=(Partition(members=("n1",), start=0.0, heal_at=6.0),))
        apply_plan(cluster, plan)
        ids = {}
        cluster.sim.schedule(1.0, lambda: ids.setdefault("id", cluster.broadcast("n0", "d")))
        cluster.run(until=6.0)
        accepted_at_heal = cluster.sim.metrics.counter("group.messages_accepted")
        cluster.run(until=30.0)
        assert cluster.nodes["n1"].has_delivered(ids["id"])
        assert cluster.sim.metrics.counter("group.messages_accepted") > accepted_at_heal

    def test_byzantine_nodes_do_not_run_anti_entropy(self):
        cluster = build_cluster(seed=31)
        cluster.make_byzantine(["n2"], mode="silent")
        cluster.broadcast("n0", "x")
        before = cluster.sim.metrics.counter("ae.summaries_sent")
        cluster.run(until=10.0)
        total_after = cluster.sim.metrics.counter("ae.summaries_sent")
        assert total_after > before  # correct nodes gossip summaries
        # A deterministic upper bound: with one silent node, at most
        # (n - 1) * fanout summaries per completed tick round.
        ticks = int((10.0 - antientropy.START_DELAY) / antientropy.PERIOD) + 1
        assert total_after <= (len(cluster.nodes) - 1) * antientropy.FANOUT * ticks


class TestSummaryFrames:
    @pytest.mark.parametrize("smr_kind", ["sync", "async"])
    def test_a_summary_carries_only_broadcast_ids(self, smr_kind):
        from repro.core.config import SmrKind

        pbft = smr_kind == "async"
        overrides = dict(smr_kind=SmrKind.ASYNC, checkpoint_interval=2) if pbft else {}
        cluster = AtumCluster(
            replace(small_params(), **overrides),
            seed=43,
            antientropy=AntiEntropyConfig(),
        )
        cluster.build_static([f"n{i}" for i in range(8)])
        # Gossip-delivered broadcasts only grow the *origin vgroup's* log,
        # so drive two broadcasts through ONE vgroup to cross the interval.
        node = cluster.nodes["n0"]
        co_member = next(m for m in sorted(node.vgroup_view.members) if m != "n0")
        ids = {cluster.broadcast("n0", "a"), cluster.broadcast(co_member, "b")}
        payloads = []
        original = node.send_direct_many

        def spy(peers, kind, payload, size_bytes=256):
            if kind in ("ae.summary", "ae.reply"):
                payloads.append(payload)
            return original(peers, kind, payload, size_bytes=size_bytes)

        node.send_direct_many = spy
        cluster.run(until=20.0)
        if pbft:
            for member in node.vgroup_view.members:
                assert cluster.nodes[member].replica.checkpoints.stable_seq == 2
        assert payloads
        for payload in payloads:
            assert isinstance(payload, tuple)
            assert all(isinstance(bcast_id, str) for bcast_id in payload)
        assert set(payloads[-1]) == ids

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("ae.summary", 5),
            # An ``(ids, checkpoint seq)`` pair is not a tuple of ids.
            ("ae.summary", (("bc-n1-1",), 3)),
            ("ae.reply", None),
            ("ae.hint", 7),
            ("ae.hint", "xy"),
        ],
        ids=["summary-int", "summary-old-shape", "reply-none", "hint-int", "hint-str"],
    )
    def test_a_malformed_frame_is_dropped_and_counted(self, kind, payload):
        cluster = build_cluster(seed=47, nodes=8)
        cluster.broadcast("n0", "x")
        cluster.run(until=6 * MAX_PERIODS * antientropy.PERIOD)
        node = cluster.nodes["n0"]
        trickle = node.antientropy._trickle
        assert trickle.interval > antientropy.PERIOD  # a reset would show
        metrics = cluster.sim.metrics
        watched = ("ae.requests_sent", "ae.shares_resent", "ae.reproposals", "ae.summary_resets")
        before = {name: metrics.counter(name) for name in watched}
        interval = trickle.interval
        sender = next(m for m in sorted(node.vgroup_view.members) if m != "n0")
        node.on_message(DirectMessage(kind, payload), sender)
        assert metrics.counter("ae.rejected_malformed") == 1
        assert {name: metrics.counter(name) for name in watched} == before
        assert trickle.interval == interval
        assert node.antientropy._requests.pending_count() == 0


class TestDeterminism:
    def test_antientropy_runs_are_replayable(self):
        def run():
            cluster = build_cluster(seed=37, nodes=20)
            addresses = sorted(cluster.nodes)
            plan = FaultPlan(
                partitions=(
                    Partition(
                        sides=(tuple(addresses[0::2]), tuple(addresses[1::2])),
                        start=0.5,
                        heal_at=5.0,
                    ),
                )
            )
            apply_plan(cluster, plan)
            cluster.sim.schedule(1.0, lambda: cluster.broadcast("n0", "d"))
            trace = []
            cluster.sim.run(until=25.0, trace=trace)
            return trace, dict(cluster.sim.metrics.counters)

        first_trace, first_counters = run()
        second_trace, second_counters = run()
        assert first_trace == second_trace
        assert first_counters == second_counters


class TestAntiLockstep:
    """Regression for the synchronized-retry pathology the backoff removed:
    after a heal every node retries the same repair key, and the per-node
    seeded jitter spreads those retries instead of firing them together."""

    @pytest.mark.parametrize(
        "backoff, base, key",
        [
            ("_resend_backoff", antientropy.RESEND_BACKOFF_BASE, ("bcast", "vg-1")),
            ("_repropose_backoff", antientropy.REPROPOSE_BACKOFF_BASE, "bcast"),
        ],
        ids=["resend", "repropose"],
    )
    def test_nodes_retrying_one_key_never_fire_together(self, backoff, base, key):
        cluster = build_cluster(seed=33, nodes=8)
        fired = {address: [] for address in cluster.nodes}

        def retry(address):
            gate = getattr(cluster.nodes[address].antientropy, backoff)
            assert gate.attempt(key)
            fired[address].append(cluster.sim.now)
            cluster.sim.schedule_at(gate._state[key][0], lambda: retry(address))

        for address in cluster.nodes:
            cluster.sim.schedule(5.0, lambda a=address: retry(a))
        cluster.run(until=60.0)
        for times in fired.values():
            gaps = [later - earlier for earlier, later in zip(times, times[1:])]
            assert len(gaps) >= 3
            for attempt, gap in enumerate(gaps):
                nominal = min(BACKOFF_MAX_DELAY, base * BACKOFF_FACTOR**attempt)
                assert 0.65 * nominal - 1e-9 <= gap <= 1.35 * nominal + 1e-9
        retries = [t for times in fired.values() for t in times[1:]]
        assert len(set(retries)) == len(retries)  # no two retries share an instant
