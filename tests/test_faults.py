"""Tests for the fault-injection and invariant-checking subsystem (repro.faults)."""

import json
import random
from pathlib import Path

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MiddlewareChain, MiddlewareError
from repro.core.node import AtumNode, BroadcastMessage, SmrEnvelope
from repro.crypto.digest import digest_object
from repro.faults import (
    NODE_BEHAVIOURS,
    FaultPlan,
    InvariantMonitor,
    LinkFault,
    LinkFaultInjector,
    NodeFault,
    Partition,
    apply_plan,
    check_agreement_logs,
)
from repro.faults.byzantine import RESPONDER_BEHAVIOURS, Equivocate, send_equivocating
from repro.faults.scenarios import (
    HEARTBEAT_PERIOD,
    PLAN_BUILDERS,
    SCENARIOS,
    SMALL_MATRIX,
    Scenario,
    _build_run,
    _plan_facts,
    _scenario_columns,
    main,
    run_matrix,
    run_scenario,
)
from repro.group.messages import GroupMessageEnvelope, GroupMessenger, NodeBinding
from repro.group.vgroup import VGroupView
from repro.net.latency import FixedLatency
from repro.net.message import CorruptedPayload
from repro.net.network import Network
from repro.net.requests import RequestEnvelope
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator
from repro.smr.checkpoint import StateTransferRequest
from repro.smr.harness import ReplicaGroupHarness
from repro.workloads.byzantine import select_byzantine_per_group


def small_params(**overrides):
    defaults = dict(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)
    defaults.update(overrides)
    return AtumParameters(**defaults)


def build_cluster(seed=9, nodes=16, monitor=None, **cluster_kwargs):
    cluster = AtumCluster(small_params(), seed=seed, **cluster_kwargs)
    if monitor is not None:
        cluster.attach_monitor(monitor)
    cluster.build_static([f"n{i}" for i in range(nodes)])
    return cluster


# ----------------------------------------------------------------- plan schema


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty()
        assert FaultPlan().faulted_addresses() == frozenset()

    def test_compose_concatenates(self):
        first = FaultPlan(partitions=(Partition(members=("a",), start=1.0),))
        second = FaultPlan(nodes=(NodeFault(address="b", behaviour="silent"),))
        combined = first + second
        assert len(combined.partitions) == 1 and len(combined.nodes) == 1
        assert combined.faulted_addresses() == {"a", "b"}

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(loss=1.5)
        with pytest.raises(ValueError):
            LinkFault(duplicate=-0.1)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            LinkFault(start=5.0, stop=5.0)
        with pytest.raises(ValueError):
            Partition(members=("a",), start=2.0, heal_at=1.0)
        with pytest.raises(ValueError):
            NodeFault(address="a", behaviour="crash", start=3.0, stop=3.0)

    def test_unknown_behaviour_rejected(self):
        with pytest.raises(ValueError):
            NodeFault(address="a", behaviour="gremlin")

    def test_link_fault_matching(self):
        rule = LinkFault(src="a", start=1.0, stop=2.0)
        assert rule.matches("a", "b", 1.5)
        assert not rule.matches("c", "b", 1.5)
        assert not rule.matches("a", "b", 2.0)
        assert not rule.matches("a", "b", 0.5)

    def test_corrupt_probability_validated(self):
        assert LinkFault(corrupt=0.5).corrupt == 0.5
        with pytest.raises(ValueError):
            LinkFault(corrupt=1.2)
        with pytest.raises(ValueError):
            LinkFault(corrupt=-0.1)

    def test_side_preserving_partition_schema(self):
        partition = Partition(sides=(("a", "b"), ("c",)), start=1.0, heal_at=2.0)
        assert partition.is_side_preserving
        # members derives as the sorted union of the sides
        assert partition.members == ("a", "b", "c")
        assert not Partition(members=("a",)).is_side_preserving

    def test_side_preserving_partition_validation(self):
        with pytest.raises(ValueError):  # one side is not a split
            Partition(sides=(("a", "b"),))
        with pytest.raises(ValueError):  # empty side
            Partition(sides=(("a",), ()))
        with pytest.raises(ValueError):  # overlapping sides
            Partition(sides=(("a", "b"), ("b", "c")))
        with pytest.raises(ValueError):  # inconsistent explicit members
            Partition(members=("a",), sides=(("a",), ("b",)))
        # consistent explicit members are accepted
        assert Partition(members=("a", "b"), sides=(("a",), ("b",))).members == ("a", "b")

    def test_side_members_not_counted_unavailable(self):
        plan = FaultPlan(
            partitions=(
                Partition(sides=(("a",), ("b",))),
                Partition(members=("c",)),
            ),
            nodes=(NodeFault(address="d", behaviour="crash"),),
        )
        # all partitioned/faulted addresses are exempt from eviction checks...
        assert plan.faulted_addresses() == {"a", "b", "c", "d"}
        # ...but side members stay *available* (their broadcasts keep the bound)
        assert plan.unavailable_addresses() == {"c", "d"}

    def test_leaves_are_neither_faulted_nor_unavailable(self):
        plan = FaultPlan(leaves=((10.0, "a"),)) + FaultPlan(nodes=(NodeFault("b", "crash"),))
        assert not FaultPlan(leaves=((10.0, "a"),)).is_empty()
        assert plan.leaves == ((10.0, "a"),)
        assert plan.faulted_addresses() == plan.unavailable_addresses() == {"b"}

    def test_building_the_epoch_crossing_plan_schedules_nothing(self):
        scenario = SCENARIOS["broadcast/epoch_crossing_catchup"]
        cluster, monitor, plan = _build_run(7, scenario)
        queued = len(cluster.sim.queue)
        rebuilt = PLAN_BUILDERS["epoch_crossing"](scenario, cluster, random.Random(7))
        assert rebuilt == plan
        assert len(cluster.sim.queue) == queued
        # The leaves are the plan's: applying it schedules them, and they run.
        leavers = [address for _, address in plan.leaves]
        assert len(leavers) == 2 and _plan_facts(plan)["unavailable_nodes"] == 0
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=max(when for when, _ in plan.leaves) + 1.0)
        assert not set(leavers) & set(cluster.engine.node_group)

    def test_a_planned_leave_of_a_node_already_gone_is_counted(self):
        cluster = build_cluster()
        cluster.engine.leave("n3")
        cluster.run(until=5.0)
        apply_plan(cluster, FaultPlan(leaves=((6.0, "n3"),)))
        cluster.run(until=7.0)
        assert cluster.sim.metrics.counter("faults.plan_leave_skipped") == 1


# ----------------------------------------------------------- network injector


class _Sink(Actor):
    def __init__(self, sim, address):
        super().__init__(sim, address)
        self.received = []

    def on_message(self, payload, sender):
        self.received.append((self.sim.now, payload, sender))


def _wired_pair(seed=3, links=(), names=("a", "b")):
    """Sinks ``names`` on a bare network, with ``links`` faulting it (if any)
    from a chain of their own; returns ``(sim, network, sinks by name)``."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency_model=FixedLatency(0.01))
    sinks = {name: _Sink(sim, name) for name in names}
    for sink in sinks.values():
        network.register(sink)
    if links:
        network.install_middleware(MiddlewareChain(LinkFaultInjector(sim, links)))
    return sim, network, sinks


class TestLinkFaultInjector:
    def test_total_loss_drops_everything(self):
        sim, network, sinks = _wired_pair(links=[LinkFault(loss=1.0)])
        receiver = sinks["b"]
        for _ in range(5):
            network.send_one("a", "b", "x", 100)
        sim.run()
        assert receiver.received == []
        assert sim.metrics.counter("faults.messages_dropped") == 5
        assert sim.metrics.counter("net.messages_lost") == 5

    def test_loss_window_expires(self):
        sim, network, sinks = _wired_pair(links=[LinkFault(loss=1.0, start=0.0, stop=5.0)])
        receiver = sinks["b"]
        network.send_one("a", "b", "early", 100)
        sim.schedule(6.0, lambda: network.send_one("a", "b", "late", 100))
        sim.run()
        assert [payload for _, payload, _ in receiver.received] == ["late"]

    def test_duplication_delivers_twice(self):
        sim, network, sinks = _wired_pair(links=[LinkFault(duplicate=1.0)])
        receiver = sinks["b"]
        network.send_one("a", "b", "x", 100)
        sim.run()
        assert [payload for _, payload, _ in receiver.received] == ["x", "x"]
        assert sim.metrics.counter("faults.messages_duplicated") == 1
        # Both copies serialize through the downlink, so they land at
        # different times.
        assert receiver.received[0][0] < receiver.received[1][0]

    def test_extra_delay_shifts_delivery(self):
        baseline_sim, baseline_net, baseline = _wired_pair()
        baseline_net.send_one("a", "b", "x", 100)
        baseline_sim.run()
        sim, network, sinks = _wired_pair(links=[LinkFault(extra_delay=0.5)])
        network.send_one("a", "b", "x", 100)
        sim.run()
        assert sinks["b"].received[0][0] == pytest.approx(baseline["b"].received[0][0] + 0.5)

    def test_only_matching_links_perturbed(self):
        sim, network, sinks = _wired_pair(
            seed=4, links=[LinkFault(dst="b", loss=1.0)], names=("a", "b", "c")
        )
        network.send_one("a", "b", "x", 100)
        network.send_one("a", "c", "x", 100)
        sim.run()
        assert sinks["b"].received == []
        assert len(sinks["c"].received) == 1

    def test_every_send_entry_point_respects_injector(self):
        sim, network, sinks = _wired_pair(
            seed=5, links=[LinkFault(loss=1.0)], names=("a", "b", "c")
        )
        network.send_many("a", ["b", "c"], "x", 64)
        network.send_fanout("a", ["b", "c"], "y", 64)
        network.send_one("a", "b", "z", 64)
        sim.run()
        assert sinks["b"].received == [] and sinks["c"].received == []
        assert sim.metrics.counter("faults.messages_dropped") == 5


# -------------------------------------------------------------- corruption


class TestCorruptionFault:
    def test_every_send_entry_point_delivers_corrupted_wrapper(self):
        # The wire-level contract: with corrupt=1.0 every entry point hands the
        # receiver a CorruptedPayload wrapper (which protocol actors then
        # verify and discard) instead of the raw payload.
        sim, network, sinks = _wired_pair(
            seed=6, links=[LinkFault(corrupt=1.0)], names=("a", "b", "c")
        )
        network.send_one("a", "b", "p1", 64)
        network.send_one("a", "b", "p2", 64)
        network.send_many("a", ["b", "c"], "p3", 64)
        network.send_fanout("a", ["b", "c"], "p5", 64)
        sim.run()
        received = [p for _, p, _ in sinks["b"].received] + [
            p for _, p, _ in sinks["c"].received
        ]
        assert len(received) == 6
        assert all(isinstance(p, CorruptedPayload) for p in received)
        assert sim.metrics.counter("faults.messages_corrupted") == 6

    def test_corrupted_full_share_fails_digest_verification(self):
        sim = Simulator(seed=8)
        network = Network(sim, latency_model=FixedLatency(0.005))
        view = VGroupView.create("B", ["b0"])
        node = _GmNode(sim, network, "b0", view)
        network.register(node)
        payload = {"value": 42}
        envelope = GroupMessageEnvelope(
            gm_id="gm-c1",
            source_group="A",
            source_epoch=0,
            target_group="B",
            kind="k",
            payload=payload,
            digest=digest_object(payload),
            sender_group_size=1,
        )
        assert node.messenger.verify_share(envelope)  # intact share verifies
        node.messenger.handle_corrupted(envelope, "a0")
        assert node.accepted == []  # discarded before accumulation
        assert node.messenger.pending_count() == 0
        assert sim.metrics.counter("group.corrupted_shares_dropped") == 1

    def test_corrupted_digest_share_cannot_reach_majority(self):
        # A digest-only share carries nothing to verify; the garbled digest
        # lands in its own conflicting bucket like an equivocation and the
        # honest shares still win.
        sim, view_b, nodes = TestEquivocation()._group_pair(seed=30)
        honest_digest_envelope = GroupMessageEnvelope(
            gm_id="gm1",
            source_group="A",
            source_epoch=0,
            target_group="B",
            kind="k",
            payload=None,
            digest=digest_object("honest"),
            sender_group_size=3,
        )
        nodes["b0"].messenger.handle_corrupted(honest_digest_envelope, "a2")
        nodes["a0"].messenger.send(view_b, "k", "honest", gm_id="gm1")
        nodes["a1"].messenger.send(view_b, "k", "honest", gm_id="gm1")
        sim.run()
        accepted = nodes["b0"].accepted
        assert len(accepted) == 1 and accepted[0][1] == "honest"

    def test_cluster_discards_corruption_on_every_protocol(self):
        # End to end: every message to n1 arrives bit-flipped.  SMR envelopes
        # and direct messages fail transport authentication, gossip shares
        # fail the payload-digest check -- n1 delivers nothing, nobody else
        # is affected, and no agreement invariant breaks.
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=43, nodes=16, monitor=monitor)
        apply_plan(
            cluster,
            FaultPlan(links=(LinkFault(dst="n1", corrupt=1.0),)),
            monitor=monitor,
        )
        bcast = {}
        cluster.sim.schedule(0.5, lambda: bcast.setdefault("id", cluster.broadcast("n0", "x")))
        cluster.run(until=30.0)
        assert not cluster.nodes["n1"].has_delivered(bcast["id"])
        others = [
            node
            for address, node in cluster.nodes.items()
            if address not in ("n0", "n1")
        ]
        assert all(node.has_delivered(bcast["id"]) for node in others)
        metrics = cluster.sim.metrics
        assert metrics.counter("faults.messages_corrupted") > 0
        assert (
            metrics.counter("group.corrupted_shares_dropped")
            + metrics.counter("net.corrupted_discarded")
            > 0
        )
        monitor.finalize()
        monitor.assert_clean()

    def test_controller_adds_its_injector_to_the_cluster_chain(self):
        cluster = build_cluster(seed=43, nodes=16)
        controller = apply_plan(cluster, FaultPlan(links=(LinkFault(dst="n1", loss=1.0),)))
        with pytest.raises(MiddlewareError, match="already in the chain"):
            cluster.middleware_chain().add(controller.injector)
        broadcast_id = cluster.broadcast("n0", "x")
        cluster.run(until=30.0)
        delivered = set(cluster.delivery_times(broadcast_id))
        assert delivered == set(cluster.nodes) - {"n1"}

    def test_corrupt_links_scenario_stays_clean(self):
        row = run_scenario(5, "broadcast/corrupt_links")
        assert row["violations"] == 0
        assert row["counters"]["faults.messages_corrupted"] > 0
        assert row["counters"]["group.corrupted_shares_dropped"] > 0
        assert row["delivery_bound_met"]


# ------------------------------------------------ side-preserving partitions


class TestSidePreservingPartitions:
    def test_controller_forms_and_heals_split(self):
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=45, nodes=12, monitor=monitor)
        addresses = sorted(cluster.nodes)
        side_a, side_b = tuple(addresses[:6]), tuple(addresses[6:])
        plan = FaultPlan(
            partitions=(Partition(sides=(side_a, side_b), start=1.0, heal_at=5.0),)
        )
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=2.0)
        assert cluster.network.crosses_split(side_a[0], side_b[0])
        assert not cluster.network.crosses_split(side_a[0], side_a[1])
        # per-node isolation is NOT in effect: both sides stay live
        assert not cluster.network.is_partitioned(side_a[0])
        cluster.run(until=6.0)
        assert not cluster.network.crosses_split(side_a[0], side_b[0])
        assert cluster.sim.metrics.counter("faults.partitions_formed") == 1
        assert cluster.sim.metrics.counter("faults.partitions_healed") == 1

    def test_controller_splits_through_the_cluster_coordinator(self):
        # The split gets per-side membership books, so healing it yields a
        # merge decision; a network-only split would heal with none.
        cluster = build_cluster(seed=45, nodes=12)
        addresses = sorted(cluster.nodes)
        sides = (tuple(addresses[:6]), tuple(addresses[6:]))
        apply_plan(cluster, FaultPlan(partitions=(Partition(sides=sides, start=1.0),)))
        cluster.run(until=2.0)
        decision = cluster.merge()
        assert decision is not None
        assert decision.evicted == frozenset()
        assert not cluster.network.crosses_split(sides[0][0], sides[1][0])

    def test_sides_keep_running_their_own_smr(self):
        # A broadcast from each side during the split reaches that side's
        # correct nodes co-grouped with the origin -- the sides are live,
        # which per-node isolation could never show.
        cluster = build_cluster(seed=47, nodes=12)
        addresses = sorted(cluster.nodes)
        side_a, side_b = tuple(addresses[:6]), tuple(addresses[6:])
        plan = FaultPlan(partitions=(Partition(sides=(side_a, side_b), start=0.0),))
        apply_plan(cluster, plan)
        ids = {}
        cluster.sim.schedule(
            0.5, lambda: ids.setdefault("a", cluster.broadcast(side_a[0], "from-a"))
        )
        cluster.sim.schedule(
            0.5, lambda: ids.setdefault("b", cluster.broadcast(side_b[0], "from-b"))
        )
        cluster.run(until=20.0)
        delivered_a = {a for a in cluster.delivery_times(ids["a"])}
        delivered_b = {a for a in cluster.delivery_times(ids["b"])}
        assert delivered_a and delivered_a <= set(side_a)
        assert delivered_b and delivered_b <= set(side_b)

    @pytest.mark.parametrize("name", ["broadcast/two_sided_split", "broadcast/two_sided_split_pbft"])
    def test_split_scenarios_reconcile_to_full_delivery(self, name):
        row = run_scenario(7, name)
        assert row["violations"] == 0
        assert row["mean_delivery_fraction"] == 1.0
        assert row["delivery_bound_met"]
        assert row["counters"]["ae.shares_resent"] > 0


# ------------------------------------------------------ deterministic replay


class TestDeterminism:
    def test_empty_plan_and_monitor_leave_trace_byte_identical(self):
        def run(with_faults):
            cluster = AtumCluster(small_params(), seed=11)
            if with_faults:
                monitor = InvariantMonitor()
                cluster.attach_monitor(monitor)
            cluster.build_static([f"n{i}" for i in range(16)])
            if with_faults:
                apply_plan(cluster, FaultPlan(), monitor=cluster.monitor)
            cluster.sim.schedule(0.1, lambda: cluster.broadcast("n0", "hello"))
            trace = []
            cluster.sim.run(until=20.0, trace=trace)
            return trace, dict(cluster.sim.metrics.counters)

        plain_trace, plain_counters = run(False)
        faulty_trace, faulty_counters = run(True)
        assert faulty_trace == plain_trace
        assert faulty_counters == plain_counters

    def test_faulty_runs_are_seed_deterministic(self):
        first = run_scenario(13, "broadcast/lossy_links")
        second = run_scenario(13, "broadcast/lossy_links")
        assert first == second

    def test_different_seeds_draw_different_faults(self):
        first = run_scenario(13, "broadcast/lossy_links")
        second = run_scenario(14, "broadcast/lossy_links")
        assert (
            first["counters"]["faults.messages_dropped"]
            != second["counters"]["faults.messages_dropped"]
        )


# ----------------------------------------------------------- node behaviours


class TestNodeBehaviours:
    def test_crash_recover_window(self):
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=21, nodes=16, monitor=monitor)
        plan = FaultPlan(nodes=(NodeFault(address="n1", behaviour="crash", start=1.0, stop=10.0),))
        apply_plan(cluster, plan, monitor=monitor)
        during = {}
        after = {}
        cluster.sim.schedule(2.0, lambda: during.setdefault("id", cluster.broadcast("n0", "during")))
        cluster.sim.schedule(12.0, lambda: after.setdefault("id", cluster.broadcast("n0", "after")))
        cluster.run(until=40.0)
        node = cluster.nodes["n1"]
        assert node.is_correct  # recovered
        assert not node.has_delivered(during["id"])  # was down
        assert node.has_delivered(after["id"])  # participates again
        monitor.finalize()
        monitor.assert_clean()

    def test_partition_heal_reaches_correct_fraction_bound(self):
        # A partition that respects the per-vgroup minority keeps every group
        # message acceptable: broadcasts sent during the partition reach every
        # connected correct node (>= 1 - fault_fraction of the system), and
        # broadcasts sent after the heal reach the paper's full bound (every
        # correct node).
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=17, nodes=24, monitor=monitor)
        rng = random.Random(1)
        partitioned = select_byzantine_per_group(cluster.engine.groups.values(), 0.25, rng)
        assert partitioned
        plan = FaultPlan(
            partitions=(Partition(members=tuple(partitioned), start=0.0, heal_at=10.0),)
        )
        apply_plan(cluster, plan, monitor=monitor)
        ids = {}
        cluster.sim.schedule(1.0, lambda: ids.setdefault("during", cluster.broadcast("n0", "d")))
        cluster.sim.schedule(12.0, lambda: ids.setdefault("post", cluster.broadcast("n0", "p")))
        cluster.run(until=50.0)
        correct_fraction = (24 - len(partitioned)) / 24
        assert cluster.delivery_fraction(ids["during"]) >= correct_fraction
        assert cluster.delivery_fraction(ids["post"]) == 1.0
        monitor.finalize()
        monitor.assert_clean()

    def test_overlapping_partition_heal_keeps_other_partition_active(self):
        # Healing one partition must not release an address that another
        # still-active partition of the composed plan also covers.
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=25, nodes=16, monitor=monitor)
        plan = FaultPlan(
            partitions=(
                Partition(members=("n1",), start=0.0, heal_at=5.0),
                Partition(members=("n1", "n2"), start=0.0, heal_at=20.0),
            )
        )
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=6.0)
        assert cluster.network.is_partitioned("n1")  # second partition holds
        assert cluster.network.is_partitioned("n2")
        cluster.run(until=21.0)
        assert not cluster.network.is_partitioned("n1")
        assert not cluster.network.is_partitioned("n2")

    def test_crash_window_restores_composed_behaviour(self):
        # A crash-recover window layered over a permanent behaviour fault
        # must hand the node back to that behaviour, not to correctness.
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=27, nodes=16, monitor=monitor)
        plan = FaultPlan(
            nodes=(
                NodeFault(address="n1", behaviour="silent"),
                NodeFault(address="n1", behaviour="crash", start=5.0, stop=10.0),
            )
        )
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=4.0)
        assert cluster.nodes["n1"].byzantine == "silent"
        cluster.run(until=8.0)
        assert cluster.nodes["n1"].byzantine == "mute"
        cluster.run(until=20.0)
        assert cluster.nodes["n1"].byzantine == "silent"

    def test_two_attacker_minority_in_one_group_cannot_evict(self):
        # The sharpest version of the §6.1.3 attack: a single 5-member vgroup
        # with the largest strict minority (2 attackers).  The eviction
        # threshold is a strict majority of the 4 co-members (3), so the two
        # attackers' persistent accusations must never evict anyone.
        monitor = InvariantMonitor()
        cluster = AtumCluster(
            small_params(heartbeat_period=2.0), seed=29, enable_heartbeats=True
        )
        cluster.attach_monitor(monitor)
        cluster.build_static([f"n{i}" for i in range(5)])
        assert cluster.engine.group_count == 1
        attackers = select_byzantine_per_group(
            cluster.engine.groups.values(), 0.4, random.Random(3)
        )
        assert len(attackers) == 2
        plan = FaultPlan(
            nodes=tuple(
                NodeFault(address=a, behaviour="evict_attack", attack_period=3.0)
                for a in attackers
            )
        )
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=60.0)
        assert cluster.sim.metrics.counter("faults.evictions_proposed_by_byzantine") > 0
        assert cluster.sim.metrics.counter("membership.evictions_started") == 0
        assert cluster.engine.system_size == 5
        monitor.finalize()
        monitor.assert_clean()

    def test_recovered_nodes_do_not_mass_suspect_correct_peers(self):
        # Recovering monitors restart with a clean slate: comparing "now"
        # against pre-crash last_seen timestamps would make two recovered
        # nodes instantly co-accuse the one correct peer and wrongfully
        # evict it.  Short crash window so the crashed pair recovers before
        # the (impossible, 1-of-2-reporter) eviction could ever fire.
        monitor = InvariantMonitor()
        cluster = AtumCluster(
            small_params(heartbeat_period=2.0), seed=37, enable_heartbeats=True
        )
        cluster.attach_monitor(monitor)
        cluster.build_static(["n0", "n1", "n2"])
        assert cluster.engine.group_count == 1
        plan = FaultPlan(
            nodes=(
                NodeFault(address="n0", behaviour="crash", start=5.0, stop=40.0),
                NodeFault(address="n1", behaviour="crash", start=5.0, stop=40.0),
            )
        )
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=80.0)
        assert "n2" in cluster.engine.node_group
        monitor.finalize()
        monitor.assert_clean()

    def test_partially_overlapping_windows_restore_the_active_fault(self):
        # silent on [0,30) overlaps equivocate on [10,50): when silent ends,
        # the still-active equivocate fault must take over, and when that
        # ends too the node recovers.
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=39, nodes=16, monitor=monitor)
        plan = FaultPlan(
            nodes=(
                NodeFault(address="n1", behaviour="silent", start=0.0, stop=30.0),
                NodeFault(address="n1", behaviour="equivocate", start=10.0, stop=50.0),
            )
        )
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=5.0)
        assert cluster.nodes["n1"].byzantine == "silent"
        cluster.run(until=20.0)
        assert cluster.nodes["n1"].byzantine == "equivocate"
        cluster.run(until=35.0)
        assert cluster.nodes["n1"].byzantine == "equivocate"
        cluster.run(until=55.0)
        assert cluster.nodes["n1"].byzantine is None

    @pytest.mark.parametrize("behaviour", NODE_BEHAVIOURS)
    def test_recovery_takes_back_every_override(self, behaviour):
        # A behaviour lives in instance attributes of the node, its replica
        # and its monitor; recovery leaves the node as it was built.
        cluster = AtumCluster(
            small_params(heartbeat_period=2.0), seed=43, enable_heartbeats=True
        )
        cluster.build_static([f"n{i}" for i in range(8)])
        node, control = cluster.nodes["n1"], cluster.nodes["n2"]
        routes, attributes = dict(node._routes), set(vars(node))
        cluster.make_byzantine(["n1"], behaviour)
        assert node.byzantine == ("mute" if behaviour == "crash" else behaviour)
        # Only the responders keep sending SMR frames (they sign checkpoints),
        # and only an equivocator changes what its shares say.
        responder = behaviour in RESPONDER_BEHAVIOURS
        assert ("_send_smr" in vars(node)) is not responder
        assert ("_send_shares" in vars(node)) is (behaviour == "equivocate")
        assert node.replica.send_fn == node._send_smr
        assert list(node._routes) == {
            "crash": [], "mute": [], "silent": [CorruptedPayload],
            "evict_attack": [CorruptedPayload], "rejoin_attack": [CorruptedPayload],
        }.get(behaviour, list(routes))
        cluster.run(until=3.0)
        cluster.recover("n1")
        assert node.byzantine is None
        assert set(vars(node)) == attributes == set(vars(control))
        assert node._routes == routes
        assert [(kind, h.__func__) for kind, h in node._routes.items()] == [
            (kind, h.__func__) for kind, h in control._routes.items()
        ]
        assert node.replica.send_fn == node._send_smr
        assert node.replica.send_fn.__func__ is AtumNode._send_smr
        assert "start" not in vars(node.heartbeats)
        assert node.heartbeats.running and control.heartbeats.running

    def test_crash_window_inside_equivocate_puts_its_overrides_back(self):
        cluster = build_cluster(seed=45, nodes=16)
        plan = FaultPlan(
            nodes=(
                NodeFault(address="n1", behaviour="equivocate"),
                NodeFault(address="n1", behaviour="crash", start=5.0, stop=10.0),
            )
        )
        apply_plan(cluster, plan)
        node, control = cluster.nodes["n1"], cluster.nodes["n2"]
        cluster.run(until=8.0)
        assert node.byzantine == "mute" and node._routes == {}
        assert "_send_shares" not in vars(node)
        cluster.run(until=20.0)
        assert node.byzantine == "equivocate"
        assert isinstance(node._send_shares.__self__, Equivocate)
        assert node.replica.send_fn is vars(node)["_send_smr"]
        assert list(node._routes) == list(control._routes)

    def test_a_replica_made_in_a_fault_window_sends_as_the_behaviour(self):
        cluster = build_cluster(seed=47, nodes=16)
        node = cluster.add_node("late")
        cluster.make_byzantine(["late"], "silent")
        cluster.engine.join("late", contact_node="n0")
        cluster.run_until_membership_quiescent(max_time=600.0)
        assert node.is_member
        assert node.replica.send_fn is vars(node)["_send_smr"]
        cluster.recover("late")
        assert node.replica.send_fn.__func__ is AtumNode._send_smr

    def test_mute_node_stops_heartbeating_and_is_evicted(self):
        # "mute" means completely unresponsive, heartbeats included: the
        # node's monitor must stop so its vgroup peers eventually evict it.
        monitor = InvariantMonitor()
        cluster = AtumCluster(
            small_params(heartbeat_period=2.0), seed=33, enable_heartbeats=True
        )
        cluster.attach_monitor(monitor)
        cluster.build_static([f"n{i}" for i in range(16)])
        plan = FaultPlan(nodes=(NodeFault(address="n1", behaviour="mute", start=1.0),))
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=60.0)
        assert not cluster.nodes["n1"].heartbeats.running
        assert "n1" not in cluster.engine.node_group
        assert cluster.sim.metrics.counter("membership.evictions_started") == 1
        monitor.finalize()
        monitor.assert_clean()

    def test_crashed_node_stays_mute_across_view_changes(self):
        # Reconfigurations of the victim's vgroup (here: a join) must not
        # resurrect its stopped heartbeat monitor and hide the crash.
        monitor = InvariantMonitor()
        cluster = AtumCluster(
            small_params(heartbeat_period=2.0), seed=35, enable_heartbeats=True
        )
        cluster.attach_monitor(monitor)
        cluster.build_static([f"n{i}" for i in range(16)])
        plan = FaultPlan(nodes=(NodeFault(address="n0", behaviour="crash", start=1.0),))
        apply_plan(cluster, plan, monitor=monitor)
        cluster.sim.schedule(2.0, lambda: cluster.join("newcomer"))
        cluster.run(until=60.0)
        assert not cluster.nodes["n0"].heartbeats.running
        assert "n0" not in cluster.engine.node_group
        monitor.finalize()
        monitor.assert_clean()

    def test_evict_attack_never_evicts_correct_nodes(self):
        monitor = InvariantMonitor()
        cluster = AtumCluster(
            small_params(heartbeat_period=2.0), seed=23, enable_heartbeats=True
        )
        cluster.attach_monitor(monitor)
        cluster.build_static([f"n{i}" for i in range(20)])
        rng = random.Random(2)
        attackers = select_byzantine_per_group(cluster.engine.groups.values(), 0.25, rng)
        assert attackers
        plan = FaultPlan(
            nodes=tuple(
                NodeFault(address=a, behaviour="evict_attack", attack_period=4.0)
                for a in attackers
            )
        )
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=40.0)
        assert cluster.sim.metrics.counter("faults.evictions_proposed_by_byzantine") > 0
        # No eviction went through: a Byzantine minority cannot assemble the
        # majority suspicion an eviction requires.
        assert cluster.sim.metrics.counter("membership.evictions_started") == 0
        assert cluster.engine.system_size == 20
        monitor.finalize()
        monitor.assert_clean()


# -------------------------------------------------------------- equivocation


class _GmNode(Actor):
    def __init__(self, sim, network, address, own_view):
        super().__init__(sim, address)
        self.accepted = []
        self.messenger = GroupMessenger(
            binding=NodeBinding(address=address, network=network, sim=sim),
            own_view_fn=lambda: own_view,
            on_accept=lambda kind, payload, src, gm_id, senders: self.accepted.append(
                (kind, payload, src, gm_id)
            ),
        )

    def on_message(self, payload, sender):
        self.messenger.handle(payload, sender)


class TestEquivocation:
    def _group_pair(self, seed=31):
        sim = Simulator(seed=seed)
        network = Network(sim, latency_model=FixedLatency(0.005))
        view_a = VGroupView.create("A", ["a0", "a1", "a2"])
        view_b = VGroupView.create("B", ["b0", "b1", "b2"])
        nodes = {}
        for address in list(view_a.members) + list(view_b.members):
            own = view_a if address.startswith("a") else view_b
            node = _GmNode(sim, network, address, own)
            network.register(node)
            nodes[address] = node
        return sim, view_b, nodes

    def test_minority_equivocator_never_wins(self):
        sim, view_b, nodes = self._group_pair()
        nodes["a0"].messenger.send(view_b, "k", "honest", gm_id="gm1")
        nodes["a1"].messenger.send(view_b, "k", "honest", gm_id="gm1")
        send_equivocating(nodes["a2"].messenger, view_b, "k", "honest", "forged", gm_id="gm1")
        sim.run()
        for address in ("b0", "b1", "b2"):
            accepted = nodes[address].accepted
            assert len(accepted) == 1, f"{address} accepted {accepted}"
            assert accepted[0][1] == "honest"
            # Conflicting buckets are retired with the delivery.
            assert nodes[address].messenger.pending_count() == 0
        assert sim.metrics.counter("group.equivocations_sent") == 1

    def test_equivocating_broadcaster_scenario_stays_clean(self):
        row = run_scenario(19, "broadcast/equivocators")
        assert row["violations"] == 0
        assert row["counters"]["group.equivocations_sent"] > 0
        # Every broadcast from a correct origin still reaches every correct node.
        assert row["mean_delivery_fraction"] == 1.0


# -------------------------------------------------------- invariant monitor


class TestInvariantMonitorDetections:
    """The monitor must actually fire when an invariant is broken."""

    def _monitored_cluster(self):
        monitor = InvariantMonitor()
        cluster = build_cluster(seed=41, nodes=12, monitor=monitor)
        return monitor, cluster

    def _kinds(self, monitor):
        return {violation.kind for violation in monitor.violations}

    def test_forged_group_message_detected(self):
        # Defence in depth: even with the messenger's forged-size rejection
        # bypassed, the monitor must still flag the accepted forgery.
        monitor, cluster = self._monitored_cluster()
        group_ids = sorted(cluster.engine.groups)
        source, target = group_ids[0], group_ids[1]
        victim = cluster.engine.groups[target].members[0]
        cluster.nodes[victim].messenger.source_size_fn = None
        payload = "not-a-real-decision"
        envelope = GroupMessageEnvelope(
            gm_id="forged-1",
            source_group=source,
            source_epoch=0,
            target_group=target,
            kind="custom",
            payload=payload,
            digest=digest_object(payload),
            sender_group_size=1,  # the forger lies about the group size
        )
        cluster.nodes[victim].messenger.handle(envelope, "intruder-1")
        kinds = self._kinds(monitor)
        assert "forged_sender" in kinds
        assert "forged_majority" in kinds

    def test_forged_size_rejected_by_messenger(self):
        # The protocol-level defence: a lying minority's message is dropped
        # at accept time (not merely flagged after acceptance).  The claimed
        # size of 1 would have made a single Byzantine sender a "majority".
        monitor, cluster = self._monitored_cluster()
        group_ids = sorted(cluster.engine.groups)
        source, target = group_ids[0], group_ids[1]
        liar = cluster.engine.groups[source].members[0]
        victim = cluster.engine.groups[target].members[0]
        node = cluster.nodes[victim]
        accepted = []
        deliver = node.messenger.on_accept

        def on_accept(kind, payload, source_group, gm_id, senders):
            accepted.append(payload)
            deliver(kind, payload, source_group, gm_id, senders)

        node.messenger.on_accept = on_accept
        payload = "minority-coup"
        envelope = GroupMessageEnvelope(
            gm_id="forged-2",
            source_group=source,
            source_epoch=0,
            target_group=target,
            kind="custom",
            payload=payload,
            digest=digest_object(payload),
            sender_group_size=1,
        )
        node.messenger.handle(envelope, liar)
        assert accepted == []  # dropped, no delivery to the upper layer
        assert cluster.sim.metrics.counter("group.forged_size_rejected") >= 1
        assert monitor.violations == []  # nothing was accepted to flag
        # Once a real majority of the source group backs the same message,
        # it goes through: the rejection is a threshold correction, not a
        # liveness hazard.
        required = len(cluster.engine.groups[source].members) // 2 + 1
        for member in cluster.engine.groups[source].members[:required]:
            node.messenger.handle(envelope, member)
        assert accepted == [payload]

    def test_wrongful_eviction_detected(self):
        monitor, cluster = self._monitored_cluster()
        monitor.record_eviction("n3")
        assert self._kinds(monitor) == {"correct_evicted"}

    def test_exempt_addresses_not_flagged(self):
        monitor, cluster = self._monitored_cluster()
        monitor.exempt(["n3"])
        monitor.record_eviction("n3")
        assert monitor.violations == []

    def test_evicted_identity_readmission_detected(self):
        monitor, cluster = self._monitored_cluster()
        monitor.exempt(["n3"])
        monitor.record_eviction("n3")
        group_id = sorted(cluster.engine.groups)[0]
        view = cluster.engine.groups[group_id]
        readmitted = view.with_members(list(view.members) + ["n3"])
        # While the eviction's leave is still in flight, n3 may legitimately
        # appear in views — no violation yet.
        monitor.on_view_changed(readmitted)
        assert monitor.violations == []
        # Once the eviction completed, the identity is banned.
        monitor.record_node_left("n3")
        monitor.on_view_changed(readmitted.with_members(readmitted.members))
        assert "evicted_readmitted" in self._kinds(monitor)

    def test_broadcast_payload_mismatch_detected(self):
        monitor, cluster = self._monitored_cluster()
        honest = BroadcastMessage(
            bcast_id="bc-x-1", origin="x", payload="p1", size_bytes=10, created_at=0.0
        )
        forged = BroadcastMessage(
            bcast_id="bc-x-1", origin="x", payload="p2", size_bytes=10, created_at=0.0
        )
        cluster.nodes["n1"]._deliver_and_forward(honest, source_group="")
        cluster.nodes["n2"]._deliver_and_forward(forged, source_group="")
        assert "broadcast_mismatch" in self._kinds(monitor)

    def test_monitor_observation_survives_deliver_fn_reassignment(self):
        # ASub-style apps assign node.deliver_fn after creation; the monitor
        # hook must keep observing regardless.
        monitor, cluster = self._monitored_cluster()
        cluster.nodes["n1"].deliver_fn = lambda message: None
        honest = BroadcastMessage(
            bcast_id="bc-y-1", origin="y", payload="p1", size_bytes=10, created_at=0.0
        )
        forged = BroadcastMessage(
            bcast_id="bc-y-1", origin="y", payload="p2", size_bytes=10, created_at=0.0
        )
        cluster.nodes["n1"]._deliver_and_forward(honest, source_group="")
        cluster.nodes["n2"]._deliver_and_forward(forged, source_group="")
        assert "broadcast_mismatch" in self._kinds(monitor)

    def test_epoch_regression_detected(self):
        monitor, cluster = self._monitored_cluster()
        group_id = sorted(cluster.engine.groups)[0]
        view = cluster.engine.groups[group_id]
        newer = view.with_members(view.members)  # epoch + 1
        monitor.on_view_changed(newer)
        monitor.on_view_changed(view)  # stale epoch re-installed
        assert "epoch_regression" in self._kinds(monitor)

    def test_oversized_view_detected(self):
        monitor, cluster = self._monitored_cluster()
        gmax, gmin = cluster.engine.params.gmax, cluster.engine.params.gmin
        bogus = VGroupView.create("vg-bogus", [f"m{i}" for i in range(gmax + gmin + 1)])
        monitor.on_view_changed(bogus)
        assert "group_size" in self._kinds(monitor)

    def test_assert_clean_raises_with_report(self):
        monitor, cluster = self._monitored_cluster()
        monitor.record_eviction("n3")
        with pytest.raises(AssertionError, match="correct_evicted"):
            monitor.assert_clean()


class TestAgreementChecks:
    def test_prefix_consistent_logs_pass(self):
        assert check_agreement_logs([["a", "b"], ["a", "b", "c"], []]) == []

    def test_divergence_detected(self):
        mismatches = check_agreement_logs([["a", "b"], ["a", "x"]])
        assert len(mismatches) == 1
        assert "diverge" in mismatches[0]

    def test_harness_agreement_hook(self):
        harness = ReplicaGroupHarness(group_size=4, seed=2)
        harness.propose("replica-0", "noop", {"v": 1})
        harness.run(until=30.0)
        assert harness.agreement_violations() == []


# ------------------------------------------------------------ scenario matrix


class TestScenarioMatrix:
    def test_matrix_covers_at_least_twenty_combinations(self):
        assert len(SMALL_MATRIX) >= 20
        combos = {(SCENARIOS[name].workload, SCENARIOS[name].plan) for name in SMALL_MATRIX}
        assert len(combos) >= 14  # engine/checkpoint variants share a combo
        assert {SCENARIOS[name].workload for name in SMALL_MATRIX} == {
            "broadcast",
            "churn",
            "churn_broadcast",
            "flash_crowd",
            "growth",
        }

    def test_matrix_covers_checkpointing_and_churn_attacks(self):
        # The PR-5 additions: checkpoint-enabled PBFT rows held to log
        # equality, the adaptive join-leave attack, and anti-entropy racing
        # continuous churn.
        for name in (
            "broadcast/isolated_catchup_pbft",
            "broadcast/split_stall_pbft",
            "broadcast/checkpoint_gc_pbft",
            "broadcast/rejoin_attack",
            "churn/antientropy",
        ):
            assert name in SMALL_MATRIX
        for name in (
            "broadcast/isolated_catchup_pbft",
            "broadcast/split_stall_pbft",
            "broadcast/checkpoint_gc_pbft",
        ):
            assert SCENARIOS[name].smr == "async"
            assert SCENARIOS[name].checkpoint_interval > 0
            assert SCENARIOS[name].delivery_bound == 1.0
        assert SCENARIOS["broadcast/rejoin_attack"].attack_threshold == 0.0
        assert SCENARIOS["churn/antientropy"].antientropy

    def test_matrix_covers_async_engine_splits_and_corruption(self):
        # The PR-4 additions: two-sided splits under both engines, a PBFT
        # delay spike, and a corruption scenario — with the partition-heal
        # bound lifted to the paper's full 1.0 by anti-entropy.
        for name in (
            "broadcast/two_sided_split",
            "broadcast/two_sided_split_pbft",
            "broadcast/delay_spike_pbft",
            "broadcast/corrupt_links",
        ):
            assert name in SMALL_MATRIX
        assert SCENARIOS["broadcast/two_sided_split_pbft"].smr == "async"
        assert SCENARIOS["broadcast/delay_spike_pbft"].smr == "async"
        assert SCENARIOS["broadcast/partition_heal"].antientropy
        assert SCENARIOS["broadcast/partition_heal"].delivery_bound == 1.0

    def test_nightly_matrix_scenarios_resolve(self, monkeypatch):
        from repro.faults.scenarios import NIGHTLY_MATRIX, _resolve

        assert len(NIGHTLY_MATRIX) >= 4
        for name in NIGHTLY_MATRIX:
            scenario = _resolve(name)
            assert scenario.nodes >= 400  # deployment scale (800 at scale 2)
            assert name not in SMALL_MATRIX
            assert name not in SCENARIOS  # served at resolve time, not import
        # ATUM_BENCH_SCALE is honoured when the run starts, not at import.
        monkeypatch.setenv("ATUM_BENCH_SCALE", "2")
        assert _resolve(NIGHTLY_MATRIX[0]).nodes == 800
        # ...and a malformed value fails loudly instead of shrinking the run.
        monkeypatch.setenv("ATUM_BENCH_SCALE", "2x")
        with pytest.raises(ValueError, match="ATUM_BENCH_SCALE"):
            _resolve(NIGHTLY_MATRIX[0])

    def test_nightly_name_list_matches_builder(self):
        from repro.faults.scenarios import NIGHTLY_MATRIX, _nightly_scenarios

        # Names do not depend on the size the slice is built at.
        assert NIGHTLY_MATRIX == sorted(_nightly_scenarios(800))

    @pytest.mark.parametrize(
        "name", ["broadcast/delay_spike_pbft"]
    )
    def test_async_engine_scenarios_run_clean(self, name):
        row = run_scenario(3, name)
        assert row["violations"] == 0
        assert row["smr"] == "async"
        assert row["delivery_bound_met"]

    @pytest.mark.parametrize(
        "name", ["broadcast/isolated_catchup_pbft", "broadcast/checkpoint_gc_pbft"]
    )
    def test_checkpoint_scenarios_reach_log_equality(self, name):
        # Checkpoint-enabled rows run the monitor's eventual-equality mode:
        # zero violations here means every isolated/stalled replica closed
        # its log gap through checkpoint announces + state transfer (or the
        # announce tail signal), not merely that nothing diverged.
        row = run_scenario(7, name)
        assert row["violations"] == 0
        assert row["checkpoint_interval"] > 0
        assert row["delivery_bound_met"]
        assert row["counters"]["smr.checkpoint.stable"] > 0
        if name == "broadcast/checkpoint_gc_pbft":
            # Sustained load actually exercised log GC.
            assert row["counters"]["smr.checkpoint.slots_gc"] > 0

    @pytest.mark.parametrize(
        "name",
        ["broadcast/partition_heal", "broadcast/silent_minority", "churn/crash_recover", "growth/none"],
    )
    def test_representative_scenarios_run_clean(self, name):
        row = run_scenario(3, name)
        assert row["violations"] == 0
        assert row["checks_run"] > 0
        assert row["delivery_bound_met"]

    def test_matrix_parallel_matches_serial(self):
        seeds = [3, 5]
        serial = run_matrix(["broadcast/none"], seeds=seeds, workers=1)
        parallel = run_matrix(["broadcast/none"], seeds=seeds, workers=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_matrix_row_of_one_clean_run(self):
        [row] = run_matrix(["broadcast/none"], seeds=[3], workers=1)
        assert (row["runs"], row["violations"]) == (1.0, 0.0)
        assert row["delivery_bound_met_runs"] == 1.0
        assert row["mean_delivery_fraction"] == 1.0


# ----------------------------------------------------------- the matrix fold


class TestMatrixFold:
    """``run_matrix`` folds per-seed ``run_scenario`` rows into report rows."""

    def test_fold_reproduces_committed_rows(self):
        # Together these rows exercise every fold kind: catch-up samples
        # (isolated_catchup_pbft), the integer rejoin excess (rejoin_attack),
        # the slowdown maximum and the completion ratio (slow_vgroup), and
        # the theory column for a node-fault plan (partition_heal,
        # rejoin_attack) and a network-only one (slow_vgroup).  Comparing
        # the serialised rows checks value types too: 0.0 is not 0, -1 is
        # not -1.0.
        names = [
            "broadcast/isolated_catchup_pbft",
            "broadcast/rejoin_attack",
            "churn/slow_vgroup",
        ]
        committed_path = Path(__file__).resolve().parent.parent / "FAULT_MATRIX.json"
        committed = {
            row["scenario"]: row
            for row in json.loads(committed_path.read_text(encoding="utf-8"))["matrix"]
        }
        rows = run_matrix(names, seeds=(7, 11), workers=1)
        for row in rows:
            assert json.dumps(row, sort_keys=True) == json.dumps(
                committed[row["scenario"]], sort_keys=True
            )
        catchup, rejoin, slow = rows
        assert catchup["mean_catchup_latency"] is not None
        assert type(rejoin["rejoin_max_threshold_excess"]) is int
        assert slow["max_slowdown_penalty"] is not None
        assert slow["mean_completion_ratio"] is not None
        assert slow["theory"]["fault_fraction"] == 0.0
        assert catchup["theory"]["fault_fraction"] == 0.15

    def test_empty_seeds_are_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            run_matrix(["broadcast/none"], seeds=[])

    def test_empty_names_run_nothing(self):
        assert run_matrix(names=[], seeds=[7], workers=1) == []

    def test_cli_rejects_fewer_than_one_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--seeds", "0", "--output", str(tmp_path / "m.json")])
        assert exit_info.value.code == 2
        assert "--seeds must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"workload": "brodcast"}, "unknown workload 'brodcast'"),
            ({"plan": "nope"}, "unknown plan 'nope'"),
            ({"smr": "pbft"}, "unknown smr engine 'pbft'"),
        ],
        ids=["workload", "plan", "smr"],
    )
    def test_unknown_field_is_rejected_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Scenario(**{"name": "x", "workload": "broadcast", "plan": "none", **fields})

    def test_plan_facts_give_the_committed_theory_columns(self):
        # Built plans only, no runs: a row's theory counts its fault
        # fraction exactly when some seed's plan makes a node unavailable,
        # and it has a catch-up theory exactly when some seed's plan has a
        # Byzantine state-transfer responder.
        committed_path = Path(__file__).resolve().parent.parent / "FAULT_MATRIX.json"
        committed = {
            row["scenario"]: row
            for row in json.loads(committed_path.read_text(encoding="utf-8"))["matrix"]
        }
        assert sorted(committed) == sorted(SCENARIOS)
        for name, scenario in SCENARIOS.items():
            facts = [_plan_facts(_build_run(seed, scenario)[2]) for seed in (7, 11)]
            row = committed[name]
            network_only = not any(fact["unavailable_nodes"] for fact in facts)
            assert row["theory"]["fault_fraction"] == (
                0.0 if network_only else scenario.fault_fraction
            ), name
            assert (row["catchup_theory"] is not None) == any(
                fact["responder_faults"] for fact in facts
            ), name
            assert _scenario_columns(scenario, facts)["catchup_theory"] == (
                row["catchup_theory"]
            ), name

    def test_evict_attack_proposes_at_twice_the_heartbeat_period(self):
        # Every row heartbeats at one period; the attack is paced off it.
        scenario = SCENARIOS["broadcast/evict_attack"]
        assert scenario.heartbeats
        cluster = build_cluster(seed=5, nodes=scenario.nodes)
        plan = PLAN_BUILDERS["evict_attack"](scenario, cluster, random.Random(5))
        assert plan.nodes
        assert {fault.attack_period for fault in plan.nodes} == {2.0 * HEARTBEAT_PERIOD}


# -------------------------------------------------- adversarial recovery (PR 6)


class TestAdversarialRecovery:
    """Byzantine state-transfer servers, split-brain directories, slowdowns."""

    def test_matrix_covers_adversarial_recovery(self):
        # The PR-6 additions: active Byzantine transfer responders, the
        # split-brain directory heal, the rejoin x eviction-pipeline cross,
        # and the slow-vgroup cost perturbation.
        for name in (
            "broadcast/byz_transfer_stonewall",
            "broadcast/byz_transfer_slow_drip",
            "broadcast/byz_transfer_garbage",
            "broadcast/split_brain_directory",
            "broadcast/rejoin_eviction",
            "churn/slow_vgroup",
        ):
            assert name in SMALL_MATRIX
        for name in (
            "broadcast/byz_transfer_stonewall",
            "broadcast/byz_transfer_slow_drip",
            "broadcast/byz_transfer_garbage",
        ):
            scenario = SCENARIOS[name]
            assert scenario.smr == "async" and scenario.checkpoint_interval > 0
            assert scenario.catchup_bound is not None

    def test_nightly_matrix_covers_adversarial_recovery(self):
        from repro.faults.scenarios import NIGHTLY_MATRIX, _resolve

        for name in (
            "nightly/byzantine_transfer",
            "nightly/split_brain_directory",
            "nightly/rejoin_eviction",
        ):
            assert name in NIGHTLY_MATRIX
            assert _resolve(name).nodes >= 400
        assert _resolve("nightly/byzantine_transfer").catchup_bound is not None

    @pytest.mark.parametrize(
        "name, counter",
        [
            ("broadcast/byz_transfer_stonewall", "faults.transfer_stonewalled"),
            ("broadcast/byz_transfer_slow_drip", "faults.transfer_slow_dripped"),
            ("broadcast/byz_transfer_garbage", "faults.transfer_garbage_served"),
        ],
    )
    def test_byzantine_transfer_servers_cannot_stall_catchup(self, name, counter):
        # Laggards recover through state transfer while a Byzantine minority
        # actively misserves the requests.  Zero violations is log equality
        # (checkpointed rows run the monitor's eventual-equality mode), the
        # adversary counter proves the behaviour actually fired, and the
        # catch-up bound turns "recovered eventually" into a latency SLO --
        # run_scenario fails the bound vacuously when no transfer happened.
        # Whether a laggard asks an adversary depends on which 2f+1 signer
        # subset its certificate copy names, so the counter is summed over
        # the matrix's seeds rather than required of each.
        rows = [run_scenario(seed, name) for seed in (7, 11)]
        assert sum(row["counters"].get(counter, 0) for row in rows) > 0
        for row in rows:
            assert row["violations"] == 0
            assert row["counters"]["smr.checkpoint.state_requests"] > 0
            assert row["delivery_bound_met"]
            assert row["catchup_bound_met"]
            assert row["catchup_latency_max"] is not None
            assert row["catchup_latency_max"] <= SCENARIOS[name].catchup_bound

    def test_a_stale_cert_server_serves_the_previous_certificate(self):
        # No matrix row gives a member stale_cert; here one serves a request
        # by hand once its vgroup has two stable checkpoints.
        params = AtumParameters(
            hc=2, rwl=4, gmin=5, gmax=26, smr_kind=SmrKind.ASYNC, checkpoint_interval=4
        )
        cluster = AtumCluster(params, seed=3)
        cluster.build_static([f"n{i}" for i in range(6)])
        for index in range(12):
            cluster.broadcast("n0", index)
            cluster.run(until=cluster.sim.now + 3.0)
        node = cluster.nodes["n1"]
        replica, manager = node.replica, node.replica.checkpoints
        old = manager.previous_stable
        assert old is not None and old.seq < manager.stable.seq
        served = []
        manager.respond_transfer = lambda envelope, response: served.append(response)
        cluster.make_byzantine(["n1"], "stale_cert")
        request = StateTransferRequest(epoch=replica.epoch, have_count=1)
        envelope = RequestEnvelope("r1", "ckpt.transfer", request, "n2", cluster.sim.now + 5.0)
        node.on_message(SmrEnvelope(node.group_id(), envelope), "n2")
        [response] = served
        assert response.certificate is old and response.base_count == 1
        assert response.operations == tuple(replica.decided_log[1 : old.seq])
        assert cluster.sim.metrics.counter("faults.transfer_stale_served") == 1

    def test_matrix_catchup_columns_cover_every_catchup_of_every_seed(self):
        # The matrix's mean is over all catch-ups of both runs, not a mean
        # of per-run maxima; its max is the max over the same samples.  The
        # garbage-server row has several catch-ups per run.
        name, seeds = "broadcast/byz_transfer_garbage", (7, 11)
        samples = [
            latency for seed in seeds for latency in run_scenario(seed, name)["catchup_latencies"]
        ]
        assert len(samples) > len(seeds)
        [row] = run_matrix([name], seeds=seeds, workers=1)
        assert row["mean_catchup_latency"] == sum(samples) / len(samples)
        assert row["max_catchup_latency"] == max(samples)

    def test_split_brain_directories_reconcile_at_heal(self):
        # Each side runs its own membership directory while the split is
        # active; the heal merges them deterministically and the monitor
        # replays the merge from the recorded side snapshots.  A cross-side
        # eviction is deferred mid-split and enforced at merge.
        row = run_scenario(7, "broadcast/split_brain_directory")
        assert row["violations"] == 0
        counters = row["counters"]
        assert counters["directory.splits"] >= 1
        assert counters["directory.merges"] >= 1
        assert counters["directory.evictions_deferred"] >= 1
        assert counters["directory.merge_evictions_enforced"] >= 1
        assert row["delivery_bound_met"]

    def test_rejoin_attack_against_the_eviction_pipeline_stays_bounded(self):
        # Join-leave churn by the adversary races the heartbeat eviction
        # pipeline; the attack bound caps the coalition's excess over the
        # strict per-group minority while evictions are actually landing.
        row = run_scenario(7, "broadcast/rejoin_eviction")
        assert row["violations"] == 0
        assert row["attack_bound_met"]
        assert row["evictions_observed"] > 0
        assert row["counters"]["faults.rejoin_joins"] > 0
        assert row["delivery_bound_met"]

    def test_slow_vgroup_perturbation_costs_latency_not_safety(self):
        # The cost perturbation stretches one vgroup's link latencies; the
        # row measures the penalty (so the matrix can track it) and safety
        # invariants must hold regardless.
        row = run_scenario(7, "churn/slow_vgroup")
        assert row["violations"] == 0
        assert row["slowdown_penalty_mean"] > 0
        assert row["slowdown_penalty_max"] >= row["slowdown_penalty_mean"]
        assert row["delivery_bound_met"]


# ------------------------------------------------------------- storm rows


class TestStormRows:
    """A churn storm and a flash crowd on fixed parameters: the matrix holds
    both rows to full delivery, so every seed of the six must reach it."""

    @pytest.mark.parametrize("seed", [7, 11, 1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["churn/storm_static", "flash/join_storm_static"])
    def test_storm_rows_deliver_every_broadcast_everywhere(self, name, seed):
        assert SCENARIOS[name].delivery_bound == 1.0
        row = run_scenario(seed, name)
        assert row["violations"] == 0
        assert row["mean_delivery_fraction"] == 1.0
        assert row["delivery_bound_met"]
        if name == "churn/storm_static":
            assert row["completion_ratio"] == 1.0
