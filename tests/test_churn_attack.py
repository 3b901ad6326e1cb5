"""Tests for the adaptive join-leave (churn) attack and AE-under-churn.

The ROADMAP's two churn-adversity gaps: (1) an adaptive coalition that
strategically leaves and re-joins trying to concentrate in one vgroup —
random-walk placement plus shuffling must keep it at or below every
vgroup's eviction/agreement threshold; (2) the anti-entropy repair layer
racing continuous membership churn — zero invariant violations and a
bounded repair store.
"""

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters
from repro.faults import FaultPlan, InvariantMonitor, NodeFault, apply_plan
from repro.faults.scenarios import SCENARIOS, run_scenario
from repro.group import antientropy
from repro.group.antientropy import AntiEntropyConfig


class TestRejoinBehaviour:
    def test_node_fault_accepts_rejoin_attack(self):
        fault = NodeFault(address="n0", behaviour="rejoin_attack", attack_period=2.0)
        assert fault.behaviour == "rejoin_attack"

    def test_attackers_strategically_leave_and_rejoin(self):
        params = AtumParameters(hc=3, rwl=5, gmax=8, gmin=4, round_duration=0.5)
        cluster = AtumCluster(params, seed=5)
        monitor = InvariantMonitor()
        cluster.attach_monitor(monitor)
        cluster.build_static([f"n{i}" for i in range(24)])
        # Two coalition members in different vgroups: at least one is
        # misplaced relative to the rally point, so moves must happen.
        groups = sorted(cluster.engine.groups.values(), key=lambda v: v.group_id)
        attackers = [sorted(groups[0].members)[0], sorted(groups[1].members)[0]]
        plan = FaultPlan(
            nodes=tuple(
                NodeFault(address=a, behaviour="rejoin_attack", start=0.0,
                          stop=40.0, attack_period=2.0)
                for a in attackers
            )
        )
        apply_plan(cluster, plan, monitor=monitor)
        cluster.run(until=60.0)
        cluster.run_until_membership_quiescent(max_time=60.0)
        metrics = cluster.sim.metrics
        assert metrics.counter("faults.rejoin_leaves") > 0
        assert metrics.counter("faults.rejoin_joins") > 0
        # Concentration was sampled throughout the attack window.
        assert metrics.histogram("faults.rejoin_group_fraction").count > 0
        assert metrics.histogram("faults.rejoin_threshold_excess").count > 0
        monitor.finalize()
        monitor.assert_clean()

    def test_attacker_is_silent_on_the_protocol(self):
        params = AtumParameters(hc=3, rwl=5, gmax=8, gmin=4, round_duration=0.5)
        cluster = AtumCluster(params, seed=9)
        cluster.build_static([f"n{i}" for i in range(16)])
        victim = sorted(cluster.nodes)[0]
        cluster.make_byzantine([victim], mode="rejoin_attack")
        bcast = cluster.broadcast(sorted(cluster.nodes)[1], "x")
        cluster.run(until=20.0)
        # The attacker neither delivers nor counts as correct.
        assert not cluster.nodes[victim].has_delivered(bcast)
        assert not cluster.nodes[victim].is_correct
        assert cluster.delivery_fraction(bcast) == 1.0


class TestRejoinAttackScenario:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_attack_never_outgrows_the_minority_threshold(self, seed):
        row = run_scenario(seed, "broadcast/rejoin_attack")
        assert row["violations"] == 0
        # The attack actually ran: strategic moves happened and placement
        # was sampled.
        assert row["counters"]["faults.rejoin_leaves"] > 0
        assert row["counters"]["faults.rejoin_joins"] > 0
        assert row["rejoin_max_group_fraction"] is not None
        # The paper's bound: the coalition never outgrew any vgroup's
        # eviction/agreement threshold (excess over (g-1)//2 stays <= 0),
        # which also keeps it below every strict majority.
        assert row["rejoin_max_threshold_excess"] <= 0
        assert row["attack_bound_met"] is True
        assert row["delivery_bound_met"]

    def test_scenario_runs_in_the_papers_group_size_regime(self):
        scenario = SCENARIOS["broadcast/rejoin_attack"]
        assert scenario.gmin >= 6
        assert scenario.attack_threshold == 0.0


class TestAntiEntropyUnderChurn:
    @pytest.mark.parametrize("seed", [7, 11])
    def test_repair_races_churn_without_violations(self, seed):
        row = run_scenario(seed, "churn/antientropy")
        assert row["violations"] == 0
        # Churn completed and broadcasts reconciled above the bound even
        # though vgroups split/merged/shuffled under the repair layer.
        assert row["completion_ratio"] >= 0.9
        assert row["mean_delivery_fraction"] >= 0.9
        assert row["delivery_bound_met"]
        # The settled-broadcast GC actually ran: the repair store does not
        # grow without bound under sustained traffic (the ROADMAP item).
        assert row["counters"]["ae.store_gc_dropped"] > 0

    def test_settled_store_gc_bounds_the_repair_store(self, monkeypatch):
        monkeypatch.setattr(antientropy, "GC_SETTLED_AGE", 5.0)
        params = AtumParameters(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)
        cluster = AtumCluster(params, seed=17, antientropy=AntiEntropyConfig())
        cluster.build_static([f"n{i}" for i in range(12)])
        for index in range(6):
            cluster.sim.schedule(
                0.5 * index, lambda i=index: cluster.broadcast("n0", f"b{i}")
            )
        cluster.run(until=30.0)
        # Every payload is long settled: the stores drained completely and
        # the repair backoff state went with them.
        for node in cluster.nodes.values():
            assert node.antientropy.store == {}
            assert node.antientropy._resend_backoff._state == {}
            assert node.antientropy._repropose_backoff._state == {}
        assert cluster.sim.metrics.counter("ae.store_gc_dropped") > 0

    def test_a_payload_younger_than_the_gc_age_stays_in_every_store(self):
        params = AtumParameters(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)
        cluster = AtumCluster(params, seed=19, antientropy=AntiEntropyConfig())
        cluster.build_static([f"n{i}" for i in range(12)])
        bcast = cluster.broadcast("n0", "keep-me")
        cluster.run(until=30.0)
        assert antientropy.GC_SETTLED_AGE > 30.0
        holders = [
            node for node in cluster.nodes.values() if bcast in node.antientropy.store
        ]
        assert len(holders) == len(cluster.nodes)
        assert cluster.sim.metrics.counter("ae.store_gc_dropped") == 0
