"""Golden-trace-style coverage of partition-heal reconciliation.

A 40-node system is split into two interleaved, internally-connected sides
(every vgroup straddles the cut), broadcasts originate on both sides while
the split holds, and the split heals mid-run with anti-entropy enabled.
The tests assert, for BOTH engines (Sync/Dolev-Strong and Async/PBFT):

* the whole reconcile schedule replays byte-identically — two runs produce
  the same ``(time, tag)`` event trace and the same counters;
* every broadcast reconciles to full delivery after the heal;
* no agreement invariant breaks (``agreement_violations() == 0`` at the
  harness level, and the invariant monitor stays clean at the cluster
  level; PBFT decided logs are additionally prefix-consistent per vgroup).
"""

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.faults import FaultPlan, InvariantMonitor, Partition, apply_plan
from repro.faults.invariants import check_agreement_logs, cluster_smr_logs
from repro.group.antientropy import AntiEntropyConfig
from repro.smr.dolev_strong import SyncSmrReplica
from repro.smr.harness import ReplicaGroupHarness
from repro.smr.pbft import PbftReplica

NODES = 40
SPLIT_AT = 0.6
HEAL_AT = 6.0
HORIZON = 45.0


def run_reconcile(smr_kind: SmrKind, seed: int = 77, **overrides):
    """One seeded 40-node split-and-reconcile run; returns its artefacts."""
    params = AtumParameters(
        hc=3, rwl=5, gmax=8, gmin=4, round_duration=0.5, smr_kind=smr_kind, **overrides
    )
    cluster = AtumCluster(params, seed=seed, antientropy=AntiEntropyConfig())
    monitor = InvariantMonitor()
    cluster.attach_monitor(monitor)
    addresses = [f"n{i}" for i in range(NODES)]
    cluster.build_static(addresses)
    ordered = sorted(addresses)
    side_a, side_b = tuple(ordered[0::2]), tuple(ordered[1::2])
    plan = FaultPlan(
        partitions=(Partition(sides=(side_a, side_b), start=SPLIT_AT, heal_at=HEAL_AT),)
    )
    apply_plan(cluster, plan, monitor=monitor)
    ids = {}
    for index, (when, origin) in enumerate(
        [(1.0, side_a[0]), (1.5, side_b[0]), (2.0, side_a[1]), (8.0, side_b[1])]
    ):
        cluster.sim.schedule(
            when,
            lambda origin=origin, index=index: ids.setdefault(
                index, cluster.broadcast(origin, {"reconcile": index})
            ),
            tag="reconcile.bcast",
        )
    trace = []
    cluster.sim.run(until=HORIZON, trace=trace)
    return cluster, monitor, ids, trace


class TestReconcileGolden:
    @pytest.mark.parametrize("smr_kind", [SmrKind.SYNC, SmrKind.ASYNC])
    def test_reconcile_schedule_replays_byte_identically(self, smr_kind):
        first_cluster, _, _, first_trace = run_reconcile(smr_kind)
        second_cluster, _, _, second_trace = run_reconcile(smr_kind)
        assert first_trace == second_trace
        assert dict(first_cluster.sim.metrics.counters) == dict(
            second_cluster.sim.metrics.counters
        )

    @pytest.mark.parametrize("smr_kind", [SmrKind.SYNC, SmrKind.ASYNC])
    def test_all_broadcasts_reconcile_to_full_delivery(self, smr_kind):
        cluster, monitor, ids, _ = run_reconcile(smr_kind)
        assert len(ids) == 4
        for bcast_id in ids.values():
            assert cluster.delivery_fraction(bcast_id) == 1.0, bcast_id
        # Repair actually happened (this was divergence, not luck).
        assert cluster.sim.metrics.counter("ae.shares_resent") > 0
        monitor.finalize()
        monitor.assert_clean()

    def test_pbft_logs_prefix_consistent_across_heal(self):
        cluster, monitor, _, _ = run_reconcile(SmrKind.ASYNC)
        logs = cluster_smr_logs(cluster)
        assert logs
        for group_id, group_logs in logs.items():
            assert check_agreement_logs(group_logs) == [], group_id
        monitor.check_smr_prefix_consistency(cluster)
        monitor.finalize()
        monitor.assert_clean()


class TestCheckpointedReconcileGolden:
    """The 40-node split with PBFT checkpoints every 2 decided operations.

    The same fault schedule as :class:`TestReconcileGolden`, but the bar
    rises from prefix consistency to per-vgroup log *equality*: checkpoint
    announces and state transfer must close every replica's gap, and the
    whole run — recovery machinery included — must replay byte-identically.
    """

    def test_checkpointed_run_replays_byte_identically(self):
        first_cluster, _, _, first_trace = run_reconcile(
            SmrKind.ASYNC, checkpoint_interval=2
        )
        second_cluster, _, _, second_trace = run_reconcile(
            SmrKind.ASYNC, checkpoint_interval=2
        )
        assert first_trace == second_trace
        assert dict(first_cluster.sim.metrics.counters) == dict(
            second_cluster.sim.metrics.counters
        )

    def test_checkpointed_run_reaches_log_equality_and_full_delivery(self):
        cluster, monitor, ids, _ = run_reconcile(SmrKind.ASYNC, checkpoint_interval=2)
        assert len(ids) == 4
        for bcast_id in ids.values():
            assert cluster.delivery_fraction(bcast_id) == 1.0, bcast_id
        logs = cluster_smr_logs(cluster)
        assert logs
        for group_id, group_logs in logs.items():
            assert check_agreement_logs(group_logs, require_equality=True) == [], group_id
        monitor.check_smr_prefix_consistency(cluster, require_equality=True)
        monitor.finalize()
        monitor.assert_clean()
        # Every vgroup's members agree on a stable checkpoint seq too.
        checkpoints = {}
        for address, node in cluster.nodes.items():
            if node.is_correct and node.is_member:
                seq = node.replica.checkpoints.stable_seq
                checkpoints.setdefault(node.group_id(), {})[address] = seq
        assert checkpoints
        for group_id, per_member in checkpoints.items():
            assert len(set(per_member.values())) == 1, (group_id, per_member)


class TestHarnessAgreementUnderSplit:
    """``agreement_violations() == 0`` for both engines around a split."""

    def test_sync_logs_stay_prefix_consistent_when_one_side_proposes(self):
        harness = ReplicaGroupHarness(group_size=6, replica_class=SyncSmrReplica, seed=5)
        majority = harness.addresses[:4]
        minority = harness.addresses[4:]
        harness.propose("replica-0", "noop", {"pre": 1}, op_id="pre")
        harness.run(until=5.0)
        split_id = harness.network.split([majority, minority])
        harness.propose("replica-0", "noop", {"mid": 1}, op_id="mid")
        harness.run(until=10.0)
        harness.network.merge(split_id)
        harness.run(until=15.0)
        # The cut minority lags (it can never recover missed instances on
        # its own) but must not diverge.
        assert harness.agreement_violations() == []
        assert harness.all_correct_decided("pre")

    def test_pbft_view_change_carries_decisions_across_heal(self):
        harness = ReplicaGroupHarness(group_size=4, replica_class=PbftReplica, seed=7)
        quorum_side = harness.addresses[:3]
        cut_side = harness.addresses[3:]
        harness.propose("replica-0", "noop", {"pre": 1}, op_id="pre")
        harness.run(until=5.0)
        split_id = harness.network.split([quorum_side, cut_side])
        # Decided by the quorum side while replica-3 is cut off...
        harness.propose("replica-0", "noop", {"mid": 1}, op_id="mid")
        harness.run(until=10.0)
        # ...and pending on the cut side, forcing a view change after heal.
        harness.propose("replica-3", "noop", {"from-cut": 1}, op_id="from-cut")
        harness.run(until=14.0)
        harness.network.merge(split_id)
        harness.run(until=40.0)
        assert harness.agreement_violations() == []
        # The strengthened view change re-proposes prepared operations, so
        # the cut replica catches up on everything, in order.
        for op_id in ("pre", "mid", "from-cut"):
            assert harness.all_correct_decided(op_id), op_id

    def test_pbft_repropose_bypasses_executed_dedup_without_redelivery(self):
        from repro.smr.base import Operation

        harness = ReplicaGroupHarness(group_size=3, replica_class=PbftReplica, seed=9)
        harness.propose("replica-0", "noop", {"v": 1}, op_id="x")
        harness.run(until=5.0)
        assert harness.all_correct_decided("x")
        decided_before = [len(actor.decided) for actor in harness.correct_actors()]
        primary = harness.actors["replica-0"].replica
        seq_before = primary.next_seq
        # A non-primary holder re-proposes the already-executed operation
        # (the anti-entropy intra-group repair path): the request must not
        # be dropped on the executed-op dedup...
        harness.actors["replica-2"].replica.repropose(
            Operation(kind="noop", body={"v": 1}, proposer="replica-2", op_id="x")
        )
        harness.run(until=12.0)
        assert primary.next_seq > seq_before  # a fresh slot was agreed on
        # ...yet nobody re-delivers, and no view change spins on the
        # re-proposal's pending entry.
        assert [len(actor.decided) for actor in harness.correct_actors()] == decided_before
        assert harness.agreement_violations() == []
        assert all(
            not actor.replica._pending_requests for actor in harness.correct_actors()
        )
