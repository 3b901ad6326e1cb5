"""Integration coverage of epoch-crossing durable recovery (ISSUE 7).

A node is cut off alone while its vgroup keeps deciding operations, then the
vgroup reconfigures TWICE (two co-members leave) with no further decisions —
so by the heal, the only certified checkpoint is an *old-epoch* certificate
that must be re-anchored into the current epoch by a chain of quorum-signed
epoch-transition records.  The laggard verifies the chain, installs the
certified state, and reaches log equality with its co-members; because the
applications are deterministic functions of the delivered prefix, AShare's
metadata index converges too, verified by snapshot digests.
"""

import pytest

from repro.apps.ashare import AShareCluster
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.faults.invariants import check_agreement_logs, cluster_smr_logs
from repro.group.antientropy import AntiEntropyConfig

MB = 1024 * 1024


def build_cluster(seed=11, nodes=40):
    params = AtumParameters(
        hc=3,
        rwl=5,
        gmax=8,
        gmin=4,
        round_duration=0.5,
        smr_kind=SmrKind.ASYNC,
        checkpoint_interval=2,
        # Shuffling re-homes members into other groups on every leave (the
        # paper's anti-targeting defense) — disabled here so the laggard's
        # vgroup keeps a stable core across both reconfigurations and the
        # certificate chain under test actually spans them.
        shuffle_enabled=False,
    )
    cluster = AtumCluster(params, seed=seed, antientropy=AntiEntropyConfig())
    addresses = [f"n{i}" for i in range(nodes)]
    cluster.build_static(addresses)
    return cluster, addresses


def pick_reconfiguring_group(cluster):
    """The largest vgroup: (laggard, two leavers, an in-group put owner).

    The owner must live INSIDE the group: broadcasts are SMR-decided only
    in the origin's vgroup, so an outside owner would leave this group's
    log empty and there would be no checkpoint to certify.
    """
    engine = cluster.engine
    group_id = max(
        sorted(engine.groups), key=lambda gid: len(engine.groups[gid].members)
    )
    members = sorted(engine.groups[group_id].members)
    assert len(members) >= 6, members
    laggard, leavers, owner = members[0], members[1:3], members[3]
    return group_id, laggard, leavers, owner


class TestEpochCrossingIntegration:
    def run_epoch_crossing(self, seed=11):
        cluster, addresses = build_cluster(seed=seed)
        group_id, laggard, leavers, owner = pick_reconfiguring_group(cluster)
        share = AShareCluster(cluster, replication_feedback=False)
        sim = cluster.sim
        # Puts land while everyone is connected, then while the laggard is
        # cut — the cut ones are what state transfer must re-deliver.
        for index, when in enumerate((1.0, 2.0, 3.0, 6.0, 7.0)):
            sim.schedule(
                when,
                lambda i=index: share.put(owner, f"file-{i}", size_bytes=4 * MB, num_chunks=4),
                tag="epoch-crossing.put",
            )
        others = [address for address in addresses if address != laggard]
        split_state = {}
        sim.schedule(
            5.0,
            lambda: split_state.setdefault(
                "id", cluster.network.split([others, [laggard]])
            ),
            tag="epoch-crossing.split",
        )
        # Two reconfigurations of the laggard's vgroup while it is cut and
        # nothing new is decided afterwards: the only certified checkpoint
        # crosses two epoch boundaries.
        for when, leaver in zip((10.0, 14.0), leavers):
            sim.schedule(
                when, lambda a=leaver: cluster.engine.leave(a), tag="epoch-crossing.leave"
            )
        sim.schedule(
            18.0,
            lambda: cluster.network.merge(split_state["id"]),
            tag="epoch-crossing.heal",
        )
        cluster.sim.run(until=90.0)
        return cluster, share, group_id, laggard, owner

    def test_isolated_replica_recovers_across_two_reconfigurations(self):
        cluster, share, group_id, laggard, owner = self.run_epoch_crossing()
        metrics = cluster.sim.metrics
        # The surviving members really formed quorum-signed transition
        # records (two epoch boundaries were crossed)...
        assert metrics.counter("smr.checkpoint.epoch_transitions") > 0
        # ...and the laggard adopted a cross-epoch anchor through the chain.
        assert metrics.counter("smr.checkpoint.anchors_adopted") > 0
        # Log *equality* for the reconfigured group — the laggard's gap
        # closed through certificate-verified transfer, not luck.
        logs = cluster_smr_logs(cluster)
        assert group_id in logs
        for gid, group_logs in logs.items():
            assert check_agreement_logs(group_logs, require_equality=True) == [], gid
        laggard_log = [
            operation.op_id
            for operation in cluster.nodes[laggard].replica.decided_log
        ]
        assert laggard_log in logs[group_id]
        lengths = {len(log) for log in logs[group_id]}
        assert lengths == {5}, lengths

    def test_application_state_reaches_digest_equality(self):
        cluster, share, group_id, laggard, owner = self.run_epoch_crossing()
        # Every put is fully delivered, laggard included.
        for index in range(5):
            record = share.index_of(laggard).get(owner, f"file-{index}")
            assert record is not None, index
        # App state is a deterministic function of the delivered prefix:
        # the laggard's certified recovery makes its snapshot digest equal
        # a co-member's (neither stores replicas, so state is pure index).
        reference = next(
            address
            for address in sorted(cluster.nodes)
            if address not in (laggard, owner) and not share.stored[address]
        )
        assert share.snapshot_digest(laggard) == share.snapshot_digest(reference)

    def test_run_replays_byte_identically(self):
        first, _, _, _, _ = self.run_epoch_crossing()
        second, _, _, _, _ = self.run_epoch_crossing()
        assert dict(first.sim.metrics.counters) == dict(second.sim.metrics.counters)
