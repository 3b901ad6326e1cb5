"""The decided tail past the last checkpoint survives reconfigurations.

A replica cut off while its group decides operations and then reconfigures
catches up to the certified prefix by state transfer, which stops at the
certificate.  The operations decided after the last checkpoint reach it only
through a view change that carries them, and reconfiguring used to clear the
slots that would have carried them (``PbftReplica._carry_decided_tail``).
"""

import pytest

from repro.core.config import AtumParameters
from repro.faults.invariants import check_agreement_logs, cluster_smr_logs
from repro.net.latency import LogNormalLatency
from repro.smr import PbftReplica, ReplicaGroupHarness
from repro.smr.pbft import PbftCommit, PbftPrepare
import test_epoch_crossing


def make_harness(seed):
    return ReplicaGroupHarness(
        group_size=4,
        replica_class=PbftReplica,
        params=AtumParameters(request_timeout=2.0, checkpoint_interval=2),
        seed=seed,
        latency_model=LogNormalLatency(median=0.02, sigma=0.3),
    )


def decide(harness, count, prefix, until):
    for index in range(count):
        harness.propose("replica-0", "noop", index, op_id=f"{prefix}-{index}")
    harness.run(until=harness.sim.now + until)


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_an_isolated_replica_gets_the_uncertified_tail_after_two_epochs(seed):
    harness = make_harness(seed)
    decide(harness, 2, "pre", 5.0)
    split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
    decide(harness, 3, "mid", 8.0)
    # The last certificate covers 4 operations; the fifth is the tail.
    assert [len(log) for log in harness.decided_logs()] == [5, 5, 5, 2]
    for _ in range(2):
        for actor in harness.actors.values():
            actor.replica.reconfigure(harness.addresses, epoch=actor.replica.epoch + 1)
        harness.run(until=harness.sim.now + 4.0)
    harness.network.merge(split)
    harness.run(until=harness.sim.now + 40.0)
    assert [len(log) for log in harness.decided_logs()] == [5, 5, 5, 5]
    assert harness.agreement_violations(require_equality=True) == []


def test_a_replica_that_voted_for_a_view_change_stops_voting_in_its_view():
    harness = make_harness(4)
    decide(harness, 1, "warm", 5.0)
    replica = harness.actors["replica-1"].replica
    replica._start_view_change()
    view = replica.view
    slot = replica._slot(view, 7)
    for frame in (PbftPrepare, PbftCommit):
        replica.on_message(
            frame(epoch=replica.epoch, view=view, seq=7, digest="d", replica="replica-2"),
            "replica-2",
        )
    assert slot.prepares == set() and slot.commits == set()


@pytest.mark.parametrize("seed", range(1, 17))
def test_epoch_crossing_reaches_log_equality(seed):
    crossing = test_epoch_crossing.TestEpochCrossingIntegration()
    cluster, _, group_id, laggard, _ = crossing.run_epoch_crossing(seed)
    logs = cluster_smr_logs(cluster)
    for gid, group_logs in logs.items():
        assert check_agreement_logs(group_logs, require_equality=True) == [], gid
    assert {len(log) for log in logs[group_id]} == {5}
    assert len(cluster.nodes[laggard].replica.decided_log) == 5
