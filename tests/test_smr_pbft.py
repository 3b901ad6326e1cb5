"""Tests for the asynchronous (PBFT-style) SMR engine."""

import pytest

from repro.core.config import AtumParameters
from repro.net.latency import LogNormalLatency
from repro.smr import PbftReplica, ReplicaGroupHarness
from repro.smr.base import async_fault_threshold


class TestFaultThreshold:
    @pytest.mark.parametrize(
        "size,expected", [(1, 0), (3, 0), (4, 1), (7, 2), (10, 3), (13, 4)]
    )
    def test_async_threshold(self, size, expected):
        assert async_fault_threshold(size) == expected


def make_harness(group_size, silent=(), seed=0, timeout=2.0):
    return ReplicaGroupHarness(
        group_size=group_size,
        replica_class=PbftReplica,
        params=AtumParameters(request_timeout=timeout),
        seed=seed,
        latency_model=LogNormalLatency(median=0.02, sigma=0.3),
        silent_byzantine=silent,
    )


class TestPbftAgreement:
    def test_single_replica_group_decides(self):
        harness = make_harness(1)
        op = harness.propose("replica-0", "noop", 1)
        harness.run(until=5.0)
        assert harness.all_correct_decided(op.op_id)

    def test_four_replicas_decide_primary_proposal(self):
        harness = make_harness(4)
        op = harness.propose("replica-0", "broadcast", "hello")
        harness.run(until=10.0)
        assert harness.all_correct_decided(op.op_id)

    def test_non_primary_proposal_is_forwarded(self):
        harness = make_harness(4)
        op = harness.propose("replica-2", "broadcast", "from-backup")
        harness.run(until=10.0)
        assert harness.all_correct_decided(op.op_id)

    def test_latency_is_sub_second_on_lan_like_network(self):
        harness = make_harness(7)
        op = harness.propose("replica-0", "broadcast", "payload")
        start = harness.sim.now
        harness.run(until=10.0)
        assert harness.all_correct_decided(op.op_id)
        assert harness.decision_latency(op.op_id, proposed_at=start) < 1.0

    def test_many_operations_same_log_order(self):
        harness = make_harness(4)
        for index in range(5):
            harness.propose("replica-1", "op", index, op_id=f"op-{index}")
        harness.run(until=30.0)
        logs = harness.decided_logs()
        assert all(log == logs[0] for log in logs)
        assert set(logs[0]) == {f"op-{i}" for i in range(5)}

    def test_tolerates_silent_byzantine_below_threshold(self):
        # 7 replicas tolerate f = 2 silent Byzantine nodes.
        harness = make_harness(7, silent=("replica-5", "replica-6"))
        op = harness.propose("replica-0", "broadcast", "x")
        harness.run(until=20.0)
        assert harness.all_correct_decided(op.op_id)

    def test_view_change_when_primary_is_silent(self):
        # The primary of view 0 is the smallest address (replica-0).  Making it
        # silent forces the backups to elect a new primary via view change.
        harness = make_harness(4, silent=("replica-0",), timeout=1.0)
        op = harness.propose("replica-1", "broadcast", "needs-view-change")
        harness.run(until=60.0)
        assert harness.all_correct_decided(op.op_id)
        assert harness.sim.metrics.counter("smr.pbft.view_changes") > 0

    def test_reconfigure_installs_new_epoch(self):
        harness = make_harness(4)
        op = harness.propose("replica-0", "broadcast", "before")
        harness.run(until=10.0)
        assert harness.all_correct_decided(op.op_id)
        for actor in harness.actors.values():
            assert actor.replica.epoch == 0
            actor.replica.reconfigure(harness.addresses, epoch=actor.replica.epoch + 1)
            assert actor.replica.epoch == 1

    def test_duplicate_proposal_executes_once(self):
        harness = make_harness(4)
        harness.propose("replica-0", "op", "x", op_id="dup")
        harness.run(until=10.0)
        harness.propose("replica-0", "op", "x", op_id="dup")
        harness.run(until=20.0)
        for actor in harness.correct_actors():
            ids = [op.op_id for op in actor.decided]
            assert ids.count("dup") == 1


def relayed_votes(harness):
    return harness.sim.metrics.counter("smr.pbft.rejected_relayed_vote")


class TestVotesCountUnderTheAuthenticatedSender:
    """A vote is counted under the transport-authenticated sender, never the
    ``replica`` the frame claims: one Byzantine replica must not be able to
    fill a quorum with frames "from" its co-replicas."""

    def test_a_primary_cannot_make_one_replica_decide_alone(self):
        from repro.crypto.digest import digest_object
        from repro.smr.base import Operation
        from repro.smr.pbft import PbftCommit, PbftPrePrepare, PbftPrepare

        harness = make_harness(4)
        primary, victim = "replica-0", "replica-1"
        assert harness.actors[victim].replica.primary == primary
        operation = Operation(kind="noop", body="x", proposer=primary, op_id="forged-1")
        slot = dict(epoch=0, view=0, seq=0, digest=digest_object(operation))
        frames = [PbftPrePrepare(operation=operation, **slot)]
        frames += [PbftPrepare(replica=name, **slot) for name in ("replica-2", "replica-3")]
        frames += [
            PbftCommit(replica=name, **slot)
            for name in ("replica-0", "replica-2", "replica-3")
        ]
        for frame in frames:  # all from the primary, to one replica only
            harness.network.send_one(primary, victim, frame, 512)
        harness.run(until=1.0)  # before any (legitimate) view-change timeout
        # At 3d42a51 the victim decided: [[], ['forged-1'], [], []].
        assert harness.decided_logs() == [[], [], [], []]
        assert all(actor.replica.view == 0 for actor in harness.actors.values())
        forged = sum(getattr(frame, "replica", primary) != primary for frame in frames)
        assert forged == 4
        assert relayed_votes(harness) == forged

    def test_one_replica_cannot_vote_a_view_change_through_alone(self):
        from repro.smr.pbft import PbftViewChange

        harness = make_harness(4)
        byzantine, next_primary = "replica-3", "replica-1"
        for name in ("replica-0", "replica-2", "replica-1"):
            vote = PbftViewChange(epoch=0, new_view=1, replica=name, prepared=())
            harness.network.send_one(byzantine, next_primary, vote, 512)
        harness.run(until=1.0)
        assert all(actor.replica.view == 0 for actor in harness.actors.values())
        assert harness.sim.metrics.counter("smr.pbft.new_views") == 0
        assert relayed_votes(harness) == 3

    def test_honest_runs_never_count_a_relayed_vote(self):
        harness = make_harness(4, silent=("replica-0",), timeout=1.0)
        op = harness.propose("replica-1", "broadcast", "needs-view-change")
        harness.run(until=60.0)
        assert harness.all_correct_decided(op.op_id)
        assert relayed_votes(harness) == 0


class TestOnlyMembersVote:
    """The envelope's group id says which group a frame is *for*; a vote also
    has to come from a member of the replica's current configuration.  With
    f = 1, a quorum of 2f+1 = 3 votes of which f+1 = 2 come from addresses
    outside the member list must move nothing."""

    OUTSIDERS = ("outsider-0", "outsider-1")

    def nonmember_votes(self, harness):
        return harness.sim.metrics.counter("smr.pbft.rejected_nonmember_vote")

    def test_outsiders_cannot_fill_a_prepare_or_commit_quorum(self):
        from repro.crypto.digest import digest_object
        from repro.smr.base import Operation
        from repro.smr.pbft import PbftCommit, PbftPrePrepare, PbftPrepare

        harness = make_harness(4)
        primary, victim = "replica-0", "replica-1"
        operation = Operation(kind="noop", body="x", proposer=primary, op_id="forged-1")
        slot = dict(epoch=0, view=0, seq=0, digest=digest_object(operation))
        # The victim's own prepare and commit are the one member vote of each
        # quorum; every other vote is an outsider's, under its own name.
        harness.network.send_one(primary, victim, PbftPrePrepare(operation=operation, **slot), 512)
        for frame_class in (PbftPrepare, PbftCommit):
            for outsider in self.OUTSIDERS:
                harness.network.send_one(outsider, victim, frame_class(replica=outsider, **slot), 512)
        harness.run(until=1.0)  # before any (legitimate) view-change timeout
        # At 97a8d19 the victim decided: [[], ['forged-1'], [], []].
        assert harness.decided_logs() == [[], [], [], []]
        state = harness.actors[victim].replica._slots[(0, 0)]
        assert not state.prepared and not state.committed
        assert self.nonmember_votes(harness) == 4
        assert relayed_votes(harness) == 0

    def test_outsiders_cannot_vote_a_view_change_through(self):
        from repro.smr.pbft import PbftViewChange

        harness = make_harness(4)
        next_primary = "replica-1"
        for outsider in self.OUTSIDERS:
            vote = PbftViewChange(epoch=0, new_view=1, replica=outsider, prepared=())
            harness.network.send_one(outsider, next_primary, vote, 512)
        harness.run(until=1.0)
        # At 97a8d19 replica-1 joined the outsiders' view change and, with its
        # own vote as the third, installed view 1.
        assert all(actor.replica.view == 0 for actor in harness.actors.values())
        assert harness.sim.metrics.counter("smr.pbft.view_changes") == 0
        assert harness.sim.metrics.counter("smr.pbft.new_views") == 0
        assert self.nonmember_votes(harness) == 2

    def test_honest_runs_never_count_a_nonmember_vote(self):
        harness = make_harness(4, silent=("replica-0",), timeout=1.0)
        op = harness.propose("replica-1", "broadcast", "needs-view-change")
        harness.run(until=60.0)
        assert harness.all_correct_decided(op.op_id)
        assert self.nonmember_votes(harness) == 0


class TestUnknownFrames:
    def unknown(self, harness):
        return harness.sim.metrics.counter("smr.pbft.unknown_frame")

    def test_an_unknown_payload_type_is_counted_not_silent(self):
        harness = make_harness(4)
        replica = harness.actors["replica-1"].replica
        replica.on_message(("not", "a", "frame"), "replica-0")
        replica.on_message(None, "replica-0")
        assert self.unknown(harness) == 2
        op = harness.propose("replica-0", "broadcast", "still-works")
        harness.run(until=10.0)
        assert harness.all_correct_decided(op.op_id)
        assert self.unknown(harness) == 2

    def test_checkpoint_frames_are_always_routed(self):
        from repro.smr.checkpoint import CheckpointAnnounce

        harness = make_harness(4)
        harness.actors["replica-1"].replica.on_message(
            CheckpointAnnounce(epoch=0, certificate=None), "replica-0"
        )
        assert self.unknown(harness) == 0

    def test_a_stopped_replica_ignores_everything(self):
        harness = make_harness(4)
        replica = harness.actors["replica-1"].replica
        replica.stop()
        replica.on_message(object(), "replica-0")
        assert self.unknown(harness) == 0
