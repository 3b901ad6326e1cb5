"""Tests for PBFT checkpointing and state transfer (repro.smr.checkpoint)."""

from repro.net.latency import LogNormalLatency
from repro.smr import PbftReplica, ReplicaGroupHarness, SmrConfig
from repro.smr.checkpoint import (
    CheckpointAnnounce,
    state_digest_of,
)
from repro.faults.invariants import check_agreement_logs


def make_harness(group_size, interval=2, seed=0, timeout=2.0, announce=2.0):
    return ReplicaGroupHarness(
        group_size=group_size,
        replica_class=PbftReplica,
        config=SmrConfig(
            request_timeout=timeout,
            checkpoint_interval=interval,
            checkpoint_announce_period=announce,
        ),
        seed=seed,
        latency_model=LogNormalLatency(median=0.02, sigma=0.3),
    )


def decide(harness, count, prefix="op", start_until=5.0):
    for index in range(count):
        harness.propose("replica-0", "noop", index, op_id=f"{prefix}-{index}")
    harness.run(until=harness.sim.now + start_until)


class TestCheckpointFormation:
    def test_disabled_by_default(self):
        harness = ReplicaGroupHarness(group_size=4, replica_class=PbftReplica, seed=1)
        decide(harness, 4)
        for actor in harness.actors.values():
            assert actor.replica.checkpoints is None
            assert actor.replica.stable_checkpoint_seq() is None
        assert harness.sim.metrics.counter("smr.checkpoint.emitted") == 0

    def test_stable_checkpoint_forms_at_interval_boundaries(self):
        harness = make_harness(4, interval=2)
        decide(harness, 5)
        for actor in harness.actors.values():
            assert actor.replica.stable_checkpoint_seq() == 4  # 5 ops, interval 2
            stable = actor.replica.checkpoints.stable
            assert len(set(stable.signers)) >= 3  # 2f+1 of 4
            assert stable.state_digest == state_digest_of(
                actor.replica.decided_log[:4], 2
            )
            # The incremental chain cache equals the from-scratch fold.
            assert actor.replica.checkpoints._state_digest_at(4) == stable.state_digest
        assert harness.sim.metrics.counter("smr.checkpoint.emitted") > 0
        assert harness.sim.metrics.counter("smr.checkpoint.rejected") == 0

    def test_slots_below_stable_checkpoint_are_garbage_collected(self):
        harness = make_harness(4, interval=2)
        decide(harness, 6)
        assert harness.sim.metrics.counter("smr.checkpoint.slots_gc") > 0
        for actor in harness.actors.values():
            replica = actor.replica
            positions = replica.checkpoints._positions
            stable_seq = replica.checkpoints.stable_seq
            for slot in replica._slots.values():
                if slot.executed and slot.operation is not None:
                    assert positions.get(slot.operation.op_id, stable_seq) >= stable_seq

    def test_single_replica_group_checkpoints_alone(self):
        harness = make_harness(1, interval=2)
        decide(harness, 4)
        assert harness.actors["replica-0"].replica.stable_checkpoint_seq() == 4

    def test_certificates_survive_a_digest_memo_clear(self):
        # A stable certificate verifies against recomputed digests, exactly
        # like every other KeyRegistry signature.
        from repro.crypto.digest import clear_digest_memo

        harness = make_harness(4, interval=2)
        decide(harness, 2)
        replica = harness.actors["replica-0"].replica
        certificate = replica.checkpoints.stable
        assert replica.checkpoints.valid_certificate(certificate)
        clear_digest_memo()
        assert replica.checkpoints.valid_certificate(certificate)

    def test_reconfigure_reanchors_certificates_and_keeps_the_log(self):
        harness = make_harness(4, interval=2)
        decide(harness, 4)
        replica = harness.actors["replica-0"].replica
        assert replica.stable_checkpoint_seq() == 4
        replica.reconfigure(harness.addresses)
        # The epoch-scoped stable certificate resets, but it survives as
        # the cross-epoch anchor (re-anchored by a transition record), so
        # the group can still serve certified transfers while quiet.
        assert replica.checkpoints.stable is None
        assert replica.checkpoints.anchor is not None
        assert replica.stable_checkpoint_seq() == 4
        assert len(replica.decided_log) == 4  # the decided log persists


class TestEpochCrossingRecovery:
    """Certificates survive reconfigurations via epoch-transition records."""

    def test_isolated_replica_catches_up_across_two_reconfigurations(self):
        harness = make_harness(4, interval=2, seed=5)
        decide(harness, 4, prefix="pre")
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 2, prefix="mid", start_until=8.0)
        assert [len(log) for log in harness.decided_logs()] == [6, 6, 6, 4]
        # Two reconfigurations while replica-3 is cut off (membership
        # installs are engine-driven, so the isolated replica's epoch
        # advances too — it just misses all the vote traffic).
        for _ in range(2):
            for actor in harness.actors.values():
                actor.replica.reconfigure(harness.addresses)
            harness.run(until=harness.sim.now + 4.0)
        majority = harness.actors["replica-0"].replica
        assert majority.epoch == 2
        assert majority.checkpoints.stable is None  # quiet since the epoch change
        assert majority.checkpoints.anchor is not None
        assert majority.checkpoints.anchor.seq == 6
        assert [t.new_epoch for t in majority.checkpoints.transitions] == [1, 2]
        assert harness.sim.metrics.counter("smr.checkpoint.epoch_transitions") > 0
        harness.network.merge(split)
        # NO new operations in epoch 2: the only recovery path is the
        # announce carrying the anchored epoch-0 certificate plus its
        # transition chain, then a chain-verified state transfer.
        harness.run(until=harness.sim.now + 25.0)
        assert [len(log) for log in harness.decided_logs()] == [6, 6, 6, 6]
        assert not check_agreement_logs(harness.decided_logs(), require_equality=True)

    def test_transition_chain_survives_three_epochs_while_quiet(self):
        harness = make_harness(4, interval=2, seed=6)
        decide(harness, 4)
        for _ in range(3):
            for actor in harness.actors.values():
                actor.replica.reconfigure(harness.addresses)
            harness.run(until=harness.sim.now + 3.0)
        replica = harness.actors["replica-1"].replica
        certificate, chain = replica.checkpoints._serving_chain()
        assert certificate is not None and certificate.seq == 4
        assert [t.new_epoch for t in chain] == [1, 2, 3]
        assert replica.checkpoints._transition_chain_error(certificate, chain) is None


class TestStateTransferLiveness:
    """The tentpole scenario: log liveness restored with no pending requests."""

    def test_isolated_replica_catches_up_with_no_pending_requests(self):
        harness = make_harness(4, interval=2, seed=3)
        decide(harness, 2, prefix="pre")
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 4, prefix="mid", start_until=10.0)
        assert [len(log) for log in harness.decided_logs()] == [6, 6, 6, 2]
        harness.network.merge(split)
        # NO new requests after the heal: catch-up must come from the
        # periodic checkpoint announce -> state transfer -> realignment.
        harness.run(until=harness.sim.now + 25.0)
        assert [len(log) for log in harness.decided_logs()] == [6, 6, 6, 6]
        assert harness.agreement_violations(require_equality=True) == []
        metrics = harness.sim.metrics
        assert metrics.counter("smr.checkpoint.transfers_completed") >= 1
        assert metrics.counter("smr.checkpoint.ops_installed") >= 4
        assert metrics.counter("smr.checkpoint.rejected") == 0

    def test_uncertified_tail_recovered_through_announce_view_change(self):
        # One decided operation with interval 4: no checkpoint certificate
        # ever forms, so the cut replica can only catch up through the
        # announce's log-length tail signal (frozen deficit -> view change).
        harness = make_harness(4, interval=4, seed=5)
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 1, prefix="tail", start_until=8.0)
        assert [len(log) for log in harness.decided_logs()] == [1, 1, 1, 0]
        harness.network.merge(split)
        harness.run(until=harness.sim.now + 30.0)
        assert harness.agreement_violations(require_equality=True) == []
        assert [len(log) for log in harness.decided_logs()] == [1, 1, 1, 1]
        assert harness.sim.metrics.counter("smr.checkpoint.tail_view_changes") >= 1

    def test_two_replicas_stalled_at_the_same_length_still_recover(self):
        # Regression: a peer announce that is NOT ahead used to clear the
        # tail-deficit clock, so two replicas stalled at the same log
        # length suppressed each other's recovery with every announce
        # round and stayed frozen forever.
        harness = make_harness(5, interval=4, seed=19)
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 1, prefix="pair", start_until=8.0)
        assert [len(log) for log in harness.decided_logs()] == [1, 1, 1, 0, 0]
        harness.network.merge(split)
        harness.run(until=harness.sim.now + 30.0)
        assert [len(log) for log in harness.decided_logs()] == [1, 1, 1, 1, 1]
        assert harness.agreement_violations(require_equality=True) == []

    def test_active_groups_never_trigger_tail_view_changes(self):
        # Ordinary in-flight lag (our log still moving) must not be treated
        # as a stall: decide a stream of operations with no faults and
        # assert the tail heuristic stays quiet.
        harness = make_harness(4, interval=3, seed=7)
        for index in range(9):
            harness.propose("replica-1", "noop", index, op_id=f"s-{index}")
            harness.run(until=harness.sim.now + 1.0)
        harness.run(until=harness.sim.now + 10.0)
        assert harness.agreement_violations(require_equality=True) == []
        # Ordinary view changes (and their legitimate new-view transfers)
        # may occur under steady traffic; the *stall* heuristic must not.
        assert harness.sim.metrics.counter("smr.checkpoint.tail_view_changes") == 0

    def test_gap_hint_triggers_state_request(self):
        harness = make_harness(4, interval=2, seed=9, announce=1000.0)
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 4, prefix="gap", start_until=10.0)
        harness.network.merge(split)
        lagging = harness.actors["replica-3"].replica
        assert len(lagging.decided_log) == 0
        # With announces effectively disabled, an anti-entropy-style hint is
        # the only gap signal; the certificate arrives with the response.
        lagging.checkpoints.on_gap_hint("replica-0", 4)
        harness.run(until=harness.sim.now + 10.0)
        assert len(lagging.decided_log) >= 4
        assert harness.sim.metrics.counter("smr.checkpoint.gap_hints") == 1
        assert harness.agreement_violations() == []

    def test_lower_seq_install_does_not_cancel_a_pending_higher_transfer(self):
        # Regression: a hint-path response serving an OLD certificate used
        # to clear the pending higher-seq transfer target, unblocking
        # execution with the higher checkpoint's gap still open (and never
        # re-requesting it, since the stable seq already matched).
        from repro.smr.checkpoint import (
            CheckpointCertificate,
            StateTransferResponse,
            checkpoint_statement,
            state_digest_of,
        )

        harness = make_harness(4, interval=2, seed=17, announce=1000.0)
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 6, prefix="race", start_until=12.0)
        harness.network.merge(split)
        serving = harness.actors["replica-0"].replica
        lagging = harness.actors["replica-3"].replica
        high = serving.checkpoints.stable
        assert high.seq == 6 and len(lagging.decided_log) == 0
        # A genuine (signed, truthful) certificate for the older seq-2
        # checkpoint, as an earlier certifier would have served it.
        low_digest = state_digest_of(serving.decided_log[:2], 2)
        low_statement = checkpoint_statement(0, 2, low_digest)
        low = CheckpointCertificate(
            epoch=0,
            seq=2,
            state_digest=low_digest,
            signatures=tuple(
                harness.registry.sign(s, low_statement)
                for s in ("replica-0", "replica-1", "replica-2")
            ),
        )
        lagging.checkpoints._begin_transfer(high)
        assert lagging.checkpoints.transfer_blocking
        requests_before = harness.sim.metrics.counter("smr.checkpoint.state_requests")
        lagging.on_message(
            StateTransferResponse(
                epoch=0,
                certificate=low,
                base_count=0,
                operations=tuple(serving.decided_log[:2]),
            ),
            "replica-0",
        )
        # The old prefix installed, but the higher gap stays open: still
        # blocked, and the remaining gap was re-requested immediately.
        assert len(lagging.decided_log) == 2
        assert lagging.checkpoints.transfer_blocking
        assert (
            harness.sim.metrics.counter("smr.checkpoint.state_requests")
            > requests_before
        )
        lagging.on_message(
            StateTransferResponse(
                epoch=0,
                certificate=high,
                base_count=2,
                operations=tuple(serving.decided_log[2:6]),
            ),
            "replica-0",
        )
        assert len(lagging.decided_log) == 6
        assert not lagging.checkpoints.transfer_blocking
        assert harness.agreement_violations(require_equality=True) == []

    def test_view_change_votes_carry_the_stable_certificate(self):
        harness = make_harness(4, interval=2, seed=11)
        decide(harness, 4)
        replica = harness.actors["replica-1"].replica
        replica._start_view_change()
        votes = replica._view_change_votes[replica.view + 1]
        assert votes[replica.node_id].checkpoint is not None
        assert votes[replica.node_id].checkpoint.seq == 4


class TestEqualityChecks:
    def test_prefix_consistent_lagging_log_passes_without_equality(self):
        logs = [["a", "b", "c"], ["a", "b"]]
        assert check_agreement_logs(logs) == []

    def test_equality_mode_flags_lagging_logs(self):
        logs = [["a", "b", "c"], ["a", "b"]]
        mismatches = check_agreement_logs(logs, require_equality=True)
        assert len(mismatches) == 1
        assert "different log lengths" in mismatches[0]

    def test_equality_mode_passes_equal_logs(self):
        logs = [["a", "b"], ["a", "b"], ["a", "b"]]
        assert check_agreement_logs(logs, require_equality=True) == []

    def test_divergence_reported_once_not_also_as_length(self):
        logs = [["a", "x", "c"], ["a", "y"]]
        mismatches = check_agreement_logs(logs, require_equality=True)
        assert len(mismatches) == 1
        assert "diverge" in mismatches[0]


class TestAnnounceHygiene:
    def test_announce_from_non_member_is_rejected(self):
        harness = make_harness(4, interval=2, seed=13)
        decide(harness, 2)
        replica = harness.actors["replica-0"].replica
        rejected_before = harness.sim.metrics.counter("smr.checkpoint.rejected")
        replica.on_message(
            CheckpointAnnounce(epoch=0, certificate=None, log_length=50),
            "intruder",
        )
        assert (
            harness.sim.metrics.counter("smr.checkpoint.rejected")
            == rejected_before + 1
        )

    def test_wrong_epoch_announce_is_ignored(self):
        harness = make_harness(4, interval=2, seed=15)
        decide(harness, 2)
        replica = harness.actors["replica-0"].replica
        replica.on_message(
            CheckpointAnnounce(epoch=7, certificate=None, log_length=50),
            "replica-1",
        )
        # Neither rejected-counted nor acted on: a different epoch is simply
        # not addressed to this configuration.
        assert replica.checkpoints._tail_deficit_since < 0
