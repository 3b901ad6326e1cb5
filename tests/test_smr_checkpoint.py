"""Tests for PBFT checkpointing and state transfer (repro.smr.checkpoint)."""

import pytest
from transfer_utils import deliver_transfer_response

from repro.core.config import AtumParameters
from repro.net.latency import LogNormalLatency
from repro.smr import PbftReplica, ReplicaGroupHarness
from repro.smr.checkpoint import (
    ANNOUNCE_MAX_PERIODS,
    ANNOUNCE_PERIOD,
    CheckpointAnnounce,
    state_digest_of,
)
from repro.faults.invariants import check_agreement_logs


def make_harness(group_size, interval=2, seed=0, timeout=2.0):
    return ReplicaGroupHarness(
        group_size=group_size,
        replica_class=PbftReplica,
        params=AtumParameters(request_timeout=timeout, checkpoint_interval=interval),
        seed=seed,
        latency_model=LogNormalLatency(median=0.02, sigma=0.3),
    )


def decide(harness, count, prefix="op", start_until=5.0):
    for index in range(count):
        harness.propose("replica-0", "noop", index, op_id=f"{prefix}-{index}")
    harness.run(until=harness.sim.now + start_until)


class TestCheckpointFormation:
    def test_a_pbft_replica_always_has_a_checkpoint_manager(self):
        harness = ReplicaGroupHarness(group_size=4, replica_class=PbftReplica, seed=1)
        decide(harness, 8)
        for actor in harness.actors.values():
            assert actor.replica.checkpoints is not None
            assert actor.replica.checkpoints.interval == 8  # the default
            assert actor.replica.checkpoints.stable_seq == 8
        assert harness.sim.metrics.counter("smr.checkpoint.emitted") > 0

    def test_stable_checkpoint_forms_at_interval_boundaries(self):
        harness = make_harness(4, interval=2)
        decide(harness, 5)
        for actor in harness.actors.values():
            assert actor.replica.checkpoints.stable_seq == 4  # 5 ops, interval 2
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
        assert harness.actors["replica-0"].replica.checkpoints.stable_seq == 4

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
        assert replica.checkpoints.stable_seq == 4
        replica.reconfigure(harness.addresses, epoch=replica.epoch + 1)
        # The epoch-scoped stable certificate resets, but it survives as
        # the cross-epoch anchor (re-anchored by a transition record), so
        # the group can still serve certified transfers while quiet.
        assert replica.checkpoints.stable is None
        assert replica.checkpoints.anchor is not None
        assert replica.checkpoints.stable_seq == 4
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
                actor.replica.reconfigure(harness.addresses, epoch=actor.replica.epoch + 1)
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
                actor.replica.reconfigure(harness.addresses, epoch=actor.replica.epoch + 1)
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

    @pytest.mark.usefixtures("quiet_announces")
    def test_lower_seq_install_does_not_cancel_a_pending_higher_transfer(self):
        # Regression: a response serving an OLD certificate used to clear
        # the pending higher-seq transfer target, unblocking
        # execution with the higher checkpoint's gap still open (and never
        # re-requesting it, since the stable seq already matched).
        from repro.smr.checkpoint import (
            CheckpointCertificate,
            StateTransferResponse,
            checkpoint_statement,
            state_digest_of,
        )

        harness = make_harness(4, interval=2, seed=17)
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
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0,
                certificate=low,
                base_count=0,
                operations=tuple(serving.decided_log[:2]),
            ),
            serving,
        )
        # The old prefix installed, but the higher gap stays open: still
        # blocked, and the remaining gap was re-requested immediately.
        assert len(lagging.decided_log) == 2
        assert lagging.checkpoints.transfer_blocking
        assert (
            harness.sim.metrics.counter("smr.checkpoint.state_requests")
            > requests_before
        )
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0,
                certificate=high,
                base_count=2,
                operations=tuple(serving.decided_log[2:6]),
            ),
            serving,
        )
        assert len(lagging.decided_log) == 6
        assert not lagging.checkpoints.transfer_blocking
        assert harness.agreement_violations(require_equality=True) == []

    @pytest.mark.usefixtures("quiet_announces")
    def test_a_transfer_travels_only_inside_request_envelopes(self):
        from repro.smr.checkpoint import StateTransferRequest

        harness = make_harness(4, interval=2, seed=9)
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 4, prefix="bare", start_until=10.0)
        harness.network.merge(split)
        serving = harness.actors["replica-0"].replica
        lagging = harness.actors["replica-3"].replica
        metrics = harness.sim.metrics
        request = StateTransferRequest(epoch=0, have_count=0)
        response = serving.checkpoints.build_state_response(request, "replica-3")
        assert response is not None and len(lagging.decided_log) == 0
        served = metrics.counter("smr.checkpoint.state_responses")
        sent = metrics.counter("net.messages_sent")
        # A bare request is not served, a bare response not installed.
        serving.on_message(request, "replica-3")
        assert metrics.counter("smr.pbft.unknown_frame") == 1
        lagging.on_message(response, "replica-0")
        assert metrics.counter("smr.pbft.unknown_frame") == 2
        assert metrics.counter("smr.checkpoint.state_responses") == served
        assert metrics.counter("net.messages_sent") == sent
        assert len(lagging.decided_log) == 0
        assert metrics.counter("smr.checkpoint.transfers_completed") == 0
        # The same response answering an outstanding ckpt.transfer installs.
        deliver_transfer_response(lagging, response, serving)
        assert len(lagging.decided_log) == 4
        assert metrics.counter("smr.checkpoint.transfers_completed") == 1
        assert metrics.counter("smr.pbft.unknown_frame") == 2

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


class TestTrickleAnnounce:
    """The announce interval backs off while members agree and resets when not."""

    PERIOD = ANNOUNCE_PERIOD
    CAP = ANNOUNCE_MAX_PERIODS * PERIOD

    def backed_off(self, seed=21, ops=4):
        harness = make_harness(4, interval=2, seed=seed)
        decide(harness, ops)
        harness.run(until=harness.sim.now + 4 * self.CAP)
        for actor in harness.actors.values():
            assert actor.replica.checkpoints._announce.interval == self.CAP
        return harness

    @staticmethod
    def resets(harness):
        return harness.sim.metrics.counter("smr.checkpoint.announce_resets")

    def test_interval_doubles_to_the_cap_while_peers_agree(self):
        harness = make_harness(4, interval=2, seed=21)
        manager = harness.actors["replica-0"].replica.checkpoints
        seen = [manager._announce.interval]
        decide(harness, 4, start_until=1.0)
        while harness.sim.now < 200.0:
            harness.run(until=harness.sim.now + 1.0)
            if not seen or seen[-1] != manager._announce.interval:
                seen.append(manager._announce.interval)
        assert seen == [2.0, 4.0, 8.0, 16.0, 32.0]
        assert self.resets(harness) == 0
        # 200 s at 2 s would have been 100 announces per replica.
        assert harness.sim.metrics.counter("smr.checkpoint.announces") < 4 * 15

    def test_a_stale_certificate_resets_to_the_period_and_announces_at_once(self):
        harness = self.backed_off()
        replica = harness.actors["replica-0"].replica
        manager = replica.checkpoints
        announces = harness.sim.metrics.counter("smr.checkpoint.announces")
        replica.on_message(
            CheckpointAnnounce(
                epoch=0,
                certificate=manager.previous_stable,
                log_length=len(replica.decided_log),
                view=replica.view,
            ),
            "replica-1",
        )
        assert manager._announce.interval == self.PERIOD
        assert self.resets(harness) == 1
        harness.run(until=harness.sim.now + 0.001)
        assert harness.sim.metrics.counter("smr.checkpoint.announces") == announces + 1

    def test_a_different_view_resets(self):
        harness = self.backed_off()
        replica = harness.actors["replica-0"].replica
        replica.on_message(
            CheckpointAnnounce(
                epoch=0,
                certificate=replica.checkpoints.stable,
                log_length=len(replica.decided_log),
                view=replica.view + 1,
            ),
            "replica-2",
        )
        assert replica.checkpoints._announce.interval == self.PERIOD
        assert self.resets(harness) == 1

    def test_a_new_epoch_resets(self):
        harness = self.backed_off()
        replica = harness.actors["replica-0"].replica
        replica.reconfigure(harness.addresses, epoch=replica.epoch + 1)
        assert replica.checkpoints._announce.interval == self.PERIOD
        assert self.resets(harness) == 1

    def test_an_agreeing_announce_does_not_reset(self):
        harness = self.backed_off()
        replica = harness.actors["replica-0"].replica
        replica.on_message(
            CheckpointAnnounce(
                epoch=0,
                certificate=replica.checkpoints.stable,
                log_length=len(replica.decided_log),
                view=replica.view,
            ),
            "replica-3",
        )
        assert replica.checkpoints._announce.interval == self.CAP
        assert self.resets(harness) == 0

    def test_non_member_and_wrong_epoch_announces_never_reset(self):
        harness = self.backed_off()
        replica = harness.actors["replica-0"].replica
        stale = dict(certificate=None, log_length=10_000, view=replica.view + 3)
        replica.on_message(CheckpointAnnounce(epoch=0, **stale), "intruder")
        replica.on_message(CheckpointAnnounce(epoch=5, **stale), "replica-1")
        assert replica.checkpoints._announce.interval == self.CAP
        assert self.resets(harness) == 0
        assert harness.sim.metrics.counter("smr.checkpoint.rejected_non_member") == 1

    def test_a_spamming_member_cannot_raise_the_rate_above_one_per_period(self):
        harness = self.backed_off()
        replica = harness.actors["replica-0"].replica
        sent = []
        original = replica._broadcast

        def broadcast(payload, size_bytes=None):
            if isinstance(payload, CheckpointAnnounce):
                sent.append(harness.sim.now)
            original(payload, size_bytes)

        replica._broadcast = broadcast
        start = harness.sim.now
        for index in range(1000):
            harness.sim.schedule_at(
                start + 0.1 * index,
                lambda: replica.on_message(
                    CheckpointAnnounce(epoch=0, certificate=None, view=99), "replica-3"
                ),
            )
        harness.run(until=start + 100.0)
        assert len(sent) <= 100.0 / self.PERIOD + 1
        assert all(b - a >= self.PERIOD - 1e-9 for a, b in zip(sent, sent[1:]))

    def test_healed_replica_catches_up_within_a_period_of_first_contact(self):
        harness = make_harness(4, interval=2, seed=23)
        decide(harness, 2, prefix="pre")
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 4, prefix="mid")
        # Long enough for the connected three to back off to the cap.
        harness.run(until=harness.sim.now + 4 * self.CAP)
        assert harness.actors["replica-0"].replica.checkpoints._announce.interval == self.CAP
        healed = harness.actors["replica-3"].replica
        assert len(healed.decided_log) == 2
        contacts = []
        for actor in harness.actors.values():
            replica = actor.replica
            handler = replica._handlers[CheckpointAnnounce]

            def first_contact(message, sender, replica=replica, handler=handler):
                if "replica-3" in (sender, replica.node_id):
                    contacts.append(harness.sim.now)
                handler(message, sender)

            replica._handlers[CheckpointAnnounce] = first_contact
        harness.network.merge(split)
        while len(healed.decided_log) < 6 and harness.sim.now < 1000.0:
            harness.run(until=harness.sim.now + 0.01)
        assert contacts
        assert harness.sim.now - contacts[0] <= self.PERIOD
        assert harness.agreement_violations(require_equality=True) == []

    def test_a_stall_is_detected_two_periods_after_the_clock_starts(self):
        # Peers that agree announce only every 16 periods; the deficit clock
        # checks itself at the end of its grace window instead of waiting
        # for their next announce.
        harness = make_harness(4, interval=4, seed=5)
        split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
        decide(harness, 1, prefix="tail", start_until=8.0)
        harness.run(until=harness.sim.now + 4 * self.CAP)
        stalled = harness.actors["replica-3"].replica
        view_changes = []
        original = stalled._start_view_change

        def start_view_change(target=None):
            view_changes.append(harness.sim.now)
            original(target=target)

        stalled._start_view_change = start_view_change
        harness.network.merge(split)
        while stalled.checkpoints._tail_deficit_since < 0:
            harness.run(until=harness.sim.now + 0.01)
        started = stalled.checkpoints._tail_deficit_since
        harness.run(until=started + 2 * self.PERIOD + 1.0)
        assert view_changes and view_changes[0] == pytest.approx(started + 2 * self.PERIOD)
        harness.run(until=harness.sim.now + 20.0)
        assert [len(log) for log in harness.decided_logs()] == [1, 1, 1, 1]

    def start_deficit_clock_at(self, start):
        # A peer claims a longer log at a non-dyadic time; nothing is decided,
        # so our log stays frozen below the claim.
        harness = make_harness(4, interval=2, seed=5)
        stalled = harness.actors["replica-3"].replica
        view_changes = []
        stalled._start_view_change = lambda target=None: view_changes.append(
            harness.sim.now
        )
        harness.sim.schedule_at(
            start, lambda: stalled.checkpoints._note_peer_log_length(1)
        )
        harness.run(until=start)
        assert stalled.checkpoints._tail_deficit_since == start
        return harness, stalled, view_changes

    def test_the_deficit_deadline_fires_despite_float_rounding(self):
        # 0.1 + 4.0 - 0.1 < 4.0 in binary floating point: the deadline must
        # compare against the sum it was scheduled at, not the difference.
        harness, _, view_changes = self.start_deficit_clock_at(0.1)
        harness.run(until=0.1 + 2 * self.PERIOD)
        assert view_changes == [0.1 + 2 * self.PERIOD]
        # Still stalled: the next attempt comes four periods after the first.
        harness.run(until=view_changes[0] + 4 * self.PERIOD)
        assert view_changes == [0.1 + 2 * self.PERIOD, 4.1 + 4 * self.PERIOD]

    def test_a_deadline_from_an_old_epoch_is_a_no_op(self):
        harness, stalled, view_changes = self.start_deficit_clock_at(0.5)
        harness.run(until=1.0)
        stalled.reconfigure(harness.addresses, epoch=stalled.epoch + 1)
        harness.run(until=0.5 + 3 * self.PERIOD)
        assert view_changes == []
