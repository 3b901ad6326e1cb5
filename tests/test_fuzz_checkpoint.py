"""Seeded fuzz/forgery tests for checkpoint and state-transfer frames.

A lagging PBFT replica is the natural target of checkpoint forgery: if any
malformed certificate or tampered state snapshot were installed, a single
Byzantine co-replica could rewrite a correct replica's decided log.  These
tests cut one replica off, decide operations behind its back, and then feed
it hand-crafted and randomly-mutated frames directly — every one must be
rejected and counted, leaving the decided log untouched — before checking
that the *genuine* response still installs.

Deterministic (fixed seeds) like the other fuzz suites, so failures always
reproduce with the printed case.
"""

import random
from dataclasses import replace

import pytest

from repro.core.config import AtumParameters
from repro.net.latency import LogNormalLatency
from repro.net.requests import RequestEnvelope
from repro.smr import PbftReplica, ReplicaGroupHarness
from transfer_utils import deliver_transfer_response

from repro.smr.checkpoint import (
    Checkpoint,
    CheckpointAnnounce,
    CheckpointCertificate,
    StateTransferRequest,
    StateTransferResponse,
    checkpoint_statement,
)


# Announces off: the tests drive every frame by hand.
pytestmark = pytest.mark.usefixtures("quiet_announces")


def make_lagging_harness(seed=0, interval=2, decided=4):
    """A 4-replica group where replica-3 missed ``decided`` operations."""
    harness = ReplicaGroupHarness(
        group_size=4,
        replica_class=PbftReplica,
        params=AtumParameters(request_timeout=2.0, checkpoint_interval=interval),
        seed=seed,
        latency_model=LogNormalLatency(median=0.02, sigma=0.3),
    )
    split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
    for index in range(decided):
        harness.propose("replica-0", "noop", index, op_id=f"op-{index}")
    harness.run(until=10.0)
    harness.network.merge(split)
    lagging = harness.actors["replica-3"].replica
    serving = harness.actors["replica-0"].replica
    assert len(lagging.decided_log) == 0
    assert len(serving.decided_log) == decided
    assert serving.checkpoints.stable is not None
    return harness, lagging, serving


def rejected(harness):
    return harness.sim.metrics.counter("smr.checkpoint.rejected")


class TestForgedCheckpointVotes:
    def test_bad_signature_vote_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=1)
        digest = serving.checkpoints.stable.state_digest
        statement = checkpoint_statement(0, 4, digest)
        forged_mac = replace(
            harness.registry.sign("replica-0", statement), mac="f" * 64
        )
        before = rejected(harness)
        lagging.on_message(
            Checkpoint(epoch=0, seq=4, state_digest=digest, replica="replica-0",
                       signature=forged_mac),
            "replica-0",
        )
        assert rejected(harness) == before + 1
        assert lagging.checkpoints.stable is None

    def test_vote_signed_by_a_different_key_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=2)
        digest = serving.checkpoints.stable.state_digest
        statement = checkpoint_statement(0, 4, digest)
        # replica-3 signs but claims the vote is replica-0's.
        wrong_signer = replace(
            harness.registry.sign("replica-3", statement), signer="replica-0"
        )
        before = rejected(harness)
        lagging.on_message(
            Checkpoint(epoch=0, seq=4, state_digest=digest, replica="replica-0",
                       signature=wrong_signer),
            "replica-0",
        )
        assert rejected(harness) == before + 1

    def test_relayed_vote_of_another_replica_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=3)
        digest = serving.checkpoints.stable.state_digest
        statement = checkpoint_statement(0, 4, digest)
        vote = Checkpoint(
            epoch=0, seq=4, state_digest=digest, replica="replica-1",
            signature=harness.registry.sign("replica-1", statement),
        )
        before = rejected(harness)
        lagging.on_message(vote, "replica-2")  # relayed, not from its author
        assert rejected(harness) == before + 1

    def test_non_member_vote_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=4)
        digest = serving.checkpoints.stable.state_digest
        statement = checkpoint_statement(0, 4, digest)
        harness.registry.generate("intruder")
        vote = Checkpoint(
            epoch=0, seq=4, state_digest=digest, replica="intruder",
            signature=harness.registry.sign("intruder", statement),
        )
        before = rejected(harness)
        lagging.on_message(vote, "intruder")
        assert rejected(harness) == before + 1


def forge_certificate(registry, signers, epoch, seq, digest):
    statement = checkpoint_statement(epoch, seq, digest)
    return CheckpointCertificate(
        epoch=epoch,
        seq=seq,
        state_digest=digest,
        signatures=tuple(registry.sign(signer, statement) for signer in signers),
    )


class TestForgedCertificates:
    def test_underquorum_certificate_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=5)
        cert = forge_certificate(
            harness.registry, ["replica-0", "replica-1"], 0, 6, "d" * 64
        )
        before = rejected(harness)
        lagging.on_message(CheckpointAnnounce(epoch=0, certificate=cert), "replica-0")
        assert rejected(harness) == before + 1
        assert lagging.checkpoints.stable is None

    def test_duplicate_signer_certificate_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=6)
        cert = forge_certificate(
            harness.registry, ["replica-0", "replica-0", "replica-1"], 0, 6, "d" * 64
        )
        before = rejected(harness)
        lagging.on_message(CheckpointAnnounce(epoch=0, certificate=cert), "replica-0")
        assert rejected(harness) == before + 1

    def test_non_member_signer_certificate_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=7)
        harness.registry.generate("intruder")
        cert = forge_certificate(
            harness.registry, ["replica-0", "replica-1", "intruder"], 0, 6, "d" * 64
        )
        before = rejected(harness)
        lagging.on_message(CheckpointAnnounce(epoch=0, certificate=cert), "replica-0")
        assert rejected(harness) == before + 1

    def test_statement_mismatch_certificate_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=8)
        # Signatures over seq 4 presented as a certificate for seq 6.
        statement = checkpoint_statement(0, 4, "d" * 64)
        cert = CheckpointCertificate(
            epoch=0,
            seq=6,
            state_digest="d" * 64,
            signatures=tuple(
                harness.registry.sign(s, statement)
                for s in ("replica-0", "replica-1", "replica-2")
            ),
        )
        before = rejected(harness)
        lagging.on_message(CheckpointAnnounce(epoch=0, certificate=cert), "replica-0")
        assert rejected(harness) == before + 1


class TestForgedStateTransfers:
    def test_tampered_operation_body_is_never_installed(self):
        harness, lagging, serving = make_lagging_harness(seed=9)
        cert = serving.checkpoints.stable
        genuine = list(serving.decided_log[: cert.seq])
        tampered = [replace(genuine[0], body="evil")] + genuine[1:]
        before = rejected(harness)
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0, certificate=cert, base_count=0, operations=tuple(tampered)
            ),
            serving,
        )
        assert rejected(harness) == before + 1
        assert len(lagging.decided_log) == 0

    def test_reordered_operations_are_never_installed(self):
        harness, lagging, serving = make_lagging_harness(seed=10)
        cert = serving.checkpoints.stable
        genuine = list(serving.decided_log[: cert.seq])
        reordered = [genuine[1], genuine[0]] + genuine[2:]
        before = rejected(harness)
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0, certificate=cert, base_count=0, operations=tuple(reordered)
            ),
            serving,
        )
        assert rejected(harness) == before + 1
        assert len(lagging.decided_log) == 0

    def test_stale_base_count_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=11)
        cert = serving.checkpoints.stable
        genuine = tuple(serving.decided_log[1 : cert.seq])
        before = rejected(harness)
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0, certificate=cert, base_count=1, operations=genuine
            ),
            serving,
        )
        assert rejected(harness) == before + 1
        assert len(lagging.decided_log) == 0

    def test_truncated_snapshot_is_rejected(self):
        harness, lagging, serving = make_lagging_harness(seed=12)
        cert = serving.checkpoints.stable
        genuine = tuple(serving.decided_log[: cert.seq - 1])
        before = rejected(harness)
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0, certificate=cert, base_count=0, operations=genuine
            ),
            serving,
        )
        assert rejected(harness) == before + 1
        assert len(lagging.decided_log) == 0

    def test_genuine_response_installs_after_forgeries_failed(self):
        harness, lagging, serving = make_lagging_harness(seed=13)
        cert = serving.checkpoints.stable
        genuine = tuple(serving.decided_log[: cert.seq])
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0,
                certificate=cert,
                base_count=0,
                operations=(replace(genuine[0], body="evil"),) + genuine[1:],
            ),
            serving,
        )
        assert len(lagging.decided_log) == 0
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0, certificate=cert, base_count=0, operations=genuine
            ),
            serving,
        )
        assert [op.op_id for op in lagging.decided_log] == [
            op.op_id for op in genuine
        ]
        assert lagging.checkpoints.stable is not None


class TestHostileTransferRequests:
    @pytest.mark.parametrize(
        "epoch, have_count",
        [(0, "x"), (0, None), (0, -5), (0, 1.5), (0, True), ("x", 0), (None, 0), (-1, 0)],
    )
    def test_malformed_request_fields_are_rejected_and_never_served(
        self, epoch, have_count
    ):
        harness, lagging, serving = make_lagging_harness(seed=15)
        metrics = harness.sim.metrics
        before = metrics.counter("req.rejected_malformed")
        served = metrics.counter("smr.checkpoint.state_responses")
        sent = metrics.counter("net.messages_sent")
        envelope = RequestEnvelope(
            request_id="replica-3:req:99",
            kind="ckpt.transfer",
            payload=StateTransferRequest(epoch=epoch, have_count=have_count),
            requester="replica-3",
            deadline=harness.sim.now + 3.0,
        )
        serving.on_message(envelope, "replica-3")
        assert metrics.counter("req.rejected_malformed") == before + 1
        assert metrics.counter("smr.checkpoint.state_responses") == served
        assert metrics.counter("net.messages_sent") == sent


CASES = 120


class TestRandomizedFrameFuzz:
    def test_random_mutations_are_rejected_and_never_installed(self):
        harness, lagging, serving = make_lagging_harness(seed=14)
        cert = serving.checkpoints.stable
        genuine = tuple(serving.decided_log[: cert.seq])
        rng = random.Random(0xCC5)
        mutations = 0
        for case in range(CASES):
            kind = rng.randrange(5)
            if kind == 0:  # corrupt the certified digest
                bad = forge_certificate(
                    harness.registry,
                    ["replica-0", "replica-1", "replica-2"],
                    0,
                    cert.seq,
                    "%064x" % rng.getrandbits(256),
                )
                frame = StateTransferResponse(
                    epoch=0, certificate=bad, base_count=0, operations=genuine
                )
            elif kind == 1:  # drop a signature from the real certificate
                bad = CheckpointCertificate(
                    epoch=cert.epoch,
                    seq=cert.seq,
                    state_digest=cert.state_digest,
                    signatures=tuple(
                        rng.sample(list(cert.signatures), max(0, len(cert.signatures) - 2))
                    ),
                )
                frame = StateTransferResponse(
                    epoch=0, certificate=bad, base_count=0, operations=genuine
                )
            elif kind == 2:  # shuffle / drop / duplicate operations
                operations = list(genuine)
                action = rng.randrange(3)
                if action == 0:
                    rng.shuffle(operations)
                    if operations == list(genuine):
                        operations.reverse()
                elif action == 1:
                    operations.pop(rng.randrange(len(operations)))
                else:
                    operations.append(operations[rng.randrange(len(operations))])
                frame = StateTransferResponse(
                    epoch=0,
                    certificate=cert,
                    base_count=0,
                    operations=tuple(operations),
                )
            elif kind == 3:  # wrong base count (stale low-water-mark)
                frame = StateTransferResponse(
                    epoch=0,
                    certificate=cert,
                    base_count=rng.randrange(1, cert.seq + 3),
                    operations=genuine,
                )
            else:  # tamper one operation's body or proposer
                index = rng.randrange(len(genuine))
                field_name = rng.choice(["body", "proposer"])
                tampered = replace(genuine[index], **{field_name: "forged"})
                frame = StateTransferResponse(
                    epoch=0,
                    certificate=cert,
                    base_count=0,
                    operations=genuine[:index] + (tampered,) + genuine[index + 1 :],
                )
            before = rejected(harness)
            deliver_transfer_response(lagging, frame, serving)
            assert len(lagging.decided_log) == 0, (case, frame)
            assert rejected(harness) == before + 1, (case, frame)
            mutations += 1
        assert mutations == CASES
        # After the whole barrage, the genuine transfer still installs.
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=0, certificate=cert, base_count=0, operations=genuine
            ),
            serving,
        )
        assert [op.op_id for op in lagging.decided_log] == [
            op.op_id for op in genuine
        ]


# ---------------------------------------------------------------------------
# ISSUE 7: epoch-transition forgeries.  The transfer chain that re-anchors an
# old-epoch certificate is itself an attack surface — a Byzantine responder
# can skip links, thin quorums, doctor signatures, or re-anchor a different
# certificate.  Every such frame must be rejected with the precise reason and
# leave the laggard's anchor and log untouched.

from repro.smr.checkpoint import transition_statement


def make_epoch_crossed_harness(seed=20, crossings=1):
    """A lagging harness whose group crossed ``crossings`` reconfigurations.

    Every replica reconfigures (the laggard is still a member, so its epoch
    keeps pace), but the laggard is cut off for the decisions AND for the
    transition votes: it exits the crossings with no anchor and no chain, so
    everything it learns arrives through the frames under test.
    """
    harness, lagging, serving = make_lagging_harness(seed=seed)
    split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
    for _ in range(crossings):
        for actor in harness.actors.values():
            actor.replica.reconfigure(harness.addresses, epoch=actor.replica.epoch + 1)
        harness.run(until=harness.sim.now + 5.0)
    harness.network.merge(split)
    assert lagging.epoch == serving.epoch == crossings
    assert lagging.checkpoints.anchor is None
    chain = tuple(serving.checkpoints.transitions)
    assert [record.new_epoch for record in chain] == list(range(1, crossings + 1))
    return harness, lagging, serving, chain


def reason(harness, name):
    return harness.sim.metrics.counter(f"smr.checkpoint.rejected_{name}")


class TestForgedEpochTransitions:
    def test_chain_that_skips_an_epoch_is_rejected(self):
        harness, lagging, serving, chain = make_epoch_crossed_harness(
            seed=21, crossings=2
        )
        cert = serving.checkpoints.anchor
        genuine = tuple(serving.decided_log[: cert.seq])
        before = reason(harness, "skipped_epoch")
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=2, certificate=cert, base_count=0, operations=genuine,
                transitions=chain[1:],  # the epoch-1 link is missing
            ),
            serving,
        )
        assert reason(harness, "skipped_epoch") == before + 1
        # Only the announced, verified chain anchors the laggard.
        assert lagging.checkpoints.transitions == list(chain)
        assert len(lagging.decided_log) == 0

    def test_underquorum_transition_record_is_rejected(self):
        harness, lagging, serving, chain = make_epoch_crossed_harness(seed=22)
        top = chain[-1]
        weak = replace(top, signatures=top.signatures[:1])
        before = reason(harness, "transition_under_quorum")
        lagging.on_message(
            CheckpointAnnounce(
                epoch=1, certificate=serving.checkpoints.anchor, transitions=(weak,)
            ),
            "replica-0",
        )
        assert reason(harness, "transition_under_quorum") == before + 1
        assert lagging.checkpoints.anchor is None

    def test_tampered_transition_signature_is_rejected(self):
        harness, lagging, serving, chain = make_epoch_crossed_harness(seed=23)
        top = chain[-1]
        doctored = replace(
            top,
            signatures=(replace(top.signatures[0], mac="f" * 64),)
            + top.signatures[1:],
        )
        before = reason(harness, "transition_bad_signature")
        lagging.on_message(
            CheckpointAnnounce(
                epoch=1,
                certificate=serving.checkpoints.anchor,
                transitions=(doctored,),
            ),
            "replica-0",
        )
        assert reason(harness, "transition_bad_signature") == before + 1
        assert lagging.checkpoints.anchor is None

    def test_chain_reanchoring_a_different_certificate_is_rejected(self):
        harness, lagging, serving, chain = make_epoch_crossed_harness(seed=24)
        cert = serving.checkpoints.anchor
        foreign = forge_certificate(
            harness.registry,
            ["replica-0", "replica-1", "replica-2"],
            0,
            cert.seq,
            "e" * 64,
        )
        before = reason(harness, "transition_mismatch")
        lagging.on_message(
            CheckpointAnnounce(epoch=1, certificate=foreign, transitions=chain),
            "replica-0",
        )
        assert reason(harness, "transition_mismatch") == before + 1
        assert lagging.checkpoints.anchor is None

    def test_intruder_countersigned_record_is_rejected(self):
        harness, lagging, serving, chain = make_epoch_crossed_harness(seed=25)
        harness.registry.generate("intruder")
        top = chain[-1]
        statement = transition_statement(
            top.new_epoch, top.members, top.prev_members, top.certificate
        )
        forged = replace(
            top,
            signatures=top.signatures[:2]
            + (harness.registry.sign("intruder", statement),),
        )
        before = reason(harness, "bad_transition")
        lagging.on_message(
            CheckpointAnnounce(
                epoch=1, certificate=serving.checkpoints.anchor, transitions=(forged,)
            ),
            "replica-0",
        )
        assert reason(harness, "bad_transition") == before + 1
        assert lagging.checkpoints.anchor is None

    def test_genuine_chain_installs_after_forgeries(self):
        harness, lagging, serving, chain = make_epoch_crossed_harness(
            seed=26, crossings=2
        )
        cert = serving.checkpoints.anchor
        genuine = tuple(serving.decided_log[: cert.seq])
        adopted = harness.sim.metrics.counter("smr.checkpoint.anchors_adopted")
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=2, certificate=cert, base_count=0, operations=genuine,
                transitions=chain[:1],
            ),
            serving,
        )
        assert lagging.checkpoints.transitions == list(chain)
        assert len(lagging.decided_log) == 0
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=2, certificate=cert, base_count=0, operations=genuine,
                transitions=chain,
            ),
            serving,
        )
        assert [op.op_id for op in lagging.decided_log] == [
            op.op_id for op in genuine
        ]
        # One adoption in all: the announce's verified chain.
        assert (
            harness.sim.metrics.counter("smr.checkpoint.anchors_adopted")
            == adopted + 1
        )

    def test_random_transition_chain_mutations_are_rejected(self):
        harness, lagging, serving, chain = make_epoch_crossed_harness(
            seed=27, crossings=2
        )
        cert = serving.checkpoints.anchor
        genuine = tuple(serving.decided_log[: cert.seq])
        rng = random.Random(0xE9)
        for case in range(60):
            kind = rng.randrange(4)
            records = list(chain)
            if kind == 0:  # drop a link
                records.pop(rng.randrange(len(records)))
            elif kind == 1:  # thin a quorum
                index = rng.randrange(len(records))
                records[index] = replace(
                    records[index],
                    signatures=tuple(
                        rng.sample(list(records[index].signatures), 2)
                    ),
                )
            elif kind == 2:  # flip one signature's MAC
                index = rng.randrange(len(records))
                signatures = list(records[index].signatures)
                position = rng.randrange(len(signatures))
                signatures[position] = replace(
                    signatures[position], mac="%064x" % rng.getrandbits(256)
                )
                records[index] = replace(
                    records[index], signatures=tuple(signatures)
                )
            else:  # re-anchor a foreign digest inside one link
                index = rng.randrange(len(records))
                records[index] = replace(
                    records[index],
                    certificate=forge_certificate(
                        harness.registry,
                        ["replica-0", "replica-1", "replica-2"],
                        0,
                        cert.seq,
                        "%064x" % rng.getrandbits(256),
                    ),
                )
            before = rejected(harness)
            deliver_transfer_response(
                lagging,
                StateTransferResponse(
                    epoch=2, certificate=cert, base_count=0, operations=genuine,
                    transitions=tuple(records),
                ),
                serving,
            )
            assert len(lagging.decided_log) == 0, (case, kind)
            assert lagging.checkpoints.transitions == list(chain), (case, kind)
            assert rejected(harness) == before + 1, (case, kind)
        # After the whole barrage, the genuine chain still installs.
        deliver_transfer_response(
            lagging,
            StateTransferResponse(
                epoch=2, certificate=cert, base_count=0, operations=genuine,
                transitions=chain,
            ),
            serving,
        )
        assert [op.op_id for op in lagging.decided_log] == [
            op.op_id for op in genuine
        ]


# ---------------------------------------------------------------------------
# ISSUE 7: application-snapshot fuzz.  Snapshots ride into recovering nodes
# under a certified digest; mutations — stale-digest tampering, recomputed
# digests over forged content, truncated or holey stream prefixes — must all
# reject-and-count without touching the target node's live state.

MB = 1024 * 1024


class TestRandomizedSnapshotFuzz:
    def make_share(self, seed=30):
        from repro.apps.ashare import AShareCluster
        from repro.core.cluster import AtumCluster
        from repro.core.config import AtumParameters

        params = AtumParameters(
            hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5,
            expected_system_size=30,
        )
        atum = AtumCluster(params, seed=seed)
        atum.build_static([f"n{i}" for i in range(18)])
        share = AShareCluster(atum, replication_feedback=False)
        share.put("n0", "dataset", size_bytes=8 * MB, num_chunks=4)
        share.put("n1", "notes", size_bytes=2 * MB, num_chunks=2)
        atum.run(until=60.0)
        return atum, share

    def test_ashare_snapshot_mutations_always_reject(self):
        from repro.crypto.digest import digest_object

        atum, share = self.make_share()
        snapshot = share.snapshot("n0")
        digest = share.snapshot_digest("n0")
        assert len(snapshot["records"]) == 2
        target_before = share.snapshot_digest("n9")
        rng = random.Random(0xA5)
        for case in range(40):
            kind = rng.randrange(4)
            if kind == 0:  # reorder records, keep the stale certified digest
                mutated = dict(
                    snapshot, records=tuple(reversed(snapshot["records"]))
                )
                expected = digest
            elif kind == 1:  # forged chunk digests under a recomputed digest
                records = [dict(entry) for entry in snapshot["records"]]
                index = rng.randrange(len(records))
                records[index] = dict(
                    records[index],
                    chunk_digests=tuple(
                        "%064x" % rng.getrandbits(256)
                        for _ in range(records[index]["num_chunks"])
                    ),
                )
                mutated = dict(snapshot, records=tuple(records))
                expected = digest_object(mutated)
            elif kind == 2:  # drop a record, keep the certified digest
                records = list(snapshot["records"])
                records.pop(rng.randrange(len(records)))
                mutated = dict(snapshot, records=tuple(records))
                expected = digest
            else:  # wrong application frame entirely
                mutated = {"app": "astream", "records": snapshot["records"]}
                expected = (
                    digest_object(mutated) if rng.random() < 0.5 else digest
                )
            before = atum.sim.metrics.counter("ashare.snapshot_rejected")
            assert not share.restore("n9", mutated, expected_digest=expected), (
                case,
                kind,
            )
            assert (
                atum.sim.metrics.counter("ashare.snapshot_rejected") == before + 1
            )
            assert share.snapshot_digest("n9") == target_before, (case, kind)
        # The genuine snapshot still installs after the barrage.
        assert share.restore("n9", snapshot, expected_digest=digest)
        assert share.snapshot_digest("n9") == digest

    def test_astream_prefix_mutations_always_reject(self):
        from repro.apps.astream import AStreamSession
        from repro.core.cluster import AtumCluster
        from repro.core.config import AtumParameters, SmrKind
        from repro.crypto.digest import digest_object

        params = AtumParameters(
            hc=3, rwl=5, gmax=6, gmin=3, smr_kind=SmrKind.SYNC,
            round_duration=0.5, expected_system_size=30,
        )
        atum = AtumCluster(params, seed=31)
        atum.build_static([f"n{i}" for i in range(20)])
        session = AStreamSession(
            atum,
            source="n0",
            forward_policy="single",
            chunk_bytes=250_000,
            rate_bytes_per_s=1_000_000,
            pull_timeout=1.0,
        )
        session.stream(duration_s=0.5)
        atum.run(until=60.0)
        snapshot = session.snapshot("n5")
        digest = session.snapshot_digest("n5")
        assert len(snapshot["received"]) >= 2
        rng = random.Random(0x57)
        for case in range(40):
            kind = rng.randrange(4)
            if kind == 0:  # truncated prefix under the certified digest
                cut = rng.randrange(len(snapshot["received"]))
                mutated = dict(
                    snapshot, received=tuple(snapshot["received"][:cut])
                )
                expected = digest
            elif kind == 1:  # holey prefix under a recomputed digest
                mutated = dict(
                    snapshot, received=tuple(snapshot["received"][1:])
                )
                expected = digest_object(mutated)
            elif kind == 2:  # forged chunk digests under a recomputed digest
                mutated = dict(
                    snapshot,
                    digests=tuple(
                        (index, "%064x" % rng.getrandbits(256))
                        for index, _ in snapshot["digests"]
                    ),
                )
                expected = digest_object(mutated)
            else:  # a different stream's snapshot
                mutated = dict(snapshot, stream="stolen-stream")
                expected = digest_object(mutated)
            before = atum.sim.metrics.counter("astream.snapshot_rejected")
            assert not session.restore(
                "n7", mutated, expected_digest=expected
            ), (case, kind)
            assert (
                atum.sim.metrics.counter("astream.snapshot_rejected")
                == before + 1
            )
        session.states["n7"].received_chunks.clear()
        session.states["n7"].known_digests.clear()
        assert session.restore("n7", snapshot, expected_digest=digest)
        assert session.snapshot_digest("n7") == digest
