"""Standing differentials for the PBFT receive path (ROADMAP item 6(b)).

The receive path replaced three things that used to be re-derived per
message; each replacement is held to its predecessor here, with the
predecessor kept as a test-local copy of the code at 3d42a51:

* **routing** — one exact-type table per layer (``AtumNode._routes``,
  ``PbftReplica._handlers``) against the ``isinstance`` chains of
  ``AtumNode.on_message`` → ``PbftReplica.on_message`` →
  ``CheckpointManager.handle``: every frame must reach the same handler, and
  every Byzantine behaviour must ignore the same frames;
* **statement-once** — ``registry.verify_digest`` against the per-replica
  statement digest versus ``registry.verify`` re-hashing the statement per
  signature: accept/reject must agree on every signature;
* **the chain** — the one fold over operation digests, from scratch
  (``state_digest_of``), incrementally (``_state_digest_at``) and across a
  transfer (``_chained_digest_with``).
"""

import random
from dataclasses import fields, replace

import pytest
from transfer_utils import deliver_transfer_response

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.node import AtumNode, DirectMessage, SmrEnvelope
from repro.crypto.certificates import CertificateChain, WalkCertificate
from repro.crypto.digest import canonical_encode, seal
from repro.crypto.keys import Signature
from repro.faults.plan import RESPONDER_BEHAVIOURS
from repro.group.heartbeat import Heartbeat
from repro.group.messages import GroupMessageEnvelope, GroupMessenger
from repro.net.message import CorruptedPayload
from repro.net.requests import RequestEnvelope, RequestManager, ResponseEnvelope
from repro.smr import PbftReplica, ReplicaGroupHarness
from repro.smr.base import Operation
from repro.smr.checkpoint import (
    Checkpoint,
    CheckpointAnnounce,
    CheckpointCertificate,
    CheckpointManager,
    EpochTransitionVote,
    StateTransferRequest,
    StateTransferResponse,
    _quorum_of,
    checkpoint_statement,
    state_digest_of,
)
from repro.smr.pbft import (
    PbftCommit,
    PbftNewView,
    PbftPrePrepare,
    PbftPrepare,
    PbftRequest,
    PbftViewChange,
)

PBFT_FRAMES = (PbftRequest, PbftPrePrepare, PbftPrepare, PbftCommit, PbftViewChange, PbftNewView)
CHECKPOINT_FRAMES = (
    Checkpoint,
    EpochTransitionVote,
    CheckpointAnnounce,
    StateTransferRequest,
    StateTransferResponse,
    RequestEnvelope,
    ResponseEnvelope,
)
UNKNOWN = (object(), None, ("a", "tuple"), 7, "text")


def blank(cls, **values):
    """An instance of a frame class; routing never looks past the fields given."""
    return cls(**{spec.name: values.get(spec.name) for spec in fields(cls)})


def recorder(calls, name):
    def record(self, payload, *rest):
        calls.append((name, payload))

    return record


# ------------------------------------------------------------------- routing


def legacy_replica_on_message(replica, payload, sender):
    """``PbftReplica.on_message`` + ``CheckpointManager.handle`` as of 3d42a51.

    Less the bare ``StateTransferRequest``/``StateTransferResponse`` routes:
    a transfer now travels only inside request/response envelopes, and a
    bare transfer frame is an unknown frame.
    """
    if not replica.running:
        return
    if isinstance(payload, PbftRequest):
        replica._on_request(payload, sender)
    elif isinstance(payload, PbftPrePrepare):
        replica._on_pre_prepare(payload, sender)
    elif isinstance(payload, PbftPrepare):
        replica._on_prepare(payload, sender)
    elif isinstance(payload, PbftCommit):
        replica._on_commit(payload, sender)
    elif isinstance(payload, PbftViewChange):
        replica._on_view_change(payload, sender)
    elif isinstance(payload, PbftNewView):
        replica._on_new_view(payload, sender)
    elif replica.checkpoints is not None:
        manager = replica.checkpoints
        if isinstance(payload, Checkpoint):
            manager.on_checkpoint(payload, sender)
        elif isinstance(payload, EpochTransitionVote):
            manager.on_transition_vote(payload, sender)
        elif isinstance(payload, CheckpointAnnounce):
            manager.on_announce(payload, sender)
        elif isinstance(payload, RequestEnvelope):
            manager._on_transfer_request_envelope(payload, sender)
        elif isinstance(payload, ResponseEnvelope):
            if manager._requests is not None:
                manager._requests.on_envelope(payload, sender)


@pytest.fixture
def replica_calls(monkeypatch):
    """Every replica-level handler records its call instead of running."""
    calls = []
    for name in ("_on_request", "_on_pre_prepare", "_on_prepare", "_on_commit",
                 "_on_view_change", "_on_new_view"):
        monkeypatch.setattr(PbftReplica, name, recorder(calls, name))
    for name in ("on_checkpoint", "on_transition_vote", "on_announce",
                 "_on_transfer_request_envelope"):
        monkeypatch.setattr(CheckpointManager, name, recorder(calls, name))
    monkeypatch.setattr(RequestManager, "on_envelope", recorder(calls, "requests.on_envelope"))
    return calls


def test_replica_table_reaches_the_handler_the_isinstance_chain_reached(replica_calls):
    harness = ReplicaGroupHarness(
        group_size=4, replica_class=PbftReplica, params=AtumParameters(checkpoint_interval=4)
    )
    replica = harness.actors["replica-1"].replica
    unknown = lambda: harness.sim.metrics.counter("smr.pbft.unknown_frame")
    frames = [blank(cls) for cls in PBFT_FRAMES + CHECKPOINT_FRAMES]
    frames += [CorruptedPayload(frame) for frame in frames[:]] + list(UNKNOWN)
    reached = set()
    for frame in frames:
        legacy_replica_on_message(replica, frame, "replica-0")
        expected = list(replica_calls)
        replica_calls.clear()
        before = unknown()
        replica.on_message(frame, "replica-0")
        assert replica_calls == expected, frame
        # The one deliberate difference: a miss is counted, never silent.
        assert unknown() - before == (0 if expected else 1), frame
        reached.update(name for name, _ in replica_calls)
        replica_calls.clear()
    assert len(reached) == 11
    replica.stop()
    replica.on_message(frames[0], "replica-0")
    assert replica_calls == [] and unknown() == before + (0 if expected else 1)


def legacy_node_on_message(node, payload, sender):
    """``AtumNode.on_message`` as of 3d42a51 (the full ``isinstance`` order),
    minus its first branch: a plain ``Heartbeat`` went to the monitor's
    ``observe``, and is no longer a message event at all (the network keeps
    a tick's send as one burst the receiving monitor reads)."""
    if node.byzantine == "mute":
        return
    if isinstance(payload, CorruptedPayload):
        inner = payload.inner
        if isinstance(inner, GroupMessageEnvelope):
            if node.byzantine not in ("silent", "evict_attack", "rejoin_attack"):
                node.messenger.handle_corrupted(inner, sender)
            return
        node.sim.metrics.increment("net.corrupted_discarded")
        return
    if node.byzantine in ("silent", "evict_attack", "rejoin_attack"):
        return
    if isinstance(payload, SmrEnvelope):
        if node.replica is not None and node.vgroup_view is not None:
            if payload.group_id == node.vgroup_view.group_id:
                inner = payload.payload
                if (
                    node.byzantine in RESPONDER_BEHAVIOURS
                    and isinstance(inner, RequestEnvelope)
                    and inner.kind == "ckpt.transfer"
                ):
                    node._serve_adversarial_transfer(inner, sender)
                    return
                node.replica.on_message(inner, sender)
        return
    if isinstance(payload, GroupMessageEnvelope):
        node.messenger.handle(payload, sender)
        return
    if isinstance(payload, DirectMessage):
        handler = node._direct_handlers.get(payload.kind)
        if handler is not None:
            handler(payload.payload, sender)
        return


@pytest.fixture
def node_calls(monkeypatch):
    """Every sink below ``AtumNode.on_message`` records its call instead of running."""
    calls = []
    monkeypatch.setattr(GroupMessenger, "handle", recorder(calls, "messenger.handle"))
    monkeypatch.setattr(
        GroupMessenger, "handle_corrupted", recorder(calls, "messenger.handle_corrupted")
    )
    monkeypatch.setattr(PbftReplica, "on_message", recorder(calls, "replica.on_message"))
    monkeypatch.setattr(
        AtumNode, "_serve_adversarial_transfer", recorder(calls, "adversarial_transfer")
    )
    return calls


def node_frames(own_group):
    smr_payloads = [blank(cls) for cls in PBFT_FRAMES + CHECKPOINT_FRAMES]
    smr_payloads += [blank(RequestEnvelope, kind="ckpt.transfer"), object()]
    frames = [
        # Never delivered as a message; handed to on_message, it reaches nothing.
        Heartbeat("n1"),
        blank(GroupMessageEnvelope),
        DirectMessage("ping", 1),
        DirectMessage("unregistered", 1),
    ]
    frames += [SmrEnvelope(own_group, inner) for inner in smr_payloads]
    frames += [SmrEnvelope("elsewhere", inner) for inner in smr_payloads[-3:]]
    frames += [CorruptedPayload(frame) for frame in frames[:]]
    frames += [CorruptedPayload(None), CorruptedPayload(CorruptedPayload(Heartbeat("n1")))]
    return frames + list(UNKNOWN)


@pytest.mark.parametrize("heartbeats", [True, False])
def test_node_table_reaches_the_sink_the_isinstance_chain_reached(node_calls, heartbeats):
    params = AtumParameters(
        hc=2, rwl=4, gmin=5, gmax=26, smr_kind=SmrKind.ASYNC, checkpoint_interval=8
    )
    cluster = AtumCluster(params, seed=3, enable_heartbeats=heartbeats)
    cluster.build_static([f"n{i}" for i in range(6)])
    node = cluster.nodes["n0"]
    node.register_direct_handler("ping", lambda payload, sender: node_calls.append(("ping", payload)))
    discarded = lambda: cluster.sim.metrics.counter("net.corrupted_discarded")
    frames = node_frames(node.vgroup_view.group_id)
    behaviours = (None, "mute", "silent", "evict_attack", "rejoin_attack", "equivocate")
    reached = set()

    def compare():
        for behaviour in behaviours + RESPONDER_BEHAVIOURS:
            node.byzantine = behaviour
            for frame in frames:
                before = discarded()
                legacy_node_on_message(node, frame, "n1")
                expected = list(node_calls), discarded() - before
                node_calls.clear()
                before = discarded()
                node.on_message(frame, "n1")
                assert (node_calls, discarded() - before) == expected, (behaviour, frame)
                reached.update(name for name, _ in node_calls)
                node_calls.clear()

    compare()
    assert reached == {
        "messenger.handle", "messenger.handle_corrupted", "replica.on_message",
        "adversarial_transfer", "ping",
    }
    node.clear_membership()  # no replica, no view: SMR frames fall through
    compare()


# ------------------------------------------------------------ statement-once


def legacy_certificate_valid_for(manager, certificate, members):
    """``CheckpointManager._certificate_valid_for`` as of 3d42a51."""
    if not isinstance(certificate, CheckpointCertificate):
        return False
    if certificate.seq < 1:
        return False
    signers = certificate.signers
    if len(set(signers)) != len(signers):
        return False
    if not set(signers) <= set(members):
        return False
    if len(signers) < _quorum_of(members):
        return False
    statement = checkpoint_statement(certificate.epoch, certificate.seq, certificate.state_digest)
    return all(
        manager.replica.registry.verify(signature, statement)
        for signature in certificate.signatures
    )


def checkpointed_harness(decided=4):
    harness = ReplicaGroupHarness(
        group_size=4,
        replica_class=PbftReplica,
        params=AtumParameters(checkpoint_interval=2),
        seed=5,
    )
    for index in range(decided):
        harness.propose("replica-0", "noop", index, op_id=f"op-{index}")
    harness.run(until=10.0)
    return harness


def cm_token_signature(registry, signer, obj):
    """A signature over ``"cm:" + canonical_encode(obj)`` with a valid MAC.

    The digest is not SHA-256 of the statement, so every verifier must
    treat it as forged input.
    """
    digest = "cm:" + canonical_encode(obj)
    return Signature(signer=signer, digest=digest, mac=registry.generate(signer).mac_of(digest))


def signature_variants(registry, epoch, seq, state_digest):
    """``{label: (signer -> Signature)}`` over one checkpoint statement."""
    statement = checkpoint_statement(epoch, seq, state_digest)
    other = checkpoint_statement(epoch, seq + 2, state_digest)
    good = {name: registry.sign(name, statement) for name in registry._keys}
    rotated = dict(zip(good, list(good.values())[1:] + list(good.values())[:1]))
    return {
        "good": good,
        "cm-token": {name: cm_token_signature(registry, name, statement) for name in good},
        "cm-token, wrong statement": {
            name: cm_token_signature(registry, name, other) for name in good
        },
        "wrong statement": {name: registry.sign(name, other) for name in good},
        "wrong signer": {name: replace(sig, signer=name) for name, sig in rotated.items()},
        "bad mac": {name: replace(sig, mac="f" * 64) for name, sig in good.items()},
        "right mac, foreign digest": {
            name: replace(sig, digest="0" * 64) for name, sig in good.items()
        },
        "unknown key": {
            name: Signature(signer="ghost", digest=sig.digest, mac=sig.mac)
            for name, sig in good.items()
        },
    }


@pytest.mark.usefixtures("quiet_announces")
def test_statement_once_accepts_exactly_the_votes_registry_verify_accepts():
    harness = checkpointed_harness()
    replica = harness.actors["replica-3"].replica
    manager, registry = replica.checkpoints, harness.registry
    bad = lambda: harness.sim.metrics.counter("smr.checkpoint.rejected_bad_signature")
    seq, state_digest = 6, "d" * 64
    statement = checkpoint_statement(0, seq, state_digest)
    variants = signature_variants(registry, 0, seq, state_digest)
    accepted = 0
    # Two passes: the second runs every variant against a warm statement memo.
    for label in list(variants) * 2:
        for voter in ("replica-0", "replica-1"):
            signature = variants[label][voter]
            expected = signature.signer == voter and registry.verify(signature, statement)
            before = bad()
            manager.on_checkpoint(
                Checkpoint(0, seq, state_digest, voter, signature), voter
            )
            assert (bad() == before) == expected, (label, voter)
            accepted += expected
    assert accepted == 2 * 2  # "good", both voters, both passes
    assert set(manager._votes[(seq, state_digest)]) == {"replica-0", "replica-1"}
    # One entry per statement, however many signatures were checked.
    assert len([key for key in manager._statement_digests if key[0] == seq]) == 1


def registry_verifies(harness, sign):
    statement = {"walk": "w", "hop": 0}
    return harness.registry.verify(sign("replica-0", statement), statement)


def chain_verifies(harness, sign):
    members = tuple(harness.addresses)
    unsigned = WalkCertificate("w", 0, "G0", members, "G1", ())
    statement = unsigned.statement()
    signed = replace(unsigned, signatures=tuple(sign(name, statement) for name in members))
    return CertificateChain("w", [signed]).verify(harness.registry, origin_group="G0")


def checkpoint_vote_accepted(harness, sign):
    manager = harness.actors["replica-3"].replica.checkpoints
    bad = lambda: harness.sim.metrics.counter("smr.checkpoint.rejected_bad_signature")
    seq, state_digest = 6, "d" * 64
    signature = sign("replica-0", checkpoint_statement(0, seq, state_digest))
    before = bad()
    manager.on_checkpoint(Checkpoint(0, seq, state_digest, "replica-0", signature), "replica-0")
    return bad() == before



def checkpoint_certificate_valid(harness, sign):
    replica = harness.actors["replica-2"].replica
    stable = replica.checkpoints.stable
    statement = checkpoint_statement(stable.epoch, stable.seq, stable.state_digest)
    quorum = list(replica.members)[: _quorum_of(replica.members)]
    certificate = CheckpointCertificate(
        stable.epoch,
        stable.seq,
        stable.state_digest,
        tuple(sign(name, statement) for name in quorum),
    )
    return replica.checkpoints.valid_certificate(certificate)


@pytest.mark.usefixtures("quiet_announces")
@pytest.mark.parametrize(
    "accepts",
    [registry_verifies, chain_verifies, checkpoint_vote_accepted, checkpoint_certificate_valid],
)
def test_a_cm_token_with_a_valid_mac_is_forged_input(accepts):
    harness = checkpointed_harness()
    registry = harness.registry
    assert accepts(harness, registry.sign)
    assert not accepts(harness, lambda name, obj: cm_token_signature(registry, name, obj))


def certificate_variants(registry, epoch, seq, state_digest, members):
    variants = signature_variants(registry, epoch, seq, state_digest)
    quorum = list(members)[: _quorum_of(members)]

    def certificate(signatures):
        return CheckpointCertificate(epoch, seq, state_digest, tuple(signatures))

    cases = {label: certificate(by[name] for name in quorum) for label, by in variants.items()}
    good, cm_token = variants["good"], variants["cm-token"]
    cases["mixed token modes"] = certificate(
        [good[quorum[0]]] + [cm_token[name] for name in quorum[1:]]
    )
    cases["one bad mac among good"] = certificate(
        [variants["bad mac"][quorum[0]]] + [good[name] for name in quorum[1:]]
    )
    cases["duplicate signer"] = certificate([good[quorum[0]]] * len(quorum))
    cases["under quorum"] = certificate(good[name] for name in quorum[:-1])
    cases["every member"] = certificate(good[name] for name in members)
    return cases


@pytest.mark.usefixtures("quiet_announces")
def test_statement_once_validates_exactly_the_certificates_registry_verify_validates():
    harness = checkpointed_harness()
    replica = harness.actors["replica-2"].replica
    manager = replica.checkpoints
    stable = manager.stable
    cases = certificate_variants(
        harness.registry, stable.epoch, stable.seq, stable.state_digest, replica.members
    )
    cases["the replica's own stable certificate"] = stable
    cases["wrong epoch"] = replace(stable, epoch=1)
    cases["no certificate"] = None
    verdicts = {}
    for label in list(cases) * 2:  # second pass: warm memo
        certificate = cases[label]
        expected = (
            certificate is not None
            and certificate.epoch == replica.epoch
            and legacy_certificate_valid_for(manager, certificate, replica.members)
        )
        assert manager.valid_certificate(certificate) == expected, label
        verdicts[label] = expected
    assert {label for label, valid in verdicts.items() if valid} == {
        "good", "every member", "the replica's own stable certificate",
    }


@pytest.mark.usefixtures("quiet_announces")
def test_statement_once_rejects_exactly_the_chains_registry_verify_rejects(monkeypatch):
    harness = checkpointed_harness()
    for actor in harness.actors.values():  # cross one reconfiguration
        actor.replica.reconfigure(harness.addresses, epoch=actor.replica.epoch + 1)
    harness.run(until=harness.sim.now + 5.0)
    replica = harness.actors["replica-1"].replica
    manager = replica.checkpoints
    anchor, chain = manager._serving_chain()
    assert anchor.epoch == 0 and replica.epoch == 1 and len(chain) == 1
    cases = certificate_variants(
        harness.registry, anchor.epoch, anchor.seq, anchor.state_digest, replica.members
    )
    cases["the anchor itself"] = anchor
    errors = {}
    for label in list(cases) * 2:
        certificate = cases[label]
        with monkeypatch.context() as patch:
            patch.setattr(CheckpointManager, "_certificate_valid_for", legacy_certificate_valid_for)
            expected = manager._transition_chain_error(certificate, chain)
        assert manager._transition_chain_error(certificate, chain) == expected, label
        errors[label] = expected
    assert {label for label, error in errors.items() if error is None} == {
        "good", "every member", "the anchor itself",
    }
    assert set(errors.values()) == {None, "bad_certificate"}


# --------------------------------------------------------------------- chain


def single_replica(interval):
    harness = ReplicaGroupHarness(
        group_size=1,
        replica_class=PbftReplica,
        params=AtumParameters(checkpoint_interval=interval),
    )
    return harness.actors["replica-0"].replica


def random_operation(rng, index):
    body = rng.choice([index, f"text-{index}", ("nested", index, (1.5, None)), b"\x00\x01"])
    return Operation(rng.choice(["broadcast", "join", "noop"]), body, f"n{rng.randrange(5)}", f"op-{index}")


@pytest.mark.usefixtures("quiet_announces")
@pytest.mark.parametrize("seed", range(6))
def test_chain_from_scratch_equals_incremental_equals_chained_with(seed):
    rng = random.Random(seed)
    interval = rng.randrange(1, 7)
    replica = single_replica(interval)
    manager = replica.checkpoints
    log = [random_operation(rng, index) for index in range(rng.randrange(8, 40))]
    while len(replica.decided_log) < len(log):
        # The log grows in uneven steps; the cache only ever folds full chunks.
        grown = min(len(log), len(replica.decided_log) + rng.randrange(1, 2 * interval + 2))
        replica.decided_log[:] = log[:grown]
        checkpoint = grown - grown % interval
        assert manager._state_digest_at(checkpoint) == state_digest_of(log[:checkpoint], interval)
        assert manager._chain_count == checkpoint
        # A stray partial tail digests deterministically too, without being cached.
        assert manager._state_digest_at(grown) == state_digest_of(log[:grown], interval)
        assert manager._chain_count == checkpoint
        extra = log[grown : grown + rng.randrange(0, 3 * interval)]
        assert manager._chained_digest_with(extra) == state_digest_of(
            log[:grown] + extra, interval
        )
    assert len({state_digest_of(log[:k], interval) for k in range(len(log) + 1)}) == len(log) + 1


def test_the_chain_binds_operation_contents_not_just_ids():
    operations = [Operation("broadcast", ("body", index), "n0", f"op-{index}") for index in range(6)]
    reference = state_digest_of(operations, 3)
    for index in range(6):
        for change in (dict(body="evil"), dict(proposer="n9"), dict(kind="leave"), dict(op_id="x")):
            tampered = operations[:index] + [replace(operations[index], **change)] + operations[index + 1:]
            assert state_digest_of(tampered, 3) != reference
    assert state_digest_of(operations[1:] + operations[:1], 3) != reference
    assert state_digest_of(operations, 2) != reference  # chunking is part of the value


@pytest.mark.usefixtures("quiet_announces")
def test_forget_log_restarts_the_fold():
    replica = single_replica(2)
    manager = replica.checkpoints
    rng = random.Random(9)
    first = [random_operation(rng, index) for index in range(6)]
    second = [random_operation(rng, index + 100) for index in range(4)]
    replica.decided_log[:] = first
    assert manager._state_digest_at(6) == state_digest_of(first, 2)
    replica.decided_log[:] = second
    assert manager._state_digest_at(4) != state_digest_of(second, 2)  # a stale fold
    manager.forget_log()
    assert manager._state_digest_at(4) == state_digest_of(second, 2)
    assert manager._chained_digest_with(first[:2]) == state_digest_of(second + first[:2], 2)


@pytest.mark.usefixtures("quiet_announces")
def test_a_replaced_body_is_a_digest_mismatch_even_when_the_original_is_memoised():
    harness = ReplicaGroupHarness(
        group_size=4,
        replica_class=PbftReplica,
        params=AtumParameters(checkpoint_interval=2),
        seed=14,
    )
    split = harness.network.split([harness.addresses[:3], harness.addresses[3:]])
    for index in range(4):
        # A mutable body: memoised only because its owner sealed it.
        harness.propose("replica-0", "broadcast", {"payload": index}, op_id=f"op-{index}")
        seal(harness.actors["replica-0"].replica._pending_requests[f"op-{index}"])
    harness.run(until=10.0)
    harness.network.merge(split)
    serving = harness.actors["replica-0"].replica
    lagging = harness.actors["replica-3"].replica
    certificate = serving.checkpoints.stable
    genuine = tuple(serving.decided_log[: certificate.seq])
    assert certificate.seq == 4 and not lagging.decided_log
    mismatch = lambda: harness.sim.metrics.counter("smr.checkpoint.rejected_digest_mismatch")
    for index in range(4):
        forged = replace(genuine[index], body={"payload": "evil"})
        response = StateTransferResponse(
            epoch=0,
            certificate=certificate,
            base_count=0,
            operations=genuine[:index] + (forged,) + genuine[index + 1 :],
        )
        before = mismatch()
        deliver_transfer_response(lagging, response, serving)
        assert mismatch() == before + 1 and not lagging.decided_log
    deliver_transfer_response(
        lagging,
        StateTransferResponse(epoch=0, certificate=certificate, base_count=0, operations=genuine),
        serving,
    )
    assert lagging.decided_log == list(genuine)
