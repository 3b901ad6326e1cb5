"""Tests for the synchronous (Dolev-Strong) SMR engine."""

from dataclasses import replace

import pytest

from repro.core.config import AtumParameters
from repro.smr import ReplicaGroupHarness, SyncSmrReplica
from repro.smr.base import sync_fault_threshold


class TestFaultThreshold:
    @pytest.mark.parametrize(
        "size,expected", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (7, 3), (20, 9)]
    )
    def test_sync_threshold(self, size, expected):
        assert sync_fault_threshold(size) == expected


class TestSingleGroupAgreement:
    def test_single_replica_group_decides(self):
        harness = ReplicaGroupHarness(group_size=1, replica_class=SyncSmrReplica)
        op = harness.propose("replica-0", "noop", {"x": 1})
        harness.run(until=10.0)
        assert harness.all_correct_decided(op.op_id)

    def test_all_replicas_decide_same_operation(self):
        harness = ReplicaGroupHarness(
            group_size=4, replica_class=SyncSmrReplica, params=AtumParameters(round_duration=0.5)
        )
        op = harness.propose("replica-0", "broadcast", "hello")
        harness.run(until=20.0)
        assert harness.all_correct_decided(op.op_id)

    def test_decision_latency_is_f_plus_one_rounds(self):
        round_duration = 1.0
        harness = ReplicaGroupHarness(
            group_size=7,
            replica_class=SyncSmrReplica,
            params=AtumParameters(round_duration=round_duration),
        )
        op = harness.propose("replica-0", "broadcast", "payload")
        harness.run(until=30.0)
        latency = harness.decision_latency(op.op_id)
        f = sync_fault_threshold(7)
        # The proposal waits for the next round boundary, then runs f+1 rounds.
        assert latency <= (f + 3) * round_duration
        assert latency >= (f + 1) * round_duration

    def test_multiple_proposers_all_decide_everywhere(self):
        harness = ReplicaGroupHarness(
            group_size=5, replica_class=SyncSmrReplica, params=AtumParameters(round_duration=0.5)
        )
        ops = [
            harness.propose(f"replica-{i}", "broadcast", f"payload-{i}") for i in range(5)
        ]
        harness.run(until=30.0)
        for op in ops:
            assert harness.all_correct_decided(op.op_id)

    def test_logs_contain_same_operations(self):
        harness = ReplicaGroupHarness(
            group_size=4, replica_class=SyncSmrReplica, params=AtumParameters(round_duration=0.5)
        )
        for i in range(3):
            harness.propose("replica-1", "op", i, op_id=f"op-{i}")
        harness.run(until=30.0)
        logs = harness.decided_logs()
        assert all(set(log) == set(logs[0]) for log in logs)
        assert set(logs[0]) == {"op-0", "op-1", "op-2"}

    def test_silent_byzantine_minority_does_not_block(self):
        harness = ReplicaGroupHarness(
            group_size=5,
            replica_class=SyncSmrReplica,
            params=AtumParameters(round_duration=0.5),
            silent_byzantine=["replica-3", "replica-4"],
        )
        op = harness.propose("replica-0", "broadcast", "x")
        harness.run(until=30.0)
        assert harness.all_correct_decided(op.op_id)

    def test_logs_identical_order(self):
        harness = ReplicaGroupHarness(
            group_size=4, replica_class=SyncSmrReplica, params=AtumParameters(round_duration=0.5)
        )
        harness.propose("replica-0", "op", "a", op_id="a")
        harness.propose("replica-2", "op", "b", op_id="b")
        harness.run(until=30.0)
        logs = harness.decided_logs()
        assert all(log == logs[0] for log in logs)


class TestSignatureChains:
    def test_a_tampered_mac_is_rejected_after_the_genuine_chain_verified(self):
        harness = ReplicaGroupHarness(
            group_size=4, replica_class=SyncSmrReplica, params=AtumParameters(round_duration=0.5)
        )
        actor = harness.actors["replica-3"]
        relays = []
        receive = actor.on_message
        actor.on_message = lambda payload, sender: (
            relays.append((payload, sender)) or receive(payload, sender)
        )
        op = harness.propose("replica-0", "broadcast", {"x": 1})
        harness.run(until=20.0)
        assert harness.all_correct_decided(op.op_id)
        message, sender = next(
            (payload, sender) for payload, sender in relays if payload.chain_length == 2
        )
        replica = actor.replica
        invalid = lambda: harness.sim.metrics.counter("smr.sync.invalid_chain")
        assert invalid() == 0
        # The genuine chain verifies, in this process, with every MAC cached...
        assert replica._valid_signature_chain(message)
        first, second = message.signatures
        for forged in (
            replace(second, mac="0" * 64),
            replace(second, mac=first.mac),  # a genuine MAC, of another signer
        ):
            tampered = replace(message, signatures=(first, forged))
            # ...and a copy with one tampered MAC is still rejected and counted.
            replica.on_message(tampered, sender)
            assert not replica._valid_signature_chain(tampered)
        assert invalid() == 2
