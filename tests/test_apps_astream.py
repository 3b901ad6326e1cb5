"""Tests for AStream, the two-tier streaming system."""

import pytest

from repro.apps.astream import AStreamSession, StreamChunk
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind


def small_params(kind=SmrKind.SYNC):
    return AtumParameters(hc=3, rwl=5, gmax=6, gmin=3, smr_kind=kind, round_duration=0.5)


def make_session(n=20, byzantine=(), policy="single", seed=0, kind=SmrKind.SYNC):
    atum = AtumCluster(small_params(kind), seed=seed)
    addresses = [f"n{i}" for i in range(n)]
    atum.build_static(addresses, byzantine=byzantine)
    session = AStreamSession(
        atum,
        source="n0",
        forward_policy=policy,
        chunk_bytes=250_000,
        rate_bytes_per_s=1_000_000,
        pull_timeout=1.0,
    )
    return atum, session, addresses


class TestForestConstruction:
    def test_every_member_has_at_least_one_parent(self):
        atum, session, addresses = make_session()
        for address in addresses:
            if address == "n0":
                continue
            state = session.states.get(address)
            assert state is not None and len(state.parents) >= 1

    def test_source_neighbors_use_source_as_parent(self):
        atum, session, addresses = make_session()
        source_group = atum.engine.node_group["n0"]
        for member in atum.engine.groups[source_group].members:
            if member == "n0":
                continue
            assert session.states[member].parents == ["n0"]

    def test_children_lists_are_consistent_with_parents(self):
        atum, session, addresses = make_session()
        for address, state in session.states.items():
            for parent in state.parents:
                assert address in session.states[parent].children

    def test_source_must_be_member(self):
        atum = AtumCluster(small_params())
        atum.build_static([f"n{i}" for i in range(10)])
        outsider = atum.add_node("outsider")
        with pytest.raises(RuntimeError):
            AStreamSession(atum, source="outsider")


class TestStreaming:
    def test_all_nodes_receive_all_chunks(self):
        atum, session, addresses = make_session(n=20)
        count = session.stream(duration_s=1.0)
        atum.run(until=60.0)
        for index in range(count):
            assert session.delivery_fraction(index) == 1.0

    def test_tier2_latency_is_sub_second_scale(self):
        atum, session, addresses = make_session(n=20)
        session.stream(duration_s=1.0)
        atum.run(until=60.0)
        latencies = session.tier2_latencies()
        assert latencies
        # Figure 12: second-tier latencies are hundreds of milliseconds.
        assert sorted(latencies)[len(latencies) // 2] < 2.0

    def test_chunk_digest_is_stable(self):
        chunk_a = StreamChunk("s", 0, 1000, 0.0)
        chunk_b = StreamChunk("s", 0, 1000, 5.0)  # creation time not part of digest
        assert chunk_a.digest == chunk_b.digest

    def test_double_cycle_policy_not_slower_than_single(self):
        def median_latency(policy, seed):
            atum, session, _ = make_session(n=20, policy=policy, seed=seed)
            session.stream(duration_s=1.0)
            atum.run(until=60.0)
            samples = sorted(session.tier2_latencies())
            return samples[len(samples) // 2]

        single = median_latency("single", seed=2)
        double = median_latency("double", seed=2)
        assert double <= single * 1.5

    def test_byzantine_parents_do_not_block_delivery(self):
        # Byzantine nodes never push stream data; children fall back to their
        # other parents (at least one is correct) or pull after the timeout.
        atum, session, addresses = make_session(n=24, byzantine=["n3", "n7"], seed=5)
        count = session.stream(duration_s=0.5)
        atum.run(until=120.0)
        for index in range(count):
            assert session.delivery_fraction(index) == 1.0

    def test_pull_fallback_counts_when_parents_fail(self):
        atum, session, addresses = make_session(n=24, byzantine=["n3", "n7", "n9"], seed=6)
        session.stream(duration_s=0.5)
        atum.run(until=120.0)
        # Pulls may or may not be needed depending on topology, but the
        # mechanism must never deliver an invalid chunk.
        assert atum.sim.metrics.counter("astream.invalid_chunks") == 0

    def test_pull_fallback_recovers_chunks_whose_pushes_were_lost(self):
        # Every push to one node in a chunk's first 0.5 s is lost, so the
        # node learns each chunk only through its tier-one digest and must
        # pull it from a parent after the timeout.
        from repro.core.middleware import Middleware, MiddlewareChain
        from repro.core.node import DirectMessage

        class DropEarlyPushes(Middleware):
            def on_send(self, ctx):
                message = ctx.payload
                if (
                    ctx.receiver == "n5"
                    and isinstance(message, DirectMessage)
                    and message.kind == "astream.push"
                    and ctx.now - message.payload["chunk"].created_at < 0.5
                ):
                    ctx.drop = True

        atum, session, addresses = make_session()
        atum.install_middleware(MiddlewareChain(DropEarlyPushes()))
        count = session.stream(duration_s=2.0)
        atum.run(until=120.0)
        assert count == 8
        assert atum.sim.metrics.counter("astream.pulls") > 0
        assert session.states["n5"].pulls_issued == count
        for index in range(count):
            assert session.delivery_fraction(index) == 1.0

    def test_no_pull_is_issued_when_every_push_arrives(self):
        atum, session, addresses = make_session(n=20)
        count = session.stream(duration_s=1.0)
        atum.run(until=60.0)
        assert all(session.delivery_fraction(index) == 1.0 for index in range(count))
        assert atum.sim.metrics.counter("astream.pulls") == 0
        assert all(state.pulls_issued == 0 for state in session.states.values())

    def test_a_pull_is_answered_only_by_a_correct_parent_holding_the_chunk(self):
        atum, session, addresses = make_session(n=24, byzantine=["n3"], seed=5)
        count = session.stream(duration_s=0.5)
        atum.run(until=60.0)
        answers = []
        for address in ("n0", "n3"):
            node = atum.nodes[address]
            node.send_direct = lambda to, kind, payload, size_bytes, a=address: answers.append(
                (a, to, kind, payload["chunk"].index)
            )
        # A correct holder answers with the chunk ...
        session._on_pull("n0", {"index": 0}, "n5")
        assert answers == [("n0", "n5", "astream.push", 0)]
        # ... but not for a chunk it never received,
        session._on_pull("n0", {"index": count + 10}, "n5")
        # and a Byzantine node never answers, even holding the chunk.
        session.states["n3"].received_chunks[0] = atum.sim.now
        session._on_pull("n3", {"index": 0}, "n5")
        assert answers == [("n0", "n5", "astream.push", 0)]

    def test_a_repeated_push_is_accepted_once(self):
        atum, session, addresses = make_session(n=20)
        count = session.stream(duration_s=0.5)
        atum.run(until=60.0)
        received = dict(session.states["n5"].received_chunks)
        latencies = len(session.tier2_latencies())
        for index in range(count):
            session._on_push("n5", {"chunk": session.chunks[index]})
        assert session.states["n5"].received_chunks == received
        assert len(session.tier2_latencies()) == latencies


class TestChunkIntegrity:
    """A chunk must match the digest its node learnt through tier one."""

    def starved_session(self):
        # Every push to n5 is lost, pull replies included: n5 ends the run
        # knowing every chunk's certified digest and holding no chunk.
        from repro.core.middleware import Middleware, MiddlewareChain
        from repro.core.node import DirectMessage

        class DropPushesToN5(Middleware):
            def on_send(self, ctx):
                message = ctx.payload
                if (
                    ctx.receiver == "n5"
                    and isinstance(message, DirectMessage)
                    and message.kind == "astream.push"
                ):
                    ctx.drop = True

        atum, session, addresses = make_session()
        atum.install_middleware(MiddlewareChain(DropPushesToN5()))
        count = session.stream(duration_s=1.0)
        atum.run(until=60.0)
        state = session.states["n5"]
        assert sorted(state.known_digests) == list(range(count))
        assert state.received_chunks == {}
        return atum, session, count

    def test_forged_chunks_always_reject_and_genuine_ones_still_land(self):
        import random

        atum, session, count = self.starved_session()
        state = session.states["n5"]
        rng = random.Random(0x57)
        for case in range(40):
            genuine = session.chunks[rng.randrange(count)]
            if rng.random() < 0.5:  # same slot, different content
                size = genuine.size_bytes + rng.randrange(1, 10_000)
                forged = StreamChunk(genuine.stream_id, genuine.index, size, genuine.created_at)
            else:  # another stream's chunk under the same index
                forged = StreamChunk(
                    f"stream-{rng.getrandbits(32):x}",
                    genuine.index,
                    genuine.size_bytes,
                    genuine.created_at,
                )
            before = atum.sim.metrics.counter("astream.invalid_chunks")
            session._on_push("n5", {"chunk": forged})
            assert atum.sim.metrics.counter("astream.invalid_chunks") == before + 1, case
            assert state.received_chunks == {}, case
        for index in range(count):
            session._on_push("n5", {"chunk": session.chunks[index]})
        assert sorted(state.received_chunks) == list(range(count))
        assert atum.sim.metrics.counter("astream.invalid_chunks") == 40

    def test_a_push_without_a_chunk_is_ignored(self):
        atum, session, count = self.starved_session()
        for payload in ({}, {"chunk": None}, {"chunk": {"index": 0}}):
            session._on_push("n5", payload)
        assert session.states["n5"].received_chunks == {}
        assert atum.sim.metrics.counter("astream.invalid_chunks") == 0

    def test_a_starved_node_pulls_every_chunk(self):
        atum, session, count = self.starved_session()
        assert session.states["n5"].pulls_issued == count
        assert atum.sim.metrics.counter("astream.pulls") == count
