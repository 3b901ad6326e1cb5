"""Tests for random walks, the Figure 4 guideline machinery and gossip policies."""

import random
from collections import Counter

import pytest

from repro.overlay.gossip import (
    dissemination_rounds,
    forward_cycles,
    forward_targets,
    stable_hash,
)
from repro.overlay.guideline import (
    is_uniform,
    optimal_walk_length,
    recommended_config,
    uniformity_pvalue,
)
from repro.overlay.hgraph import HGraph
from repro.overlay.random_walk import BulkRng, WalkMode, structural_walk, walk_end


def build_graph(n=32, hc=4, seed=0):
    rng = random.Random(seed)
    return HGraph.random([f"g{i}" for i in range(n)], hc, rng), rng


class TestBulkRng:
    def test_generate_length(self):
        bulk = BulkRng.generate(7, random.Random(0))
        assert len(bulk.values) == 7
        assert all(0.0 <= value < 1.0 for value in bulk.values)

    def test_each_hop_takes_the_link_its_number_names(self):
        graph, _ = build_graph(n=16, hc=3)
        bulk = BulkRng.generate(5, random.Random(0))
        current, expected = "g0", []
        for number in bulk.values:
            links = graph.incident_links(current)
            current = links[int(number * len(links)) % len(links)][1]
            expected.append(current)
        assert structural_walk(graph, "g0", 5, random.Random(1), bulk=bulk).path == expected

    def test_a_bulk_shorter_than_the_walk_raises(self):
        graph, rng = build_graph()
        with pytest.raises(IndexError):
            structural_walk(graph, "g0", 3, rng, bulk=BulkRng.generate(2, random.Random(0)))

    def test_the_ends_of_the_unit_interval_take_the_first_and_last_link(self):
        graph, _ = build_graph(n=16, hc=3)
        links = graph.incident_links("g0")
        assert walk_end(graph, "g0", [0.0]) == links[0][1]
        assert walk_end(graph, "g0", [1.0 - 2.0**-53]) == links[-1][1]

    def test_same_bulk_same_walk(self):
        graph, rng = build_graph()
        bulk = BulkRng.generate(6, random.Random(42))
        walk_a = structural_walk(graph, "g0", 6, random.Random(1), bulk=bulk)
        walk_b = structural_walk(graph, "g0", 6, random.Random(2), bulk=bulk)
        assert walk_a.path == walk_b.path


class TestStructuralWalk:
    def test_walk_length(self):
        graph, rng = build_graph()
        outcome = structural_walk(graph, "g0", 9, rng)
        assert outcome.hops == 9
        assert len(outcome.path) == 9
        assert outcome.selected in graph.vertices

    def test_walk_visits_neighbors_only(self):
        graph, rng = build_graph(n=16, hc=2)
        outcome = structural_walk(graph, "g0", 12, rng)
        current = "g0"
        for step in outcome.path:
            assert step in graph.neighbors(current) or step == current
            current = step

    def test_zero_length_rejected(self):
        graph, rng = build_graph()
        with pytest.raises(ValueError):
            structural_walk(graph, "g0", 0, rng)

    def test_backward_phase_doubles_reply_hops(self):
        graph, rng = build_graph()
        backward = structural_walk(graph, "g0", 8, rng, mode=WalkMode.BACKWARD_PHASE)
        certificates = structural_walk(graph, "g0", 8, rng, mode=WalkMode.CERTIFICATES)
        assert backward.reply_hops == 8
        assert certificates.reply_hops == 1

    def test_long_walks_spread_over_the_graph(self):
        graph, rng = build_graph(n=16, hc=4, seed=3)
        endpoints = Counter(structural_walk(graph, "g0", 10, rng).selected for _ in range(400))
        # Every vertex should be reachable and no vertex should dominate.
        assert len(endpoints) >= 14
        assert max(endpoints.values()) < 400 * 0.25


class TestGuideline:
    def test_uniformity_pvalue_high_for_long_walks(self):
        rng = random.Random(0)
        pvalue = uniformity_pvalue(num_groups=16, hc=4, rwl=12, rng=rng, samples_per_group=40)
        assert pvalue > 0.01

    def test_uniformity_fails_for_one_hop_walks(self):
        rng = random.Random(0)
        # A single hop can only reach direct neighbours: wildly non-uniform.
        pvalue = uniformity_pvalue(num_groups=32, hc=3, rwl=1, rng=rng, samples_per_group=30)
        assert pvalue < 0.01

    def test_is_uniform_consistent_with_pvalue(self):
        rng = random.Random(1)
        assert is_uniform(16, 4, 12, rng, samples_per_group=40, trials=3)
        assert not is_uniform(32, 3, 1, rng, samples_per_group=30, trials=3)

    def test_optimal_walk_length_monotone_in_system_size(self):
        rng = random.Random(2)
        small = optimal_walk_length(8, 4, rng, samples_per_group=40, trials=1)
        large = optimal_walk_length(64, 4, rng, samples_per_group=20, trials=1)
        assert small <= large

    def test_recommended_config_matches_paper_examples(self):
        # Section 3.2: roughly 128 vgroups -> rwl 9 with hc 6.
        config = recommended_config(128)
        assert config.hc == 6 and config.rwl == 9
        # Larger systems need longer walks.
        assert recommended_config(8192).rwl > recommended_config(8).rwl


def targets_of(graph, vertex, policy, message_id="m"):
    """The forward targets of ``vertex``, as the node computes them."""
    cycles = forward_cycles(policy, message_id, graph.hc)
    return forward_targets(graph.cycle_pairs(vertex), cycles, vertex)


class TestGossipPolicies:
    def test_flood_reaches_everyone_in_few_rounds(self):
        graph, _ = build_graph(n=64, hc=4)
        rounds, reached = dissemination_rounds(graph, "g0", "flood")
        assert reached == graph.vertices
        assert rounds <= 8

    def test_single_cycle_reaches_everyone_slower(self):
        graph, _ = build_graph(n=32, hc=4)
        flood_rounds, _ = dissemination_rounds(graph, "g0", "flood")
        single_rounds, reached = dissemination_rounds(graph, "g0", "single")
        assert reached == graph.vertices
        assert single_rounds >= flood_rounds

    def test_double_cycle_between_single_and_flood(self):
        graph, _ = build_graph(n=64, hc=6, seed=9)
        flood_rounds, _ = dissemination_rounds(graph, "g0", "flood", message_id="m1")
        single_rounds, _ = dissemination_rounds(graph, "g0", "single", message_id="m1")
        double_rounds, reached = dissemination_rounds(graph, "g0", "double", message_id="m1")
        assert reached == graph.vertices
        assert flood_rounds <= double_rounds <= single_rounds

    def test_random_policy_reaches_everyone(self):
        # Section 3.2: whatever the id-derived extra cycle is, cycle 0 is
        # always forwarded on, so the message traverses it whole.
        graph, _ = build_graph(n=64, hc=4, seed=11)
        for message_id in ("m", "bc-n1-1", "bc-n2-9"):
            _, reached = dissemination_rounds(graph, "g0", "random", message_id=message_id)
            assert reached == graph.vertices

    def test_policies_never_return_self(self):
        graph, _ = build_graph(n=16, hc=3)
        for policy in ("flood", "single", "double", "random"):
            assert "g5" not in targets_of(graph, "g5", policy, "msg")

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown forward policy"):
            forward_cycles("sideways", "m", 3)


class TestPolicyDeterminism:
    """Selections are a pure function of (policy, message id, hc)."""

    def test_random_policy_always_contains_the_guaranteed_cycle(self):
        graph, _ = build_graph(n=32, hc=3, seed=5)
        for i in range(32):
            vertex = f"g{i}"
            assert forward_cycles("random", f"m{i}", graph.hc)[0] == 0
            pred, succ = graph.cycle_pairs(vertex)[0]
            targets = targets_of(graph, vertex, "random", f"m{i}")
            for neighbor in {pred, succ} - {vertex}:
                assert neighbor in targets

    def test_every_vertex_picks_the_same_cycles_for_one_message(self):
        # What keeps a group message aggregating: co-members (and every other
        # vgroup) derive the cycles from the message id alone.
        graph, _ = build_graph(n=24, hc=5, seed=13)
        cycles = forward_cycles("double", "stream-42", graph.hc)
        start = stable_hash("stream-42") % graph.hc
        assert cycles == [start, (start + 1) % graph.hc]
        for vertex in ("g3", "g7", "g19"):
            expected = []
            for cycle in cycles:
                for neighbor in graph.cycle_pairs(vertex)[cycle]:
                    if neighbor != vertex and neighbor not in expected:
                        expected.append(neighbor)
            assert targets_of(graph, vertex, "double", "stream-42") == expected

    def test_stable_hash_spreads_similar_ids(self):
        # A sum(ord(ch)) derivation maps permuted ids ("gm-12"/"gm-21") to
        # the same cycle; the stable hash spreads them.
        ids = [f"gm-{a}{b}" for a in "0123456789" for b in "0123456789"]
        assert {stable_hash(mid) % 6 for mid in ids} == set(range(6))
        assert sum(ord(c) for c in "gm-12") == sum(ord(c) for c in "gm-21")
        assert stable_hash("gm-12") != stable_hash("gm-21")

    def test_targets_refresh_after_topology_change(self):
        graph, _ = build_graph(n=16, hc=3, seed=11)
        before = targets_of(graph, "g2", "single")
        victim = before[0]
        graph.remove(victim)
        assert victim not in targets_of(graph, "g2", "single")

    def test_stable_hash_is_four_bytes_of_sha256(self):
        import hashlib

        expected = int.from_bytes(hashlib.sha256(b"abc").digest()[:4], "big")
        assert stable_hash("abc") == stable_hash("abc") == expected
