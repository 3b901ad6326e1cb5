"""Tests for the H-graph overlay structure, including hypothesis property tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.hgraph import HGraph, HGraphError


def eccentricity(graph, start):
    """Breadth-first depth from ``start`` to the farthest vertex."""
    frontier, seen, depth = {start}, {start}, 0
    while len(seen) < len(graph):
        frontier = {n for v in frontier for n in graph.neighbors(v)} - seen
        seen |= frontier
        depth += 1
    return depth


class TestConstruction:
    def test_bootstrap_single_vertex_self_loops(self):
        graph = HGraph.bootstrap("v0", cycles=3)
        assert graph.vertices == {"v0"}
        for cycle in range(3):
            assert graph.successor("v0", cycle) == "v0"
            assert graph.predecessor("v0", cycle) == "v0"
        graph.validate()

    def test_random_graph_is_valid(self):
        rng = random.Random(1)
        vertices = [f"v{i}" for i in range(20)]
        graph = HGraph.random(vertices, cycles=4, rng=rng)
        graph.validate()
        assert graph.vertices == set(vertices)

    def test_random_graph_empty_vertices_rejected(self):
        with pytest.raises(HGraphError):
            HGraph.random([], cycles=2, rng=random.Random(0))

    def test_zero_cycles_rejected(self):
        with pytest.raises(HGraphError):
            HGraph(0)


class TestStructure:
    def test_constant_degree(self):
        rng = random.Random(2)
        graph = HGraph.random([f"v{i}" for i in range(30)], cycles=5, rng=rng)
        for vertex in graph.vertices:
            assert len(graph.incident_links(vertex)) == 2 * 5

    def test_neighbors_excludes_self(self):
        graph = HGraph.bootstrap("v0", cycles=2)
        assert graph.neighbors("v0") == set()

    def test_neighbors_bounded_by_two_per_cycle(self):
        rng = random.Random(3)
        graph = HGraph.random([f"v{i}" for i in range(40)], cycles=3, rng=rng)
        for vertex in graph.vertices:
            assert len(graph.neighbors(vertex)) <= 2 * 3

    def test_diameter_is_logarithmic(self):
        rng = random.Random(4)
        graph = HGraph.random([f"v{i}" for i in range(256)], cycles=4, rng=rng)
        # 256 vertices with 4 cycles: the diameter should be far below N.
        assert eccentricity(graph, min(graph.vertices)) <= 10

    def test_unknown_vertex_raises(self):
        graph = HGraph.bootstrap("v0", cycles=2)
        with pytest.raises(HGraphError):
            graph.neighbors("ghost")


class TestMutations:
    def test_insert_after_preserves_cycles(self):
        rng = random.Random(5)
        graph = HGraph.random([f"v{i}" for i in range(8)], cycles=3, rng=rng)
        graph.insert_vertex("new", ["v0", "v1", "v2"])
        graph.validate()
        assert "new" in graph
        assert graph.successor("v0", 0) == "new"

    def test_insert_wrong_arity_rejected(self):
        graph = HGraph.bootstrap("v0", cycles=3)
        with pytest.raises(HGraphError):
            graph.insert_vertex("new", ["v0"])

    def test_insert_duplicate_rejected(self):
        graph = HGraph.bootstrap("v0", cycles=1)
        graph.insert_vertex("a", ["v0"])
        with pytest.raises(HGraphError):
            graph.insert_vertex("a", ["v0"])

    def test_remove_closes_gaps(self):
        rng = random.Random(6)
        graph = HGraph.random([f"v{i}" for i in range(10)], cycles=2, rng=rng)
        predecessors = {c: graph.predecessor("v3", c) for c in range(2)}
        successors = {c: graph.successor("v3", c) for c in range(2)}
        graph.remove("v3")
        graph.validate()
        assert "v3" not in graph
        for cycle in range(2):
            # Predecessor and successor of the removed vertex become neighbours,
            # unless the removed vertex sat between them already (tiny cycles).
            assert graph.successor(predecessors[cycle], cycle) == successors[cycle]

    def test_cannot_remove_last_vertex(self):
        graph = HGraph.bootstrap("v0", cycles=2)
        with pytest.raises(HGraphError):
            graph.remove("v0")

    def test_growth_from_bootstrap(self):
        graph = HGraph.bootstrap("g0", cycles=3)
        for index in range(1, 12):
            existing = sorted(graph.vertices)
            rng = random.Random(index)
            insertion_points = [rng.choice(existing) for _ in range(3)]
            graph.insert_vertex(f"g{index}", insertion_points)
        graph.validate()
        assert len(graph) == 12


@settings(max_examples=30, deadline=None)
@given(
    n_vertices=st.integers(min_value=2, max_value=40),
    cycles=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
    mutations=st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
)
def test_property_random_mutations_keep_hamiltonian_invariant(n_vertices, cycles, seed, mutations):
    """Random insert/remove sequences keep every cycle Hamiltonian."""
    rng = random.Random(seed)
    vertices = [f"v{i}" for i in range(n_vertices)]
    graph = HGraph.random(vertices, cycles, rng)
    counter = n_vertices
    for choice in mutations:
        if choice % 2 == 0 or len(graph) <= 2:
            # Insert a new vertex at pseudo-random positions.
            existing = sorted(graph.vertices)
            insertion_points = [existing[(choice + c) % len(existing)] for c in range(cycles)]
            graph.insert_vertex(f"v{counter}", insertion_points)
            counter += 1
        else:
            victim = sorted(graph.vertices)[choice % len(graph)]
            graph.remove(victim)
        graph.validate()


@settings(max_examples=20, deadline=None)
@given(
    n_vertices=st.integers(min_value=2, max_value=60),
    cycles=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_every_vertex_has_degree_2hc(n_vertices, cycles, seed):
    rng = random.Random(seed)
    graph = HGraph.random([f"v{i}" for i in range(n_vertices)], cycles, rng)
    for vertex in graph.vertices:
        assert len(graph.incident_links(vertex)) == 2 * cycles


class TestNeighborTableCache:
    """The per-vertex neighbour tables must never serve stale topology."""

    def build(self, n=16, hc=3, seed=7):
        return HGraph.random([f"v{i}" for i in range(n)], hc, random.Random(seed))

    def expected_tables(self, graph, vertex):
        pairs = tuple(
            (graph.predecessor(vertex, c), graph.successor(vertex, c))
            for c in range(graph.hc)
        )
        links = tuple(
            link
            for c in range(graph.hc)
            for link in ((c, graph.successor(vertex, c)), (c, graph.predecessor(vertex, c)))
        )
        return pairs, links

    def assert_tables_fresh(self, graph, vertex):
        pairs, links = self.expected_tables(graph, vertex)
        assert graph.cycle_pairs(vertex) == pairs
        assert graph.incident_links(vertex) == links
        assert graph.neighbors(vertex) == {n for _, n in links} - {vertex}

    def test_tables_match_direct_queries(self):
        graph = self.build()
        for vertex in graph.vertices:
            self.assert_tables_fresh(graph, vertex)

    def test_insert_after_invalidates_affected_vertices(self):
        graph = self.build()
        anchor = "v0"
        old_successor = graph.successor(anchor, 1)
        # Warm every cache, then splice a new vertex into cycle 1.
        for vertex in graph.vertices:
            graph.cycle_pairs(vertex)
        version = graph.topology_version
        graph.insert_after("fresh", anchor, 1)
        assert graph.topology_version == version + 1
        assert graph.successor(anchor, 1) == "fresh"
        assert graph.predecessor("fresh", 1) == anchor
        assert graph.successor("fresh", 1) == old_successor
        # The spliced-around vertices serve fresh tables ("fresh" itself is
        # only on cycle 1 until the remaining insert_after calls land, so its
        # full table is not yet well defined).
        for vertex in (anchor, old_successor):
            self.assert_tables_fresh(graph, vertex)

    def test_remove_invalidates_ring_neighbours(self):
        graph = self.build()
        victim = "v5"
        ring = {victim}
        for cycle in range(graph.hc):
            ring.add(graph.predecessor(victim, cycle))
            ring.add(graph.successor(victim, cycle))
        for vertex in graph.vertices:
            graph.incident_links(vertex)
        graph.remove(victim)
        assert victim not in graph
        with pytest.raises(HGraphError):
            graph.cycle_pairs(victim)
        for vertex in ring - {victim}:
            self.assert_tables_fresh(graph, vertex)
        graph.validate()

    def test_split_style_insert_vertex_invalidates_every_cycle(self):
        """insert_vertex (the split path) must refresh all insertion points."""
        graph = self.build(n=12, hc=4)
        anchors = [graph.predecessor("v3", cycle) for cycle in range(graph.hc)]
        for vertex in graph.vertices:
            graph.cycle_pairs(vertex)
        graph.insert_vertex("split-born", anchors)
        graph.validate()
        self.assert_tables_fresh(graph, "split-born")
        for anchor in set(anchors):
            self.assert_tables_fresh(graph, anchor)
