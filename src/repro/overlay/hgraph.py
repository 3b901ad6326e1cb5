"""The H-graph overlay: a constant number of random Hamiltonian cycles.

An H-graph [Law & Siu, INFOCOM 2003] is a multigraph whose edge set is the
union of ``hc`` Hamiltonian cycles over the same vertex set.  Every vertex has
exactly two neighbours per cycle (its predecessor and successor), so the graph
is sparse (constant degree ``2 * hc``), well connected, and has logarithmic
diameter with high probability -- the properties Atum relies on for scalable
gossip and uniform random-walk sampling.

Vertices of Atum's H-graph are vgroups (identified by their group id).  The
structure supports the three mutations the membership protocols need:

* :meth:`HGraph.insert_after` -- splice a new vertex into a cycle between a
  chosen vertex and its successor (used when a vgroup splits);
* :meth:`HGraph.remove` -- remove a vertex from every cycle, reconnecting its
  predecessor and successor (used when vgroups merge);
* :meth:`HGraph.bootstrap` -- the single-vertex graph where the vertex is its
  own neighbour on every cycle (the state after ``bootstrap()``).

Neighbour queries are on the per-hop hot path of gossip and random walks, so
the graph maintains a lazily built **per-vertex neighbour table** (cycle
pairs and incident links).  Mutations invalidate only the affected vertices
and bump :attr:`HGraph.topology_version`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple


class HGraphError(ValueError):
    """Raised on invalid H-graph mutations (unknown vertices, bad cycles)."""


class _VertexTable:
    """Cached neighbour views of one vertex (invalidated on topology change)."""

    __slots__ = ("pairs", "links")

    def __init__(
        self,
        pairs: Tuple[Tuple[str, str], ...],
        links: Tuple[Tuple[int, str], ...],
    ) -> None:
        self.pairs = pairs
        self.links = links


class HGraph:
    """A multigraph made of ``hc`` Hamiltonian cycles over a common vertex set."""

    def __init__(self, cycles: int) -> None:
        if cycles < 1:
            raise HGraphError("an H-graph needs at least one cycle")
        self.hc = cycles
        # Per cycle: successor and predecessor maps.
        self._succ: List[Dict[str, str]] = [dict() for _ in range(cycles)]
        self._pred: List[Dict[str, str]] = [dict() for _ in range(cycles)]
        self._vertices: Set[str] = set()
        self._tables: Dict[str, _VertexTable] = {}
        self._version = 0

    # ------------------------------------------------------------- construction

    @classmethod
    def bootstrap(cls, vertex: str, cycles: int) -> "HGraph":
        """The initial overlay: one vertex, neighbour to itself on every cycle."""
        graph = cls(cycles)
        graph._vertices.add(vertex)
        for cycle in range(cycles):
            graph._succ[cycle][vertex] = vertex
            graph._pred[cycle][vertex] = vertex
        return graph

    @classmethod
    def random(cls, vertices: Sequence[str], cycles: int, rng: random.Random) -> "HGraph":
        """Build an H-graph from independent random permutations of ``vertices``."""
        if not vertices:
            raise HGraphError("cannot build an H-graph over an empty vertex set")
        graph = cls(cycles)
        graph._vertices = set(vertices)
        for cycle in range(cycles):
            order = list(vertices)
            rng.shuffle(order)
            for index, vertex in enumerate(order):
                successor = order[(index + 1) % len(order)]
                graph._succ[cycle][vertex] = successor
                graph._pred[cycle][successor] = vertex
        return graph

    # ------------------------------------------------------------------ queries

    @property
    def vertices(self) -> Set[str]:
        return set(self._vertices)

    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped by every mutation."""
        return self._version

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def successor(self, vertex: str, cycle: int) -> str:
        self._check_vertex(vertex)
        return self._succ[cycle][vertex]

    def predecessor(self, vertex: str, cycle: int) -> str:
        self._check_vertex(vertex)
        return self._pred[cycle][vertex]

    def cycle_neighbors(self, vertex: str, cycle: int) -> Tuple[str, str]:
        """The (predecessor, successor) pair of ``vertex`` on ``cycle``."""
        table = self._tables.get(vertex)
        if table is None:
            table = self._build_table(vertex)
        return table.pairs[cycle]

    def cycle_pairs(self, vertex: str) -> Tuple[Tuple[str, str], ...]:
        """All per-cycle (predecessor, successor) pairs of ``vertex``, cached."""
        table = self._tables.get(vertex)
        if table is None:
            table = self._build_table(vertex)
        return table.pairs

    def neighbors(self, vertex: str) -> Set[str]:
        """All neighbours of ``vertex`` across every cycle (excluding itself).

        Returns a fresh mutable set built in the same insertion order as the
        pre-cache implementation (successor then predecessor, cycle by cycle),
        so downstream set-iteration behaviour is unchanged.
        """
        table = self._tables.get(vertex)
        if table is None:
            table = self._build_table(vertex)
        result: Set[str] = set()
        for _cycle, neighbor in table.links:
            result.add(neighbor)
        result.discard(vertex)
        return result

    def incident_links(self, vertex: str) -> Tuple[Tuple[int, str], ...]:
        """All (cycle, neighbour) links of ``vertex``, including duplicates.

        Random walks pick uniformly among incident links, so a neighbour
        reachable through several cycles is proportionally more likely --
        matching a walk on the multigraph rather than on the simple graph.
        The returned tuple is cached until the topology changes.
        """
        table = self._tables.get(vertex)
        if table is None:
            table = self._build_table(vertex)
        return table.links

    def degree(self, vertex: str) -> int:
        return len(self.incident_links(vertex))

    # ---------------------------------------------------------------- mutations

    def insert_after(self, new_vertex: str, after: str, cycle: int) -> None:
        """Insert ``new_vertex`` between ``after`` and its successor on ``cycle``."""
        if new_vertex in self._succ[cycle]:
            raise HGraphError(f"{new_vertex} is already present on cycle {cycle}")
        self._check_vertex(after)
        successor = self._succ[cycle][after]
        self._succ[cycle][after] = new_vertex
        self._succ[cycle][new_vertex] = successor
        self._pred[cycle][successor] = new_vertex
        self._pred[cycle][new_vertex] = after
        self._vertices.add(new_vertex)
        self._version += 1
        tables = self._tables
        tables.pop(after, None)
        tables.pop(successor, None)
        tables.pop(new_vertex, None)

    def insert_vertex(self, new_vertex: str, after_per_cycle: Sequence[str]) -> None:
        """Insert ``new_vertex`` into every cycle, after the given vertices."""
        if len(after_per_cycle) != self.hc:
            raise HGraphError(
                f"need one insertion point per cycle ({self.hc}), got {len(after_per_cycle)}"
            )
        for cycle, after in enumerate(after_per_cycle):
            self.insert_after(new_vertex, after, cycle)

    def remove(self, vertex: str) -> None:
        """Remove ``vertex`` from every cycle, closing the gaps it leaves."""
        self._check_vertex(vertex)
        if len(self._vertices) == 1:
            raise HGraphError("cannot remove the last vertex of the overlay")
        tables = self._tables
        for cycle in range(self.hc):
            predecessor = self._pred[cycle][vertex]
            successor = self._succ[cycle][vertex]
            # Close the gap: predecessor and successor become neighbours.
            self._succ[cycle][predecessor] = successor
            self._pred[cycle][successor] = predecessor
            del self._succ[cycle][vertex]
            del self._pred[cycle][vertex]
            tables.pop(predecessor, None)
            tables.pop(successor, None)
        self._vertices.discard(vertex)
        tables.pop(vertex, None)
        self._version += 1

    # --------------------------------------------------------------- validation

    def validate(self) -> None:
        """Check the Hamiltonian-cycle invariant on every cycle.

        Raises :class:`HGraphError` if any cycle does not visit every vertex
        exactly once before returning to its start.
        """
        for cycle in range(self.hc):
            if set(self._succ[cycle]) != self._vertices:
                raise HGraphError(f"cycle {cycle} does not cover the vertex set")
            if not self._vertices:
                continue
            start = next(iter(self._vertices))
            seen = set()
            current = start
            for _ in range(len(self._vertices)):
                if current in seen:
                    raise HGraphError(f"cycle {cycle} revisits {current}")
                seen.add(current)
                current = self._succ[cycle][current]
            if current != start or seen != self._vertices:
                raise HGraphError(f"cycle {cycle} is not a single Hamiltonian cycle")
            for vertex in self._vertices:
                if self._pred[cycle][self._succ[cycle][vertex]] != vertex:
                    raise HGraphError(f"cycle {cycle} has inconsistent pred/succ at {vertex}")

    def estimated_diameter(self) -> int:
        """Breadth-first diameter estimate from an arbitrary vertex."""
        if not self._vertices:
            return 0
        start = min(self._vertices)
        frontier = {start}
        seen = {start}
        depth = 0
        while len(seen) < len(self._vertices) and frontier:
            next_frontier: Set[str] = set()
            for vertex in frontier:
                for neighbor in self.neighbors(vertex):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.add(neighbor)
            frontier = next_frontier
            depth += 1
        return depth

    # ------------------------------------------------------------------ helpers

    def _build_table(self, vertex: str) -> _VertexTable:
        self._check_vertex(vertex)
        pairs: List[Tuple[str, str]] = []
        links: List[Tuple[int, str]] = []
        for cycle in range(self.hc):
            successor = self._succ[cycle][vertex]
            predecessor = self._pred[cycle][vertex]
            pairs.append((predecessor, successor))
            links.append((cycle, successor))
            links.append((cycle, predecessor))
        table = _VertexTable(tuple(pairs), tuple(links))
        self._tables[vertex] = table
        return table

    def _check_vertex(self, vertex: str) -> None:
        if vertex not in self._vertices:
            raise HGraphError(f"unknown vertex {vertex!r}")


__all__ = ["HGraph", "HGraphError"]
