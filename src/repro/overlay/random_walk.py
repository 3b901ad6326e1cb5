"""Random walks over the H-graph.

Random walks are how Atum samples vgroups uniformly at random (for placing
joining nodes and for choosing shuffle exchange partners).  Three practical
concerns from the paper are modelled here:

* **Bulk RNG** (section 5.1): all ``rwl`` random numbers used by a walk are
  generated when the walk starts and piggybacked on the walk messages, so no
  vgroup can bias the walk by pre-generating numbers.
* **Reply scheme**: a walk either carries a *backward phase* (the reply is
  relayed back along the walk's path -- used by the Sync implementation) or a
  *certificate chain* (each hop appends a signed certificate and the selected
  vgroup replies directly -- used by the Async implementation).
* **Uniformity**: whether the end vertex of a walk is indistinguishable from a
  uniform sample depends on the walk length and the graph density; this is
  quantified in :mod:`repro.overlay.guideline`.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.overlay.hgraph import HGraph


class WalkMode(enum.Enum):
    """How the selected vgroup's reply travels back to the originator."""

    BACKWARD_PHASE = "backward_phase"
    CERTIFICATES = "certificates"


@dataclass
class BulkRng:
    """The random numbers of a walk, generated in bulk at the first hop.

    Each entry is a float in ``[0, 1)``; hop ``i`` of the walk consumes entry
    ``i`` to pick among the current vgroup's incident links (:func:`walk_end`).
    Generating the numbers before the walk starts (rather than drawing them at
    each hop from a pre-computed pool) prevents the bias attack of section 5.1.
    """

    values: List[float] = field(default_factory=list)

    @classmethod
    def generate(cls, length: int, rng: random.Random) -> "BulkRng":
        return cls(values=[rng.random() for _ in range(length)])


@dataclass
class RandomWalkOutcome:
    """Result of a structural random walk.

    Attributes:
        start: Vertex where the walk started.
        path: Vertices visited after the start, one per hop (length ``rwl``).
        selected: The final vertex (the sampled vgroup).
        mode: Reply scheme used.
        hops: Number of hops taken.
        reply_hops: Number of additional hops for the reply to reach the
            originator (``rwl`` for the backward phase, 1 for certificates).
    """

    start: str
    path: List[str]
    mode: WalkMode
    hops: int
    reply_hops: int

    @property
    def selected(self) -> str:
        return self.path[-1] if self.path else self.start


def walk_end(
    graph: HGraph, start: str, numbers: Sequence[float], path: Optional[List[str]] = None
) -> str:
    """The vertex a walk from ``start`` ends on, appending each vertex it
    reaches to ``path`` if given: the one hop loop of every walk.  Hop ``i``
    takes link ``int(numbers[i] * n) % n`` of the current vertex's ``n``."""
    incident_links = graph.incident_links
    current = start
    for number in numbers:
        links = incident_links(current)
        count = len(links)
        current = links[int(number * count) % count][1]
        if path is not None:
            path.append(current)
    return current


def structural_walk(
    graph: HGraph,
    start: str,
    length: int,
    rng: random.Random,
    mode: WalkMode = WalkMode.BACKWARD_PHASE,
    bulk: Optional[BulkRng] = None,
) -> RandomWalkOutcome:
    """Perform a random walk of ``length`` hops on the H-graph.

    At each hop the walk moves across a uniformly random incident link of the
    current vertex (i.e. a uniformly random (cycle, direction) pair), matching
    the protocol's behaviour of choosing "a random incident link of the
    overlay".
    """
    if length < 1:
        raise ValueError("random walks must have at least one hop")
    values = (bulk or BulkRng.generate(length, rng)).values
    if len(values) < length:
        raise IndexError(f"walk is longer ({length}) than its bulk RNG ({len(values)})")
    path: List[str] = []
    walk_end(graph, start, values[:length], path)
    reply_hops = length if mode is WalkMode.BACKWARD_PHASE else 1
    return RandomWalkOutcome(
        start=start, path=path, mode=mode, hops=length, reply_hops=reply_hops
    )


__all__ = [
    "WalkMode",
    "BulkRng",
    "RandomWalkOutcome",
    "structural_walk",
    "walk_end",
]
