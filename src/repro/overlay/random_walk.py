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
from typing import List, Optional

from repro.overlay.hgraph import HGraph


class WalkMode(enum.Enum):
    """How the selected vgroup's reply travels back to the originator."""

    BACKWARD_PHASE = "backward_phase"
    CERTIFICATES = "certificates"


@dataclass
class BulkRng:
    """The random numbers of a walk, generated in bulk at the first hop.

    Each entry is a float in ``[0, 1)``; hop ``i`` of the walk consumes entry
    ``i`` to pick among the current vgroup's incident links.  Generating the
    numbers before the walk starts (rather than drawing them at each hop from
    a pre-computed pool) prevents the bias attack described in section 5.1.
    """

    values: List[float] = field(default_factory=list)

    @classmethod
    def generate(cls, length: int, rng: random.Random) -> "BulkRng":
        return cls(values=[rng.random() for _ in range(length)])

    def pick(self, hop: int, option_count: int) -> int:
        """Deterministically map hop ``hop``'s random number to an option index."""
        if hop >= len(self.values):
            raise IndexError(f"walk is longer ({hop + 1}) than its bulk RNG ({len(self.values)})")
        if option_count <= 0:
            raise ValueError("no options to pick from")
        return int(self.values[hop] * option_count) % option_count


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
    numbers = bulk or BulkRng.generate(length, rng)
    current = start
    path: List[str] = []
    for hop in range(length):
        links = graph.incident_links(current)
        index = numbers.pick(hop, len(links))
        _cycle, current = links[index]
        path.append(current)
    reply_hops = length if mode is WalkMode.BACKWARD_PHASE else 1
    return RandomWalkOutcome(
        start=start, path=path, mode=mode, hops=length, reply_hops=reply_hops
    )


__all__ = [
    "WalkMode",
    "BulkRng",
    "RandomWalkOutcome",
    "structural_walk",
]
