"""Overlay layer: H-graph, gossip, random walks, shuffling, logarithmic grouping.

The overlay connects vgroups (paper section 3.2).  Its pieces:

* :class:`repro.overlay.hgraph.HGraph` -- a multigraph made of a constant
  number of random Hamiltonian cycles over the vgroups.
* :mod:`repro.overlay.random_walk` -- random walks over the H-graph, with bulk
  RNG and the two reply schemes (backward phase / certificate chains).
* :mod:`repro.overlay.guideline` -- the simulation that produces the paper's
  Figure 4 configuration guideline (optimal walk length per cycle count),
  based on a Pearson chi-square uniformity test.
* :mod:`repro.overlay.gossip` -- the forward decision of gossip dissemination
  (which cycles a broadcast travels: all, a fixed number, one guaranteed
  plus one more).
* :class:`repro.overlay.membership.MembershipEngine` -- the vgroup-granularity
  engine that executes joins, leaves, random-walk shuffling, and logarithmic
  grouping (splits and merges) on the simulator.
"""

from repro.overlay.hgraph import HGraph
from repro.overlay.random_walk import (
    WalkMode,
    BulkRng,
    structural_walk,
    RandomWalkOutcome,
)
from repro.overlay.gossip import forward_cycles, forward_targets
from repro.overlay.guideline import uniformity_pvalue, optimal_walk_length, guideline_table
from repro.overlay.membership import MembershipEngine

__all__ = [
    "HGraph",
    "WalkMode",
    "BulkRng",
    "structural_walk",
    "RandomWalkOutcome",
    "forward_cycles",
    "forward_targets",
    "uniformity_pvalue",
    "optimal_walk_length",
    "guideline_table",
    "MembershipEngine",
]
