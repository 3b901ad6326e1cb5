"""Split-brain membership reconciliation: per-side directories + merge.

A side-preserving split leaves every side internally healthy, so each side
keeps processing membership traffic — joins complete against the groups it
can reach, heartbeat majorities evict the unreachable.  Before this module
the simulation let one global membership engine serve both sides, which
silently assumed a coordinator no real split-brain deployment has.  This
module makes the per-side divergence explicit and the heal deterministic:

* While a split is active, a :class:`SideDirectory` per side records the
  joins and evictions *that side* decided.  Cross-side evictions —
  a side's majority deciding to evict a node it cannot even reach — are
  **deferred**: recorded in the deciding side's directory but not executed,
  because executing them would mutually evict both sides' straddlers and
  shred the overlay for what is only a transient partition.
* At heal, :func:`merge_directories` folds the sides deterministically:
  **evicted-on-either-side stays evicted** (an eviction is a safety
  decision; merging must not resurrect a node half the system convicted),
  and **joined-on-one-side is re-validated against the merged view** — a
  join is revoked if the merged eviction set contains the joiner.
* :class:`repro.faults.invariants.InvariantMonitor` rebuilds each side
  from its recorded ``joined`` and ``evicted`` sets at finalize,
  re-computes the merge and flags ``directory_divergence`` (stored
  decision != recomputed decision) and ``evicted_readmitted_across_sides``
  (a merged-evicted address still in the membership) violations.

The coordinator is pure bookkeeping: it owns no RNG and schedules nothing,
so clusters that never split carry no new state and stay byte-identical.
Overlapping concurrent splits are supported by running one coordinator per
split id (see :meth:`repro.core.cluster.AtumCluster.split`): each heal
merges only its own coordinator, an eviction executes only if *every*
active coordinator agrees it is same-side, and because leaves are not
recorded at all, the decisions are identical under every heal order —
property-tested in ``tests/test_directory.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


@dataclass
class SideDirectory:
    """One partition side's independently evolving membership record.

    ``members`` is the side's snapshot at split time; ``joined`` and
    ``evicted`` accumulate the decisions this side made while the split
    was active (an eviction deferred as cross-side counts as evicted).
    The merge reads only these two sets, and the invariant monitor
    rebuilds a side from them to check the stored merge decision.
    """

    side_index: int
    members: FrozenSet[str]
    joined: set = field(default_factory=set)
    evicted: set = field(default_factory=set)

    def snapshot(self) -> Dict[str, object]:
        """A plain, order-normalised copy for post-run invariant checks."""
        return {
            "side_index": self.side_index,
            "members": tuple(sorted(self.members)),
            "joined": tuple(sorted(self.joined)),
            "evicted": tuple(sorted(self.evicted)),
        }


@dataclass(frozen=True)
class MergeDecision:
    """The deterministic outcome of reconciling all sides at heal.

    Attributes:
        evicted: Union of every side's evictions — stays evicted.
        admitted: Joined on some side and *not* in ``evicted``: the join
            survives re-validation against the merged view.
        revoked: Joined on some side but evicted on another — the
            re-validation fails and the join is rolled back.
    """

    evicted: FrozenSet[str]
    admitted: FrozenSet[str]
    revoked: FrozenSet[str]


def merge_directories(sides: Sequence[SideDirectory]) -> MergeDecision:
    """Deterministically reconcile per-side directories.

    Pure function of the side sets (no times, no ordering between sides),
    so every node computing it over the same replicated directories gets
    the same answer — which is exactly what the invariant monitor
    re-checks after the run.
    """
    evicted: set = set()
    joined: set = set()
    for side in sides:
        evicted |= side.evicted
        joined |= side.joined
    revoked = joined & evicted
    admitted = joined - evicted
    return MergeDecision(
        evicted=frozenset(evicted),
        admitted=frozenset(admitted),
        revoked=frozenset(revoked),
    )


class SplitBrainCoordinator:
    """Tracks one active split's per-side directories for a cluster.

    The cluster routes membership events here while the split is active
    (see :meth:`repro.core.cluster.AtumCluster.split`):

    * ``record_join`` binds the joiner to its host group's side;
    * ``record_eviction`` answers whether the eviction may execute now
      (decider and target on the same side) or must be deferred to the
      merge (cross-side);
    * ``merge`` computes the :class:`MergeDecision` the cluster enforces
      at heal.
    """

    def __init__(self, sim, sides: Sequence[Iterable[str]]) -> None:
        self.sim = sim
        self.sides: List[SideDirectory] = [
            SideDirectory(side_index=index, members=frozenset(side))
            for index, side in enumerate(sides)
        ]
        self._side_of: Dict[str, int] = {}
        for directory in self.sides:
            for address in directory.members:
                self._side_of[address] = directory.side_index
        self.merged: Optional[MergeDecision] = None
        sim.metrics.increment("directory.splits")

    # ----------------------------------------------------------------- queries

    def side_of(self, address: str) -> Optional[int]:
        """The side an address lives on (``None`` for unsplit bystanders)."""
        return self._side_of.get(address)

    def side_snapshots(self) -> Tuple[Dict[str, object], ...]:
        return tuple(directory.snapshot() for directory in self.sides)

    # ---------------------------------------------------------------- recording

    def record_join(self, address: str, host_side: Optional[int]) -> Optional[int]:
        """A join completed on ``host_side`` during the split.

        Returns the side the joiner was bound to (``None`` when the host
        group lies entirely outside the split — the join is then an
        ordinary, split-irrelevant join).
        """
        if host_side is None or host_side >= len(self.sides):
            return None
        self._side_of[address] = host_side
        self.sides[host_side].joined.add(address)
        self.sim.metrics.increment("directory.joins_recorded")
        return host_side

    def record_eviction(self, deciders: Sequence[str], target: str) -> bool:
        """An eviction majority formed; may it execute now?

        Returns True when the deciding majority and the target share a
        side (or either is outside the split): the eviction is recorded
        and proceeds as usual.  Returns False for a cross-side eviction:
        it is recorded in the *deciding* sides' directories and deferred —
        the merge enforces it at heal (evicted-on-either-side stays
        evicted), but executing it mid-split would dismantle overlay
        state the other side is actively using.

        Deciders may span sides — e.g. a suspicion majority assembled
        from reports that straddle an already-healed overlapping split.
        The rule is membership-local: the eviction executes iff *some*
        decider shares the target's side (that side's majority really can
        observe the target), so stale off-side deciders can never veto an
        on-side majority into an eternal deferral.
        """
        decider_sides = sorted(
            {
                side
                for side in (self._side_of.get(decider) for decider in deciders)
                if side is not None
            }
        )
        target_side = self._side_of.get(target)
        if target_side is None or not decider_sides or target_side in decider_sides:
            side = (
                target_side
                if target_side is not None
                else (decider_sides[0] if decider_sides else None)
            )
            if side is not None:
                self.sides[side].evicted.add(target)
            return True
        for side in decider_sides:
            self.sides[side].evicted.add(target)
        self.sim.metrics.increment("directory.evictions_deferred")
        return False

    # -------------------------------------------------------------------- merge

    def merge(self) -> MergeDecision:
        """Reconcile the sides at heal; idempotent."""
        if self.merged is None:
            self.merged = merge_directories(self.sides)
            self.sim.metrics.increment("directory.merges")
        return self.merged


__all__ = [
    "SideDirectory",
    "MergeDecision",
    "merge_directories",
    "SplitBrainCoordinator",
]
