"""Tests for split-brain membership reconciliation (repro.overlay.directory).

Unit-level: the pure merge function and the per-side bookkeeping of
:class:`SplitBrainCoordinator`, including the ISSUE-7 multi-split regime:
decider sets that span an already-healed overlapping split, and the
order-independence of cascaded heals over three overlapping splits.
Cluster-level wiring (per-side recording during a real split, merge
enforcement at heal, and the invariant monitor's replay of the recorded
directories) is exercised through the ``broadcast/split_brain_directory``
scenario in ``test_faults.py``.
"""

import itertools

import pytest

from repro.overlay.directory import (
    SideDirectory,
    SplitBrainCoordinator,
    merge_directories,
)
from repro.sim.simulator import Simulator


def side(index, members, joined=(), evicted=()):
    return SideDirectory(
        side_index=index,
        members=frozenset(members),
        joined=set(joined),
        evicted=set(evicted),
    )


class TestMergeDirectories:
    def test_evicted_on_either_side_stays_evicted(self):
        decision = merge_directories(
            [side(0, ["a", "b"], evicted=["x"]), side(1, ["c", "d"], evicted=["y"])]
        )
        assert decision.evicted == frozenset({"x", "y"})
        assert decision.admitted == frozenset()
        assert decision.revoked == frozenset()

    def test_join_survives_when_no_side_evicted_it(self):
        decision = merge_directories(
            [side(0, ["a"], joined=["j"]), side(1, ["b"])]
        )
        assert decision.admitted == frozenset({"j"})
        assert decision.revoked == frozenset()

    def test_join_revoked_when_other_side_evicted_the_joiner(self):
        # The canonical rejoin attack: evicted on side 0, rejoins through
        # side 1 while the split hides the eviction.  Re-validation at
        # merge rolls the join back — eviction is a safety decision.
        decision = merge_directories(
            [side(0, ["a", "b"], evicted=["m"]), side(1, ["c", "d"], joined=["m"])]
        )
        assert decision.evicted == frozenset({"m"})
        assert decision.revoked == frozenset({"m"})
        assert decision.admitted == frozenset()

    def test_merge_is_order_independent(self):
        sides = [
            side(0, ["a"], joined=["j"], evicted=["x"]),
            side(1, ["b"], joined=["m"], evicted=["m"]),
            side(2, ["c"], evicted=["j2"]),
        ]
        forward = merge_directories(sides)
        backward = merge_directories(list(reversed(sides)))
        assert forward == backward

    def test_deferred_evictions_count_as_evictions(self):
        # A cross-side eviction is deferred, not executed, but must carry
        # the same weight at merge as an executed one.
        coordinator = SplitBrainCoordinator(Simulator(seed=1), sides=[("a", "b"), ("c",)])
        coordinator.record_join("z", host_side=1)
        assert coordinator.record_eviction(["a", "b"], "z") is False
        decision = coordinator.merge()
        assert decision.evicted == frozenset({"z"})
        assert decision.revoked == frozenset({"z"})


class TestSplitBrainCoordinator:
    def build(self):
        sim = Simulator(seed=1)
        coordinator = SplitBrainCoordinator(
            sim, sides=[("a0", "a1", "a2"), ("b0", "b1", "b2")]
        )
        return sim, coordinator

    def test_construction_counts_the_split_and_maps_sides(self):
        sim, coordinator = self.build()
        assert sim.metrics.counter("directory.splits") == 1
        assert coordinator.side_of("a1") == 0
        assert coordinator.side_of("b2") == 1
        assert coordinator.side_of("outsider") is None

    def test_join_binds_the_joiner_to_the_host_side(self):
        sim, coordinator = self.build()
        assert coordinator.record_join("j", host_side=1) == 1
        assert coordinator.side_of("j") == 1
        assert "j" in coordinator.sides[1].joined
        assert sim.metrics.counter("directory.joins_recorded") == 1
        # A join hosted entirely outside the split is split-irrelevant.
        assert coordinator.record_join("k", host_side=None) is None
        assert coordinator.side_of("k") is None

    def test_same_side_eviction_executes_immediately(self):
        sim, coordinator = self.build()
        assert coordinator.record_eviction(["a0", "a1"], "a2") is True
        assert "a2" in coordinator.sides[0].evicted
        assert sim.metrics.counter("directory.evictions_deferred") == 0

    def test_cross_side_eviction_is_deferred_but_recorded(self):
        sim, coordinator = self.build()
        assert coordinator.record_eviction(["a0", "a1"], "b0") is False
        assert "b0" in coordinator.sides[0].evicted  # deciding side's record
        assert sim.metrics.counter("directory.evictions_deferred") == 1
        # ... and the merge still enforces it.
        assert "b0" in coordinator.merge().evicted

    def test_eviction_with_outside_parties_executes(self):
        sim, coordinator = self.build()
        # Target outside the split: nothing to defer.
        assert coordinator.record_eviction(["a0"], "outsider") is True
        # Deciders outside the split: the target side records it.
        assert coordinator.record_eviction(["outsider"], "b1") is True
        assert "b1" in coordinator.sides[1].evicted

    def test_merge_is_idempotent(self):
        sim, coordinator = self.build()
        coordinator.record_eviction(["a0", "a1"], "b0")
        first = coordinator.merge()
        second = coordinator.merge()
        assert first is second
        assert sim.metrics.counter("directory.merges") == 1

    def test_snapshots_round_trip_through_the_invariant_replay(self):
        # The invariant monitor rebuilds SideDirectory objects from the
        # recorded snapshots and recomputes the merge; the recomputation
        # over a snapshot must equal the live decision.
        sim, coordinator = self.build()
        coordinator.record_join("m", host_side=1)
        coordinator.record_eviction(["a0", "a1"], "m")  # cross-side: deferred
        live = coordinator.merge()
        rebuilt = [
            SideDirectory(
                side_index=snapshot["side_index"],
                members=frozenset(snapshot["members"]),
                joined=set(snapshot["joined"]),
                evicted=set(snapshot["evicted"]),
            )
            for snapshot in coordinator.side_snapshots()
        ]
        assert merge_directories(rebuilt) == live
        assert live.revoked == frozenset({"m"})


class TestEvictionDecidersSpanningSides:
    """Regression for the stale-decider bug (ISSUE 7 satellite).

    ``record_eviction`` used to bind the whole decider set to the side of
    the *first* sorted decider with a known side — a majority assembled
    from reports straddling an already-healed overlapping split was then
    mis-read as cross-side and deferred forever, even when most deciders
    shared the target's side and could genuinely observe it.
    """

    def test_stale_offside_decider_cannot_veto_an_onside_majority(self):
        sim = Simulator(seed=1)
        coordinator = SplitBrainCoordinator(
            sim, sides=[("a0", "a1", "a2"), ("b0", "b1", "b2")]
        )
        # "a0" sorts first, so the old code bound the majority to side 0
        # and deferred; b1/b2 share the target's side and must win.
        assert coordinator.record_eviction(["a0", "b1", "b2"], "b0") is True
        assert "b0" in coordinator.sides[1].evicted
        assert sim.metrics.counter("directory.evictions_deferred") == 0

    def test_true_cross_side_eviction_records_on_every_deciding_side(self):
        sim = Simulator(seed=1)
        coordinator = SplitBrainCoordinator(
            sim, sides=[("a0", "a1"), ("b0", "b1"), ("c0", "c1")]
        )
        assert coordinator.record_eviction(["a0", "b0"], "c0") is False
        # Both deciding sides carry the conviction into the merge; the
        # target's own side never convicted it.
        assert "c0" in coordinator.sides[0].evicted
        assert "c0" in coordinator.sides[1].evicted
        assert "c0" not in coordinator.sides[2].evicted
        assert sim.metrics.counter("directory.evictions_deferred") == 1


class TestOverlappingHealOrderIndependence:
    """Property test (ISSUE 7): merge decisions of 3 overlapping splits are
    byte-identical under every heal permutation.

    Mirrors the cluster contract exactly: membership events fan out to every
    active coordinator, and when one split heals, its enforced evictions
    reach the *remaining* coordinators only as leaves, which no coordinator
    records.
    """

    # Eight nodes cut three different ways: by half, by quarter-pairing,
    # and by parity — every pair of splits overlaps.
    SPLITS = {
        0: [("n0", "n1", "n2", "n3"), ("n4", "n5", "n6", "n7")],
        1: [("n0", "n1", "n4", "n5"), ("n2", "n3", "n6", "n7")],
        2: [("n0", "n2", "n4", "n6"), ("n1", "n3", "n5", "n7")],
    }

    def run_heals(self, order):
        sim = Simulator(seed=1)
        active = {
            split_id: SplitBrainCoordinator(sim, sides)
            for split_id, sides in self.SPLITS.items()
        }
        # A join lands on whichever side hosts its group, per split.
        for split_id, host_side in ((0, 1), (1, 0), (2, None)):
            active[split_id].record_join("j", host_side)
        # Every eviction majority is offered to every active coordinator
        # (no short-circuit), exactly as the cluster does.
        for deciders, target in (
            (["n4", "n5", "n6"], "n7"),  # same-side everywhere: executes
            (["n4", "n5", "n6"], "n0"),  # split 0 defers; 1 and 2 execute
            (["n0", "n1"], "j"),  # cross-side on split 0: join revoked
        ):
            for coordinator in active.values():
                coordinator.record_eviction(deciders, target)
        decisions = {}
        for split_id in order:
            coordinator = active.pop(split_id)
            decisions[split_id] = coordinator.merge()
        return decisions

    def test_decisions_identical_under_every_heal_permutation(self):
        baseline = self.run_heals((0, 1, 2))
        baseline_bytes = {
            split_id: repr(
                (
                    tuple(sorted(decision.evicted)),
                    tuple(sorted(decision.admitted)),
                    tuple(sorted(decision.revoked)),
                )
            ).encode()
            for split_id, decision in baseline.items()
        }
        # The scenario is not vacuous: it exercises deferral and revocation.
        assert "j" in baseline[0].revoked
        assert "n0" in baseline[0].evicted
        for order in itertools.permutations(self.SPLITS):
            decisions = self.run_heals(order)
            assert decisions == baseline
            for split_id, decision in decisions.items():
                encoded = repr(
                    (
                        tuple(sorted(decision.evicted)),
                        tuple(sorted(decision.admitted)),
                        tuple(sorted(decision.revoked)),
                    )
                ).encode()
                assert encoded == baseline_bytes[split_id]
