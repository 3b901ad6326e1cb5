"""Tests for the membership engine (joins, leaves, shuffling, splits, merges)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AtumParameters, SmrKind
from repro.overlay.membership import MembershipEngine, MembershipError
from repro.sim import Simulator


def make_engine(seed=0, shuffle=True, gmax=8, gmin=4, hc=3, rwl=6, synchronous=True):
    sim = Simulator(seed=seed)
    params = AtumParameters(
        hc=hc,
        rwl=rwl,
        gmax=gmax,
        gmin=gmin,
        smr_kind=SmrKind.SYNC if synchronous else SmrKind.ASYNC,
        shuffle_enabled=shuffle,
    )
    return sim, MembershipEngine(sim, params)


def run_joins(sim, engine, count, prefix="n", contact=None):
    for index in range(count):
        engine.join(f"{prefix}{index}", contact_node=contact)
        sim.run(until=sim.now + 60.0)
    # Drain any remaining shuffles/splits.
    sim.run_until_idle()


class TestBootstrapAndStatic:
    def test_bootstrap_creates_single_member_group(self):
        sim, engine = make_engine()
        view = engine.bootstrap("n0")
        assert engine.system_size == 1
        assert engine.group_count == 1
        assert view.members == ("n0",)
        engine.validate()

    def test_bootstrap_twice_rejected(self):
        sim, engine = make_engine()
        engine.bootstrap("n0")
        with pytest.raises(MembershipError):
            engine.bootstrap("n1")

    def test_build_static_partitions_all_nodes(self):
        sim, engine = make_engine()
        nodes = [f"n{i}" for i in range(50)]
        engine.build_static(nodes)
        assert engine.system_size == 50
        engine.validate()
        sizes = [view.size for view in engine.groups.values()]
        assert all(size <= engine.params.gmax for size in sizes)
        assert all(size >= engine.params.gmin for size in sizes)

    def test_build_static_single_node(self):
        sim, engine = make_engine()
        engine.build_static(["only"])
        assert engine.system_size == 1
        engine.validate()

    def test_build_static_empty_rejected(self):
        sim, engine = make_engine()
        with pytest.raises(MembershipError):
            engine.build_static([])

    def test_build_static_trailing_fold_respects_gmax(self):
        """Regression: folding an undersized trailing chunk into its
        neighbour used to exceed gmax (50 nodes at gmin=6/gmax=12 chunk
        into 9s with a trailing 5, and 9+5=14 > 12)."""
        sim, engine = make_engine(gmin=6, gmax=12)
        engine.build_static([f"n{i}" for i in range(50)])
        sizes = [view.size for view in engine.groups.values()]
        assert max(sizes) <= 12
        assert min(sizes) >= 6
        engine.validate()

    def test_build_static_bounds_hold_at_adversarial_sizes(self):
        for gmin, gmax in [(4, 8), (6, 12), (5, 10), (2, 4)]:
            for count in range(gmin, 61):
                sim, engine = make_engine(gmin=gmin, gmax=gmax)
                engine.build_static([f"n{i}" for i in range(count)])
                sizes = [view.size for view in engine.groups.values()]
                assert max(sizes) <= gmax, (gmin, gmax, count, sizes)
                assert min(sizes) >= gmin, (gmin, gmax, count, sizes)
                engine.validate()

    def test_build_static_unsplittable_fold_is_documented_minimal(self):
        """When gmax < 2*gmin the merged trailing chunk cannot be split
        into two in-bounds halves; the violation is kept minimal (at most
        gmax + gmin - 1) rather than hidden."""
        sim, engine = make_engine(gmin=7, gmax=8)
        engine.build_static([f"n{i}" for i in range(13)])
        sizes = [view.size for view in engine.groups.values()]
        assert max(sizes) <= 8 + 7 - 1
        assert engine.system_size == 13


class TestJoin:
    def test_first_join_bootstraps(self):
        sim, engine = make_engine()
        engine.join("n0")
        assert engine.system_size == 1

    def test_join_adds_node_after_protocol_runs(self):
        sim, engine = make_engine()
        engine.bootstrap("n0")
        engine.join("n1", contact_node="n0")
        sim.run_until_idle()
        assert engine.system_size == 2
        assert "n1" in engine.node_group
        engine.validate()

    def test_duplicate_join_rejected(self):
        sim, engine = make_engine()
        engine.bootstrap("n0")
        with pytest.raises(MembershipError):
            engine.join("n0")

    def test_join_latency_recorded(self):
        sim, engine = make_engine()
        engine.bootstrap("n0")
        engine.join("n1", contact_node="n0")
        sim.run_until_idle()
        histogram = sim.metrics.histogram("membership.join_latency")
        assert histogram.count == 1
        assert histogram.mean > 0.0

    def test_growth_triggers_splits_and_respects_gmax(self):
        sim, engine = make_engine(shuffle=False)
        engine.bootstrap("n0")
        run_joins(sim, engine, 30, prefix="j")
        assert engine.system_size == 31
        assert sim.metrics.counter("membership.splits") > 0
        for view in engine.groups.values():
            assert view.size <= engine.params.gmax
        engine.validate()

    def test_growth_with_shuffling_keeps_invariants(self):
        sim, engine = make_engine(shuffle=True)
        engine.bootstrap("n0")
        run_joins(sim, engine, 25, prefix="j")
        assert engine.system_size == 26
        engine.validate()

    def test_joins_complete_metric(self):
        sim, engine = make_engine(shuffle=False)
        engine.bootstrap("n0")
        run_joins(sim, engine, 10, prefix="j")
        assert sim.metrics.counter("membership.joins_completed") == 10


class TestLeave:
    def _grown_engine(self, size=30, shuffle=False):
        sim, engine = make_engine(shuffle=shuffle)
        engine.build_static([f"n{i}" for i in range(size)])
        return sim, engine

    def test_leave_removes_node(self):
        sim, engine = self._grown_engine()
        engine.leave("n5")
        sim.run_until_idle()
        assert "n5" not in engine.node_group
        assert engine.system_size == 29
        engine.validate()

    def test_leave_unknown_node_rejected(self):
        sim, engine = self._grown_engine()
        with pytest.raises(MembershipError):
            engine.leave("ghost")

    def test_shrinking_triggers_merges_and_respects_gmin(self):
        sim, engine = self._grown_engine(size=40)
        for index in range(25):
            engine.leave(f"n{index}")
            sim.run(until=sim.now + 30.0)
        sim.run_until_idle()
        assert engine.system_size == 15
        assert sim.metrics.counter("membership.merges") > 0
        engine.validate()
        for view in engine.groups.values():
            if engine.group_count > 1:
                assert view.size >= engine.params.gmin or view.size <= engine.params.gmax

    def test_system_can_empty_completely(self):
        sim, engine = make_engine(shuffle=False, gmin=1, gmax=4)
        engine.build_static(["a", "b", "c"], target_group_size=3)
        for node in ["a", "b", "c"]:
            engine.leave(node)
            sim.run_until_idle()
        assert engine.system_size == 0

    def test_eviction_counts_separately(self):
        sim, engine = self._grown_engine()
        engine.leave("n3", eviction=True)
        sim.run_until_idle()
        assert sim.metrics.counter("membership.evictions_started") == 1


BOUNDS = [(2, 4), (3, 6), (4, 8), (5, 10)]


class TestBoundsUnderChurn:
    """Joins split at gmax and leaves merge below gmin, for each deployment's
    fixed bounds: the only two paths that reshape vgroups."""

    @pytest.mark.parametrize("gmin,gmax", BOUNDS)
    def test_growth_splits_and_keeps_every_group_in_bounds(self, gmin, gmax):
        sim, engine = make_engine(shuffle=False, gmin=gmin, gmax=gmax)
        engine.bootstrap("n0")
        run_joins(sim, engine, 30, prefix="j")
        assert sim.metrics.counter("membership.splits") > 0
        sizes = [view.size for view in engine.groups.values()]
        assert gmin <= min(sizes) and max(sizes) <= gmax
        engine.validate()

    @pytest.mark.parametrize("gmin,gmax", BOUNDS)
    def test_shrinking_merges_and_keeps_every_group_in_bounds(self, gmin, gmax):
        sim, engine = make_engine(shuffle=False, gmin=gmin, gmax=gmax)
        engine.build_static([f"n{i}" for i in range(40)])
        for index in range(25):
            engine.leave(f"n{index}")
            sim.run(until=sim.now + 30.0)
        sim.run_until_idle()
        assert engine.system_size == 15
        assert sim.metrics.counter("membership.merges") > 0
        sizes = [view.size for view in engine.groups.values()]
        assert gmin <= min(sizes) and max(sizes) <= gmax
        engine.validate()


class TestShufflingAndExchanges:
    def test_exchanges_recorded_on_join(self):
        sim, engine = make_engine(shuffle=True)
        engine.build_static([f"n{i}" for i in range(24)])
        engine.join("x0")
        sim.run_until_idle()
        assert sim.metrics.counter("membership.exchanges_attempted") > 0
        engine.validate()

    def test_concurrent_joins_cause_suppressions(self):
        sim, engine = make_engine(shuffle=True)
        engine.build_static([f"n{i}" for i in range(40)])
        for index in range(20):
            engine.join(f"x{index}")
        sim.run_until_idle()
        attempted = sim.metrics.counter("membership.exchanges_attempted")
        suppressed = sim.metrics.counter("membership.exchanges_suppressed")
        assert attempted > 0
        # With 20 concurrent joins over ~6 groups, some exchange partners must
        # have been busy.
        assert suppressed > 0
        engine.validate()

    def test_shuffle_preserves_system_size(self):
        sim, engine = make_engine(shuffle=True)
        engine.build_static([f"n{i}" for i in range(32)])
        before = engine.system_size
        engine.join("extra")
        sim.run_until_idle()
        assert engine.system_size == before + 1
        engine.validate()


class TestTimeseriesAndCosts:
    def test_system_size_timeseries_monotone_under_growth(self):
        sim, engine = make_engine(shuffle=False)
        engine.bootstrap("n0")
        run_joins(sim, engine, 12, prefix="j")
        series = sim.metrics.timeseries("membership.system_size")
        values = series.values()
        assert values == sorted(values)
        assert values[-1] == 13

    def test_async_cost_model_joins_faster(self):
        def total_join_time(synchronous):
            sim, engine = make_engine(shuffle=False, synchronous=synchronous)
            engine.build_static([f"n{i}" for i in range(16)])
            engine.join("new-node")
            sim.run_until_idle()
            return sim.metrics.histogram("membership.join_latency").mean

        assert total_join_time(False) < total_join_time(True)


@settings(max_examples=15, deadline=None)
@given(
    initial=st.integers(min_value=2, max_value=40),
    operations=st.lists(st.integers(min_value=0, max_value=2**30), min_size=1, max_size=25),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_membership_invariants_under_random_churn(initial, operations, seed):
    """Random join/leave interleavings keep node/group/graph structures consistent."""
    sim, engine = make_engine(seed=seed, shuffle=True, gmax=8, gmin=4)
    engine.build_static([f"n{i}" for i in range(initial)])
    joined = initial
    for op in operations:
        if op % 2 == 0:
            engine.join(f"extra{joined}")
            joined += 1
        else:
            members = sorted(engine.node_group)
            if members:
                victim = members[op % len(members)]
                engine.leave(victim)
        sim.run(until=sim.now + 20.0)
    sim.run_until_idle()
    engine.validate()
