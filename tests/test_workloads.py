"""Tests for the workload drivers (growth, churn, broadcasts, Byzantine selection)."""

import random

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.group.vgroup import VGroupView
from repro.overlay.membership import MembershipEngine, MembershipError
from repro.sim import Simulator
from repro.workloads import (
    BroadcastWorkload,
    BroadcastWorkloadConfig,
    ChurnConfig,
    ChurnWorkload,
    GrowthConfig,
    GrowthWorkload,
    max_sustainable_churn,
    select_byzantine,
    select_byzantine_per_group,
)


def make_engine(seed=0, synchronous=True, size=0):
    sim = Simulator(seed=seed)
    kind = SmrKind.SYNC if synchronous else SmrKind.ASYNC
    engine = MembershipEngine(sim, AtumParameters(hc=3, rwl=6, gmax=8, gmin=4, smr_kind=kind))
    if size:
        engine.build_static([f"n{i}" for i in range(size)])
    return engine


class TestGrowthWorkload:
    def test_reaches_target_size(self):
        engine = make_engine()
        workload = GrowthWorkload(engine, GrowthConfig(target_size=60, join_fraction_per_minute=0.2,
                                                       provisioning_delay=5.0, max_duration=20_000))
        series = workload.run()
        assert engine.system_size == 60
        assert series.points[-1][1] == 60
        engine.validate()

    def test_growth_is_superlinear(self):
        # Because the join rate is proportional to the current size, the second
        # half of the growth takes less time than the first half.
        engine = make_engine(seed=1)
        workload = GrowthWorkload(engine, GrowthConfig(target_size=120, join_fraction_per_minute=0.2,
                                                       provisioning_delay=5.0, max_duration=40_000))
        workload.run()
        quarter = workload.time_to_reach(30)
        half = workload.time_to_reach(60)
        full = workload.time_to_reach(120)
        assert quarter is not None and half is not None and full is not None
        assert (full - half) < (half - quarter) * 1.5

    def test_higher_join_rate_lowers_exchange_completion(self):
        def completion(rate):
            engine = make_engine(seed=2)
            workload = GrowthWorkload(
                engine,
                GrowthConfig(target_size=100, join_fraction_per_minute=rate,
                             provisioning_delay=2.0, max_duration=60_000),
            )
            workload.run()
            return workload.exchange_completion_rate()

        slow = completion(0.08)
        fast = completion(0.40)
        # Figure 13: faster growth suppresses more exchanges.
        assert fast <= slow

    def test_time_to_reach_unreached_size_is_none(self):
        engine = make_engine()
        workload = GrowthWorkload(engine, GrowthConfig(target_size=20, join_fraction_per_minute=0.2,
                                                       provisioning_delay=1.0))
        workload.run()
        assert workload.time_to_reach(500) is None


class TestChurnWorkload:
    def test_low_churn_is_sustained(self):
        engine = make_engine(seed=3, size=60)
        workload = ChurnWorkload(engine, ChurnConfig(rate_per_minute=5, duration=180.0))
        result = workload.run()
        assert result.sustained
        assert result.completed_joins > 0
        engine.validate()

    def test_extreme_churn_is_not_sustained(self):
        engine = make_engine(seed=4, size=60)
        workload = ChurnWorkload(engine, ChurnConfig(rate_per_minute=2000, duration=120.0))
        result = workload.run()
        assert not result.sustained

    def test_system_size_roughly_preserved(self):
        engine = make_engine(seed=5, size=50)
        workload = ChurnWorkload(engine, ChurnConfig(rate_per_minute=10, duration=120.0))
        workload.run()
        assert 40 <= engine.system_size <= 60

    def test_max_sustainable_churn_returns_highest_sustained_rate(self):
        def factory():
            return make_engine(seed=6, size=50)

        best = max_sustainable_churn(factory, rates_per_minute=[2, 8, 4000], duration=120.0)
        assert best in (2, 8)

    def test_async_sustains_more_churn_than_sync(self):
        def best_for(synchronous):
            def factory():
                return make_engine(seed=7, synchronous=synchronous, size=50)

            return max_sustainable_churn(factory, rates_per_minute=[5, 20, 60, 120], duration=120.0)

        assert best_for(False) >= best_for(True)


class TestBroadcastWorkload:
    def _cluster(self):
        params = AtumParameters(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)
        cluster = AtumCluster(params, seed=8)
        cluster.build_static([f"n{i}" for i in range(24)])
        return cluster

    def test_all_broadcasts_fully_delivered(self):
        cluster = self._cluster()
        workload = BroadcastWorkload(cluster, BroadcastWorkloadConfig(count=5, interval=0.2, settle_time=30.0))
        latencies = workload.run()
        assert len(latencies) == 5 * 24
        assert all(fraction == 1.0 for fraction in workload.delivery_fractions().values())

    def test_latencies_positive_and_bounded(self):
        cluster = self._cluster()
        workload = BroadcastWorkload(cluster, BroadcastWorkloadConfig(count=3, interval=0.2, settle_time=30.0))
        latencies = workload.run()
        assert all(0.0 <= latency <= 10.0 for latency in latencies)

    def test_empty_cluster_raises(self):
        params = AtumParameters(hc=3, rwl=5, gmax=6, gmin=3)
        cluster = AtumCluster(params)
        workload = BroadcastWorkload(cluster)
        with pytest.raises(RuntimeError):
            workload.run()


class TestSortedAddresses:
    """``MembershipEngine.addresses`` is ``sorted(node_group)`` at all times,
    so the churn driver draws its victim by index without sorting."""

    def _check_every_event(self, engine, monkeypatch):
        sim = engine.sim
        checked = []

        def stepping_run(until):
            while (due := sim.queue.peek_time()) is not None and due <= until:
                sim.step()
                assert engine.addresses == sorted(engine.node_group)
                checked.append(sim.now)

        monkeypatch.setattr(sim, "run", stepping_run)
        return checked

    def test_the_list_follows_a_churn_run_event_by_event(self, monkeypatch):
        engine = make_engine(seed=3, size=30)
        assert engine.addresses == sorted(engine.node_group)
        checked = self._check_every_event(engine, monkeypatch)
        result = ChurnWorkload(engine, ChurnConfig(rate_per_minute=60, duration=60.0)).run()
        assert result.completed_joins > 10 and result.completed_leaves > 10
        assert any(node.startswith("churn-") for node in engine.addresses)
        assert len(checked) > 100
        engine.validate()

    def test_the_list_follows_growth_from_a_bootstrap(self, monkeypatch):
        engine = make_engine(seed=4)
        checked = self._check_every_event(engine, monkeypatch)
        GrowthWorkload(engine, GrowthConfig(target_size=24)).run()
        assert engine.system_size == 24 and len(checked) > 24
        assert engine.addresses == sorted(engine.node_group)


class TestChurnAccountingFix:
    """A churn tick leaves a current member, so every tick is one requested re-join."""

    def test_a_refused_leave_propagates_and_requests_nothing(self):
        engine = make_engine(seed=9, size=20)
        workload = ChurnWorkload(engine, ChurnConfig())

        def failing_leave(node, eviction=False):
            raise MembershipError("victim vanished")

        engine.leave = failing_leave
        with pytest.raises(MembershipError):
            workload._rejoin_one()
        assert workload._requested == 0
        # The re-join never started: no churn-* newcomer was joined.
        assert not any(node.startswith("churn-") for node in engine.node_group)

    def test_unexpected_errors_propagate(self):
        engine = make_engine(seed=9, size=20)
        workload = ChurnWorkload(engine, ChurnConfig())

        def broken_leave(node, eviction=False):
            raise RuntimeError("engine bug")

        engine.leave = broken_leave
        with pytest.raises(RuntimeError):
            workload._rejoin_one()

    def test_every_tick_starts_one_leave_and_one_join(self):
        engine = make_engine(seed=10, size=20)
        workload = ChurnWorkload(engine, ChurnConfig(rate_per_minute=30, duration=20.0, warmup=1.0))
        result = workload.run()
        counter = engine.sim.metrics.counter
        assert result.requested_rejoins == 10
        assert counter("membership.leaves_started") == counter("membership.joins_started") == 10

    def test_successful_churn_completes_its_requested_rejoins(self):
        engine = make_engine(seed=3, size=60)
        workload = ChurnWorkload(engine, ChurnConfig(rate_per_minute=5, duration=120.0))
        result = workload.run()
        assert result.requested_rejoins > 0
        assert result.completed_joins == result.requested_rejoins


class TestByzantineSelection:
    def test_select_by_count(self):
        addresses = [f"n{i}" for i in range(100)]
        chosen = select_byzantine(addresses, count=7)
        assert len(chosen) == 7
        assert set(chosen) <= set(addresses)

    def test_select_by_fraction(self):
        addresses = [f"n{i}" for i in range(850)]
        chosen = select_byzantine(addresses, fraction=0.058)
        assert len(chosen) == round(0.058 * 850)

    def test_both_or_neither_rejected(self):
        with pytest.raises(ValueError):
            select_byzantine(["a"], count=1, fraction=0.5)
        with pytest.raises(ValueError):
            select_byzantine(["a"])

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            select_byzantine(["a", "b"], count=3)

    def test_deterministic_with_seeded_rng(self):
        addresses = [f"n{i}" for i in range(50)]
        first = select_byzantine(addresses, count=5, rng=random.Random(1))
        second = select_byzantine(addresses, count=5, rng=random.Random(1))
        assert first == second

    def test_fraction_rounds_down(self):
        # round() would pick 2 of 5 for a one-third fraction (1.666 -> 2);
        # the adversary controls *at most* the stated fraction, so floor it.
        addresses = [f"n{i}" for i in range(5)]
        assert len(select_byzantine(addresses, fraction=1 / 3)) == 1

    def test_half_fraction_on_small_cluster_rejected(self):
        # floor(0.5 * 4) = 2 of 4 is not a strict minority.
        addresses = [f"n{i}" for i in range(4)]
        with pytest.raises(ValueError, match="minority"):
            select_byzantine(addresses, fraction=0.5)
        assert len(select_byzantine(addresses, fraction=0.5, allow_majority=True)) == 2

    def test_majority_count_rejected_unless_allowed(self):
        addresses = [f"n{i}" for i in range(5)]
        with pytest.raises(ValueError, match="minority"):
            select_byzantine(addresses, count=3)
        assert len(select_byzantine(addresses, count=3, allow_majority=True)) == 3
        # A strict minority passes.
        assert len(select_byzantine(addresses, count=2)) == 2

    def test_zero_selection_always_allowed(self):
        assert select_byzantine(["a"], count=0) == []
        assert select_byzantine([], fraction=0.9) == []


class TestByzantinePerGroupSelection:
    def test_strict_minority_of_every_group(self):
        views = [
            VGroupView.create("g1", [f"a{i}" for i in range(4)]),
            VGroupView.create("g2", [f"b{i}" for i in range(5)]),
            VGroupView.create("g3", [f"c{i}" for i in range(6)]),
        ]
        chosen = select_byzantine_per_group(views, 0.5, rng=random.Random(1))
        for view in views:
            inside = [address for address in chosen if address in view.member_set]
            assert len(inside) <= (len(view.members) - 1) // 2

    def test_small_fraction_selects_nothing_in_tiny_groups(self):
        views = [VGroupView.create("g1", ["a0", "a1", "a2"])]
        assert select_byzantine_per_group(views, 0.25, rng=random.Random(1)) == []

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            select_byzantine_per_group([], 1.5)
