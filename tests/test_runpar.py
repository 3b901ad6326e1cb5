"""Tests for repro.sim.runpar: the sharded parallel scenario runner.

The load-bearing property is determinism: fanning seeded shards across
worker processes must produce metrics identical to a single-process run on
the same seeds (an acceptance criterion of the protocol fast-path PR).
"""

import multiprocessing

import pytest

from repro.sim.metrics import Histogram
from repro.sim.runpar import (
    WORKERS_ENV,
    default_workers,
    merge_shards,
    resolve_target,
    run_and_merge,
    run_sharded,
)

# The shard the fault matrix fans out: one seeded run of a named scenario on
# the real AtumCluster (broadcast dissemination / membership churn).
SHARD_TARGET = "repro.faults.scenarios:scenario_shard"
SMALL_BROADCAST = {"name": "broadcast/none"}
SMALL_CHURN = {"name": "churn/none"}

fork_available = "fork" in multiprocessing.get_all_start_methods()


class TestResolveTarget:
    def test_resolves_module_path(self):
        fn = resolve_target(SHARD_TARGET)
        assert callable(fn)

    def test_passes_through_callables(self):
        fn = resolve_target(len)
        assert fn is len

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            resolve_target("repro.faults.scenarios")

    def test_rejects_non_callable_attribute(self):
        with pytest.raises(TypeError):
            resolve_target("repro.faults.scenarios:SMALL_MATRIX")


class TestSerialSharding:
    def test_results_come_back_in_seed_order(self):
        results = run_sharded(SHARD_TARGET, [5, 6], workers=1, kwargs=SMALL_BROADCAST)
        assert len(results) == 2
        # Different seeds produce different event structures.
        assert results[0]["counters"] != results[1]["counters"] or (
            results[0]["histograms"] != results[1]["histograms"]
        )

    def test_merge_sums_counters_and_concatenates_histograms(self):
        shard_a = {"counters": {"x": 1.0, "y": 2.0}, "histograms": {"h": [1.0, 2.0]}}
        shard_b = {"counters": {"x": 3.0}, "histograms": {"h": [3.0], "g": [4.0]}}
        merged = merge_shards([shard_a, shard_b])
        assert merged["shards"] == 2
        assert merged["counters"] == {"x": 4.0, "y": 2.0}
        assert list(merged["histograms"]["h"].samples) == [1.0, 2.0, 3.0]
        assert list(merged["histograms"]["g"].samples) == [4.0]
        assert isinstance(merged["histograms"]["h"], Histogram)
        assert merged["histograms"]["h"].mean == 2.0

    def test_empty_seed_list(self):
        assert run_sharded(SHARD_TARGET, [], workers=4) == []


@pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
class TestParallelIdentity:
    def test_broadcast_parallel_equals_serial(self):
        seeds = [7, 8, 9]
        serial = run_and_merge(SHARD_TARGET, seeds, workers=1, kwargs=SMALL_BROADCAST)
        parallel = run_and_merge(SHARD_TARGET, seeds, workers=2, kwargs=SMALL_BROADCAST)
        assert parallel["counters"] == serial["counters"]
        assert set(parallel["histograms"]) == set(serial["histograms"])
        for name, histogram in serial["histograms"].items():
            assert parallel["histograms"][name].samples == histogram.samples

    def test_churn_parallel_equals_serial(self):
        # Fork workers inherit the parent's hash salt, so even the
        # set-iteration-sensitive membership paths merge identically.
        seeds = [3, 4]
        serial = run_and_merge(SHARD_TARGET, seeds, workers=1, kwargs=SMALL_CHURN)
        parallel = run_and_merge(SHARD_TARGET, seeds, workers=2, kwargs=SMALL_CHURN)
        assert parallel["counters"] == serial["counters"]
        for name, histogram in serial["histograms"].items():
            assert parallel["histograms"][name].samples == histogram.samples

    def test_worker_count_does_not_change_results(self):
        seeds = [1, 2, 3, 4]
        two = run_and_merge(SHARD_TARGET, seeds, workers=2, kwargs=SMALL_BROADCAST)
        three = run_and_merge(SHARD_TARGET, seeds, workers=3, kwargs=SMALL_BROADCAST)
        assert two["counters"] == three["counters"]
        for name, histogram in two["histograms"].items():
            assert three["histograms"][name].samples == histogram.samples


class TestWorkerKnob:
    def test_env_variable_controls_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3

    def test_invalid_env_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "not-a-number")
        assert default_workers() >= 1

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert default_workers() == 1
