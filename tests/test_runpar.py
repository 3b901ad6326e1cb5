"""Tests for repro.sim.runpar: the sharded parallel scenario runner.

The load-bearing property is determinism: fanning seeded shards across
worker processes must produce results identical to a single-process run on
the same arguments (an acceptance criterion of the protocol fast-path PR).
"""

import multiprocessing

import pytest

from repro.sim.runpar import (
    WORKERS_ENV,
    default_workers,
    resolve_target,
    run_sharded,
)

# The shard the fault matrix fans out: one seeded run of a named scenario on
# the real AtumCluster (broadcast dissemination / membership churn).
SHARD_TARGET = "repro.faults.scenarios:run_scenario"


def cells(name, seeds):
    return [(seed, name) for seed in seeds]


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
        results = run_sharded(SHARD_TARGET, cells("broadcast/none", [5, 6]), workers=1)
        assert [row["seed"] for row in results] == [5, 6]
        # Different seeds produce different event structures.
        assert results[0]["counters"] != results[1]["counters"]

    def test_unpicklable_target_runs_serially(self):
        assert run_sharded(lambda a, b: a * b, [(2, 3), (4, 5)], workers=2) == [6, 20]

    def test_empty_seed_list(self):
        assert run_sharded(SHARD_TARGET, [], workers=4) == []


@pytest.mark.skipif(not fork_available, reason="fork start method unavailable")
class TestParallelIdentity:
    def test_broadcast_parallel_equals_serial(self):
        work = cells("broadcast/none", [7, 8, 9])
        assert run_sharded(SHARD_TARGET, work, workers=2) == run_sharded(
            SHARD_TARGET, work, workers=1
        )

    def test_churn_parallel_equals_serial(self):
        # Fork workers inherit the parent's hash salt, so even the
        # set-iteration-sensitive membership paths come back identical.
        work = cells("churn/none", [3, 4])
        assert run_sharded(SHARD_TARGET, work, workers=2) == run_sharded(
            SHARD_TARGET, work, workers=1
        )

    def test_worker_count_does_not_change_results(self):
        work = cells("broadcast/none", [1, 2, 3, 4])
        assert run_sharded(SHARD_TARGET, work, workers=2) == run_sharded(
            SHARD_TARGET, work, workers=3
        )


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
