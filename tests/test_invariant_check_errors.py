"""Regression for the swallowed-checker-error bug (atumlint ATL004).

``InvariantMonitor.finalize`` used to catch ``engine.validate()`` errors,
record a violation, and silently continue — a broken membership engine
outside fault replay looked like a clean run.  Now the error is always
counted (``invariants.check_errors``) and re-raised unless the monitor was
explicitly configured with ``tolerate_check_errors=True`` (fault-scenario
replay, where a crashed checker must surface as a matrix-row violation,
not kill the sweep).
"""

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters
from repro.faults import InvariantMonitor


def build_cluster(monitor, nodes=12):
    params = AtumParameters(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)
    cluster = AtumCluster(params, seed=9)
    cluster.attach_monitor(monitor)
    cluster.build_static([f"n{i}" for i in range(nodes)])
    return cluster


def break_validate(cluster):
    def boom():
        raise RuntimeError("validate exploded")

    cluster.engine.validate = boom


class TestCheckerErrorHandling:
    def test_default_config_counts_and_reraises(self):
        monitor = InvariantMonitor()
        cluster = build_cluster(monitor)
        break_validate(cluster)
        with pytest.raises(RuntimeError, match="validate exploded"):
            monitor.finalize()
        assert cluster.sim.metrics.counter("invariants.check_errors") == 1.0
        kinds = [v.kind for v in monitor.violations]
        assert "structure" in kinds

    def test_tolerant_config_records_violation_without_raising(self):
        monitor = InvariantMonitor(tolerate_check_errors=True)
        cluster = build_cluster(monitor)
        break_validate(cluster)
        violations = monitor.finalize()
        assert cluster.sim.metrics.counter("invariants.check_errors") == 1.0
        structural = [v for v in violations if v.kind == "structure"]
        assert structural and "validate exploded" in structural[0].detail

    def test_healthy_engine_counts_nothing(self):
        monitor = InvariantMonitor()
        cluster = build_cluster(monitor)
        monitor.finalize()
        assert cluster.sim.metrics.counter("invariants.check_errors") == 0.0
