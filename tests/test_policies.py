"""Tests for the adaptive-parameter policy layer (repro.core.policies).

Covers the ParameterBus contract (adaptation-immutable parameters raise,
runtime conditions reject with counters: bounds, hysteresis, rate limit,
oscillation guard, gmin/gmax coupling), applier coherence (bound changes
re-balance vgroups immediately, heartbeat changes keep the suspicion
window and every monitor aligned, overrides reach late joiners), the
determinism contract (disabled policies keep a seeded run byte-identical)
and the headline property: adaptation under churn with the invariant
monitor attached produces transitions and zero violations.
"""

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MiddlewareChain
from repro.core.policies import (
    ADAPTATION_IMMUTABLE,
    AdaptiveAntiEntropy,
    AdaptiveGossip,
    AdaptiveGroupSize,
    AdaptiveHeartbeat,
    POLICY_BUILDERS,
    ParameterTransition,
    PolicyError,
)
from repro.faults.invariants import InvariantMonitor
from repro.group.antientropy import AntiEntropyConfig
from repro.overlay.membership import MembershipError


def small_params(**overrides):
    defaults = dict(
        hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5, heartbeat_period=2.0
    )
    defaults.update(overrides)
    return AtumParameters(**defaults)


def build_cluster(seed=9, nodes=16, **cluster_kwargs):
    cluster = AtumCluster(small_params(), seed=seed, **cluster_kwargs)
    cluster.build_static([f"n{i}" for i in range(nodes)])
    return cluster


# --------------------------------------------------------------- bus contract


class TestParameterBusRejections:
    def test_adaptation_immutable_raises(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        for name in ("round_duration", "repair_min_age", "misses_before_eviction"):
            assert name in ADAPTATION_IMMUTABLE
            with pytest.raises(PolicyError, match="adaptation-immutable"):
                bus.propose(name, 1.0)
        metrics = cluster.sim.metrics
        assert metrics.counter("policy.rejected_immutable") == 3
        # Wiring bugs are not counted as proposals (those are runtime traffic).
        assert metrics.counter("policy.proposals") == 0

    def test_unmanaged_parameter_raises(self):
        bus = build_cluster().parameter_bus()
        with pytest.raises(PolicyError, match="not managed"):
            bus.propose("no_such_knob", 1.0)

    def test_out_of_bounds_rejected(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gmax", 1000) is False
        assert bus.propose("gmax", 1) is False
        assert cluster.sim.metrics.counter("policy.rejected_bounds") == 2
        assert cluster.params.gmax == 6

    def test_non_finite_values_are_rejected_and_counted_never_raised(self):
        # ``float(int(nan))`` raised ValueError and ``float(int(inf))``
        # OverflowError for the integral parameters; a runtime value is
        # rejected like any other out-of-bounds one.
        cluster = build_cluster(antientropy=AntiEntropyConfig(period=5.0))
        bus = cluster.parameter_bus()
        names = sorted(bus._specs)  # every managed parameter, integral or not
        assert {"gmin", "heartbeat_period", "antientropy_period"} <= set(names)
        before = {name: bus.current(name) for name in names}
        applied = []
        bus._appliers = {name: applied.append for name in names}
        metrics = cluster.sim.metrics
        rejected = 0
        for name in names:
            for value in (float("nan"), float("inf"), float("-inf")):
                assert bus.propose(name, value) is False
                rejected += 1
                assert metrics.counter("policy.rejected_bounds") == rejected
        assert metrics.counter("policy.proposals") == rejected == 3 * len(names) == 15
        assert metrics.counter("policy.transitions") == 0
        assert bus.history == [] and applied == []
        assert {name: bus.current(name) for name in names} == before

    def test_hysteresis_band_swallows_tiny_steps(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        # min_step for heartbeat_period is 10% of the 2.0 s baseline.
        assert bus.propose("heartbeat_period", 2.05) is False
        assert bus.propose("gmax", 6) is False  # no-op proposal
        assert cluster.sim.metrics.counter("policy.rejected_step") == 2

    def test_rate_limit_rejects_back_to_back_transitions(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gmax", 8) is True
        assert bus.propose("gmax", 10) is False
        assert cluster.sim.metrics.counter("policy.rejected_rate") == 1
        cluster.run_for(6.0)  # past min_interval, same direction: accepted
        assert bus.propose("gmax", 10) is True

    def test_oscillation_guard_rejects_quick_reversals(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gmax", 8) is True
        cluster.run_for(6.0)  # clears the rate limit, not the window
        assert bus.propose("gmax", 6) is False
        assert cluster.sim.metrics.counter("policy.rejected_oscillation") == 1
        cluster.run_for(10.0)  # now outside the 15 s oscillation window
        assert bus.propose("gmax", 6) is True

    def test_gmin_coupling_rejects_merge_split_violations(self):
        # With gmax=6, gmin=4 would violate 2*gmin <= gmax+1: a merged
        # undersized group could not split back inside the bounds.
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gmin", 4) is False
        assert cluster.sim.metrics.counter("policy.rejected_coupling") == 1
        assert cluster.params.gmin == 3

    def test_gmax_coupling_rejects_narrowing_below_2gmin(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gmax", 4) is False  # 4 < 2*3 - 1
        assert cluster.sim.metrics.counter("policy.rejected_coupling") == 1

    def test_antientropy_period_unmanaged_without_the_layer(self):
        bus = build_cluster().parameter_bus()
        assert bus.manages("antientropy_period") is False
        with pytest.raises(PolicyError, match="not managed"):
            bus.propose("antientropy_period", 1.0)

    def test_accepted_transition_is_recorded(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gmax", 8, reason="test") is True
        assert bus.transitions() == 1
        transition = bus.history[0]
        assert transition == ParameterTransition(
            time=0.0, name="gmax", old=6.0, new=8.0, reason="test"
        )
        metrics = cluster.sim.metrics
        assert metrics.counter("policy.transitions") == 1
        assert metrics.histogram("policy.gmax").count == 1


# ----------------------------------------------------------- applier coherence


class TestApplierCoherence:
    def test_gmax_change_reaches_params_engine_and_bus(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gmax", 8) is True
        assert cluster.params.gmax == 8
        assert cluster.engine.config.gmax == 8
        assert bus.current("gmax") == 8

    def test_narrowing_bounds_rebalances_oversized_groups(self):
        cluster = build_cluster(nodes=18)
        bus = cluster.parameter_bus()
        # Narrow gmin before gmax (the coupling-safe order), then let the
        # enforce_bounds reconfigurations drain.
        assert bus.propose("gmin", 2) is True
        assert bus.propose("gmax", 4) is True
        cluster.run_for(60.0)
        sizes = [view.size for view in cluster.engine.groups.values()]
        assert max(sizes) <= 4
        cluster.engine.validate()

    def test_future_joiner_sees_adapted_bounds(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gmax", 8) is True
        node = cluster.join("late-1", contact="n0")
        cluster.run_for(30.0)
        assert node.params.gmax == 8  # AtumParameters is shared by reference

    def test_heartbeat_change_keeps_suspicion_window_and_monitors_aligned(self):
        cluster = build_cluster(enable_heartbeats=True)
        cluster.run_for(1.0)
        bus = cluster.parameter_bus()
        misses = cluster.params.heartbeat_config().misses_before_eviction
        assert bus.propose("heartbeat_period", 3.0) is True
        assert cluster._suspicion_window == 3.0 * misses
        monitors = [
            node.heartbeats for node in cluster.nodes.values() if node.heartbeats
        ]
        assert monitors
        # Adoption is next-tick: pending immediately, effective after a tick.
        assert all(monitor._pending_period == 3.0 for monitor in monitors)
        cluster.run_for(2.5)
        assert all(monitor._period == 3.0 for monitor in monitors)
        assert all(monitor.config.period == 3.0 for monitor in monitors)

    def test_gossip_fanout_cap_and_fast_path_restore(self):
        cluster = build_cluster()
        bus = cluster.parameter_bus()
        assert bus.propose("gossip_fanout", 2) is True
        assert cluster.params.gossip_fanout == 2
        cluster.run_for(16.0)
        # Restoring the full hc fanout stores None: the flood fast path.
        assert bus.propose("gossip_fanout", 3) is True
        assert cluster.params.gossip_fanout is None

    def test_antientropy_override_reaches_existing_and_late_nodes(self):
        cluster = build_cluster(antientropy=AntiEntropyConfig(period=5.0))
        bus = cluster.parameter_bus()
        assert bus.manages("antientropy_period") is True
        assert bus.propose("antientropy_period", 2.5) is True
        repairers = [
            node.antientropy for node in cluster.nodes.values() if node.antientropy
        ]
        assert repairers
        assert all(repairer._period == 2.5 for repairer in repairers)
        # The frozen shared config is untouched; the override is per repairer
        # and add_node re-applies it to joiners (apply_to_node).
        assert cluster.antientropy_config.period == 5.0
        node = cluster.join("late-1", contact="n0")
        cluster.run_for(30.0)
        assert node.antientropy._period == 2.5


# -------------------------------------------------------- disabled = identical


class TestDisabledPoliciesAreInert:
    def _seeded_run(self, with_disabled_policies):
        cluster = build_cluster(seed=11, enable_heartbeats=True)
        if with_disabled_policies:
            cluster.install_middleware(
                MiddlewareChain(
                    AdaptiveGroupSize(enabled=False),
                    AdaptiveHeartbeat(enabled=False),
                    AdaptiveGossip(enabled=False),
                    AdaptiveAntiEntropy(enabled=False),
                )
            )
        cluster.broadcast("n0", {"payload": 1})
        cluster.join("late-1", contact="n0")
        trace = []
        cluster.sim.run(until=40.0, trace=trace)
        return trace, cluster.sim.metrics.snapshot()

    def test_disabled_policies_keep_a_seeded_run_byte_identical(self):
        baseline_trace, baseline_metrics = self._seeded_run(False)
        padded_trace, padded_metrics = self._seeded_run(True)
        assert padded_trace == baseline_trace
        assert padded_metrics == baseline_metrics

    def test_disabled_policy_arms_no_timer_and_binds_no_bus(self):
        policy = AdaptiveGroupSize(enabled=False)
        assert policy.timer_period is None
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(policy))
        assert policy.bus is None
        # No bus means no ParameterBus was even constructed for the cluster.
        assert cluster._parameter_bus is None


# -------------------------------------------------------- adaptation under load


class TestAdaptationUnderLoad:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_churn_adaptation_transitions_with_zero_violations(self, seed):
        params = small_params(
            smr_kind=SmrKind.ASYNC, checkpoint_interval=2, request_timeout=2.0
        )
        cluster = AtumCluster(
            params,
            seed=seed,
            enable_heartbeats=True,
            antientropy=AntiEntropyConfig(period=4.0),
        )
        monitor = InvariantMonitor()
        cluster.attach_monitor(monitor)
        cluster.build_static([f"n{i}" for i in range(20)])
        chain = cluster.middleware_chain()
        for key in ("group_size", "heartbeat", "antientropy"):
            chain.add(POLICY_BUILDERS[key]())
        # Churn storm: a join (and a broadcast) every other second is well
        # above the policies' high-churn thresholds.
        for index in range(12):
            cluster.join(f"c{index}", contact="n0")
            cluster.run_for(1.0)
            cluster.broadcast(f"n{index % 8}", {"seq": index})
            cluster.run_for(1.0)
        for index in range(6):
            try:
                cluster.leave(f"c{index}")
            except MembershipError:
                pass  # join still in flight; the storm, not the leave, matters
            cluster.run_for(1.0)
        cluster.run_for(40.0)
        assert cluster.sim.metrics.counter("policy.transitions") >= 1
        assert monitor.finalize() == []
        cluster.engine.validate()
