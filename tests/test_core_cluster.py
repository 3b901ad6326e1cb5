"""Integration tests: full Atum clusters (config, broadcast, faults, churn)."""

import dataclasses
import os
import subprocess
import sys
from collections import Counter

import pytest

import repro
from repro.core import AtumCluster, AtumParameters, SmrKind
from repro.core.config import parameter_table
from repro.core.node import AtumNode
from repro.faults.invariants import InvariantMonitor
from repro.group import antientropy
from repro.group.antientropy import AntiEntropyConfig
from repro.group.heartbeat import MISSES_BEFORE_EVICTION
from repro.overlay.membership import MembershipError
from repro.workloads.churn import ChurnConfig, ChurnWorkload


def test_importing_the_cluster_does_not_load_scipy():
    """Only the Figure-4 chi-square simulation and the binomial robustness
    analysis need scipy; running a cluster must not pay for importing it (and
    must work where it is not installed)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = "import sys, repro.core.cluster; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 0


def test_growth_and_churn_do_not_depend_on_the_hash_seed():
    """``MembershipEngine._merge`` drew its target from a list in set order, so
    ``examples/churn_and_growth.py`` printed 161 leaves / 29 merges under
    ``PYTHONHASHSEED=0`` and 150 / 21 under 1.  Two processes, two hash seeds, one output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    example = os.path.join(os.path.dirname(__file__), "..", "examples", "churn_and_growth.py")
    outputs = [
        subprocess.run(
            [sys.executable, example],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for hash_seed in ("0", "1")
    ]
    assert "merges so far" in outputs[0]
    assert outputs[0] == outputs[1]


class TestParameters:
    def test_defaults_valid(self):
        params = AtumParameters()
        assert params.gmin <= params.gmax
        assert params.walk_mode is not None

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AtumParameters(gmin=10, gmax=5)

    def test_for_system_size_scales_group_size(self):
        small = AtumParameters.for_system_size(50)
        large = AtumParameters.for_system_size(5000)
        assert large.gmax >= small.gmax
        assert large.rwl >= small.rwl

    def test_async_uses_bigger_k(self):
        sync = AtumParameters.for_system_size(800, SmrKind.SYNC)
        asyn = AtumParameters.for_system_size(800, SmrKind.ASYNC)
        assert asyn.k > sync.k
        assert asyn.gmax > sync.gmax

    def test_fault_threshold_by_engine(self):
        sync = AtumParameters(smr_kind=SmrKind.SYNC)
        asyn = AtumParameters(smr_kind=SmrKind.ASYNC)
        assert sync.fault_threshold(13) == 6
        assert asyn.fault_threshold(13) == 4

    def test_parameter_table_matches_table_1(self):
        table = parameter_table()
        names = [row["parameter"] for row in table]
        assert names == ["hc", "rwl", "gmax", "gmin", "k"]

    @pytest.mark.parametrize("kind", [SmrKind.SYNC, SmrKind.ASYNC])
    def test_parameters_reach_every_layer_by_reference(self, kind):
        cluster = AtumCluster(small_params(kind=kind), seed=1)
        cluster.build_static([f"n{i}" for i in range(12)])
        assert cluster.engine.params is cluster.params
        replicas = [node.replica for node in cluster.nodes.values()]
        assert len(replicas) == 12
        assert all(replica.params is cluster.params for replica in replicas)

    def test_parameters_reject_an_empty_group_and_checkpointing_off(self):
        with pytest.raises(ValueError):
            AtumParameters(gmin=0)
        with pytest.raises(ValueError):
            AtumParameters(checkpoint_interval=0)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["heartbeat_period", "round_duration", "request_timeout"])
    def test_a_time_that_cannot_drive_a_timer_is_rejected(self, name, value):
        # Zero re-armed a heartbeat tick at the same instant forever, -1 and
        # NaN failed inside build_static and round_duration=0 divided by zero.
        with pytest.raises(ValueError, match=name):
            AtumParameters(**{name: value})

    def test_cost_model_latency_follows_the_engine(self):
        assert AtumParameters(smr_kind=SmrKind.SYNC).cost_model().network_latency == 0.001
        assert AtumParameters(smr_kind=SmrKind.ASYNC).cost_model().network_latency == 0.05

    def test_replace_derives_a_validated_copy(self):
        params = AtumParameters()
        changed = dataclasses.replace(params, hc=9, heartbeat_period=5.0)
        assert (changed.hc, changed.heartbeat_period) == (9, 5.0)
        assert (params.hc, params.heartbeat_period) == (5, 60.0)  # original untouched
        assert changed.gmax == params.gmax
        with pytest.raises(ValueError):
            dataclasses.replace(params, gmin=20)  # validation still runs on the copy

    def test_parameters_are_fixed_per_deployment(self):
        cluster = AtumCluster(small_params())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cluster.params.gmax = 8
        assert cluster.params.gmax == 6

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AtumParameters)])
    def test_every_field_is_fixed_per_deployment(self, name):
        params = AtumParameters()
        before = getattr(params, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, name, before)
        assert getattr(params, name) == before

    @pytest.mark.parametrize("period", [0.5, 2.0, 60.0])
    def test_suspicion_window_is_the_heartbeat_deadline(self, period):
        params = dataclasses.replace(small_params(), heartbeat_period=period)
        cluster = AtumCluster(params, enable_heartbeats=True)
        assert cluster._suspicion_window == params.heartbeat_period * MISSES_BEFORE_EVICTION

    def test_late_joiner_runs_the_deployment_parameters(self):
        params = dataclasses.replace(small_params(), heartbeat_period=2.0)
        cluster = AtumCluster(params, seed=9, enable_heartbeats=True)
        cluster.build_static([f"n{i}" for i in range(16)])
        node = cluster.join("late-1", contact="n0")
        cluster.run_for(30.0)
        assert node.is_member
        assert node.params is cluster.params  # one instance per deployment
        monitors = [peer.heartbeats for peer in cluster.nodes.values()]
        assert len(monitors) == 17
        # One clock, at the deployment's period, ticks the late joiner too.
        assert all(monitor.clock is cluster.heartbeat_clock for monitor in monitors)
        assert cluster.heartbeat_clock.period == 2.0


def small_params(kind=SmrKind.SYNC, round_duration=0.5):
    return AtumParameters(
        hc=3,
        rwl=5,
        gmax=6,
        gmin=3,
        smr_kind=kind,
        round_duration=round_duration,
        request_timeout=2.0,
    )


class TestBootstrapAndStatic:
    def test_bootstrap_single_node(self):
        cluster = AtumCluster(small_params())
        node = cluster.bootstrap("n0")
        assert cluster.system_size == 1
        assert node.is_member

    def test_build_static_assigns_views_to_all_nodes(self):
        cluster = AtumCluster(small_params())
        addresses = [f"n{i}" for i in range(30)]
        cluster.build_static(addresses)
        assert cluster.system_size == 30
        for address in addresses:
            assert cluster.node(address).is_member
            assert cluster.node(address).replica is not None

    def test_directory_exposes_neighbors(self):
        cluster = AtumCluster(small_params())
        cluster.build_static([f"n{i}" for i in range(30)])
        some_group = next(iter(cluster.engine.groups))
        neighbors = cluster.cycle_neighbor_ids(some_group)
        assert len(neighbors) == cluster.params.hc
        for pred, succ in neighbors:
            assert cluster.view_of_group(pred) is not None
            assert cluster.view_of_group(succ) is not None


class TestBroadcastSync:
    def test_broadcast_reaches_every_correct_node(self):
        cluster = AtumCluster(small_params())
        cluster.build_static([f"n{i}" for i in range(30)])
        bcast = cluster.broadcast("n0", {"hello": "world"})
        cluster.run(until=60.0)
        assert cluster.delivery_fraction(bcast) == 1.0

    def test_broadcast_delivery_calls_application_callback(self):
        received = []
        cluster = AtumCluster(small_params())
        cluster.build_static(
            [f"n{i}" for i in range(12)], deliver_fn=lambda m: received.append(m.payload)
        )
        cluster.broadcast("n3", "payload-x")
        cluster.run(until=60.0)
        assert received.count("payload-x") == 12

    def test_broadcast_latency_bounded_by_rounds(self):
        params = small_params(round_duration=0.5)
        cluster = AtumCluster(params)
        cluster.build_static([f"n{i}" for i in range(40)])
        start = cluster.sim.now
        bcast = cluster.broadcast("n0", "m")
        cluster.run(until=60.0)
        latencies = cluster.delivery_latencies(bcast, start)
        assert len(latencies) == 40
        # Paper (Fig. 8): Sync latency is bounded by ~8 rounds.
        assert max(latencies) <= 10 * params.round_duration

    def test_multiple_broadcasts_from_different_origins(self):
        cluster = AtumCluster(small_params())
        cluster.build_static([f"n{i}" for i in range(24)])
        ids = [cluster.broadcast(f"n{i}", f"msg-{i}") for i in range(0, 24, 6)]
        cluster.run(until=120.0)
        for bcast in ids:
            assert cluster.delivery_fraction(bcast) == 1.0

    def test_broadcast_from_non_member_raises(self):
        cluster = AtumCluster(small_params())
        cluster.build_static([f"n{i}" for i in range(10)])
        outsider = cluster.add_node("outsider")
        with pytest.raises(RuntimeError):
            outsider.broadcast("x")


class TestBroadcastAsync:
    def test_async_broadcast_reaches_everyone_faster_than_sync(self):
        def run(kind):
            cluster = AtumCluster(small_params(kind=kind, round_duration=1.0), seed=3)
            cluster.build_static([f"n{i}" for i in range(30)])
            start = cluster.sim.now
            bcast = cluster.broadcast("n0", "m")
            cluster.run(until=120.0)
            latencies = cluster.delivery_latencies(bcast, start)
            assert cluster.delivery_fraction(bcast) == 1.0
            return max(latencies)

        sync_latency = run(SmrKind.SYNC)
        async_latency = run(SmrKind.ASYNC)
        assert async_latency < sync_latency

    def test_async_uses_wan_profile_by_default(self):
        from repro.net.latency import WanProfile

        cluster = AtumCluster(small_params(kind=SmrKind.ASYNC))
        assert isinstance(cluster.latency_model, WanProfile)


class TestByzantineFaults:
    def test_broadcast_with_byzantine_minority_still_delivers(self):
        params = small_params()
        addresses = [f"n{i}" for i in range(34)]
        byzantine = addresses[-2:]  # ~6% of nodes, as in the paper
        cluster = AtumCluster(params, seed=1)
        cluster.build_static(addresses, byzantine=byzantine)
        bcast = cluster.broadcast("n0", "despite-faults")
        cluster.run(until=90.0)
        assert cluster.delivery_fraction(bcast) == 1.0

    def test_latency_unaffected_by_byzantine_nodes(self):
        params = small_params()

        def max_latency(byzantine):
            cluster = AtumCluster(params, seed=5)
            addresses = [f"n{i}" for i in range(32)]
            cluster.build_static(addresses, byzantine=byzantine)
            origin = next(a for a in addresses if a not in byzantine)
            start = cluster.sim.now
            bcast = cluster.broadcast(origin, "m")
            cluster.run(until=90.0)
            latencies = cluster.delivery_latencies(bcast, start)
            return max(latencies)

        clean = max_latency([])
        faulty = max_latency(["n30", "n31"])
        # Paper section 6.1.3: no performance decay with 5.8% Byzantine nodes.
        assert faulty <= clean * 1.5 + 1.0

    def test_mute_crash_does_not_block_delivery_to_others(self):
        cluster = AtumCluster(small_params(), seed=2)
        cluster.build_static([f"n{i}" for i in range(20)])
        cluster.crash("n7")
        bcast = cluster.broadcast("n0", "m")
        cluster.run(until=60.0)
        # All correct nodes except possibly the crashed one deliver.
        fraction = cluster.delivery_fraction(bcast)
        assert fraction >= 18 / 20


class TestJoinLeaveThroughCluster:
    def test_join_through_contact_then_broadcast(self):
        cluster = AtumCluster(small_params(), seed=4)
        cluster.build_static([f"n{i}" for i in range(12)])
        cluster.join("newcomer", contact="n0")
        cluster.run_until_membership_quiescent(max_time=600.0)
        assert cluster.system_size == 13
        assert cluster.node("newcomer").is_member
        bcast = cluster.broadcast("newcomer", "hello-from-newcomer")
        cluster.run(until=cluster.sim.now + 60.0)
        assert cluster.delivery_fraction(bcast) == 1.0

    def test_leave_removes_membership(self):
        cluster = AtumCluster(small_params(), seed=6)
        cluster.build_static([f"n{i}" for i in range(16)])
        cluster.leave("n3")
        cluster.run_until_membership_quiescent(max_time=600.0)
        assert not cluster.node("n3").is_member
        assert cluster.system_size == 15

    def test_growth_from_bootstrap_via_joins(self):
        cluster = AtumCluster(small_params(), seed=7)
        cluster.bootstrap("seed-node")
        for index in range(10):
            cluster.join(f"j{index}", contact="seed-node")
            cluster.run(until=cluster.sim.now + 30.0)
        cluster.run_until_membership_quiescent(max_time=1200.0)
        assert cluster.system_size == 11
        cluster.engine.validate()


class TestMembershipRecordedOnce:
    """The engine's view path is the one record of membership history."""

    def churn(self, cluster):
        cluster.build_static([f"n{i}" for i in range(24)])
        config = ChurnConfig(rate_per_minute=30.0, duration=40.0, warmup=5.0)
        ChurnWorkload(cluster.engine, config, join_fn=cluster.join).run()
        cluster.run_until_membership_quiescent()
        assert cluster.sim.metrics.counter("membership.joins_completed") > 0

    def test_smallest_size_folds_every_view_removed_groups_included(self):
        cluster = AtumCluster(small_params(), seed=1)
        smallest = {}
        forward = cluster.engine.on_view_changed

        def fold(view):
            smallest[view.group_id] = min(view.size, smallest.get(view.group_id, view.size))
            forward(view)

        cluster.engine.on_view_changed = fold
        self.churn(cluster)
        assert cluster.sim.metrics.counter("membership.merges") > 0
        assert set(smallest) - set(cluster.engine.groups)  # some groups were removed
        assert cluster.engine.smallest_size == smallest
        for group_id, size in smallest.items():
            assert cluster.smallest_group_size(group_id) == size

    def test_every_node_installs_each_view_once(self, monkeypatch):
        installs = Counter()
        views = []  # keeps every view alive, so no id() is reused
        install = AtumNode.install_view

        def counting_install(node, view):
            installs[node.address, id(view)] += 1
            views.append(view)
            install(node, view)

        monkeypatch.setattr(AtumNode, "install_view", counting_install)
        self.churn(AtumCluster(small_params(), seed=1))
        assert installs and max(installs.values()) == 1


class TestChurnStormUnderLoad:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_churn_storm_runs_with_zero_violations(self, seed, monkeypatch):
        # PBFT with checkpoints, heartbeats and anti-entropy, all on fixed
        # parameters, under a join (and a broadcast) every other second.
        monkeypatch.setattr(antientropy, "PERIOD", 4.0)
        params = dataclasses.replace(
            small_params(kind=SmrKind.ASYNC), heartbeat_period=2.0, checkpoint_interval=2
        )
        cluster = AtumCluster(
            params,
            seed=seed,
            enable_heartbeats=True,
            antientropy=AntiEntropyConfig(),
        )
        monitor = InvariantMonitor()
        cluster.attach_monitor(monitor)
        cluster.build_static([f"n{i}" for i in range(20)])
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
        assert monitor.finalize() == []
        cluster.engine.validate()
