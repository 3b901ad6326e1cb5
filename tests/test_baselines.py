"""Tests for the baseline systems (classic gossip, whole-system SMR, NFS)."""

import pytest

from repro.baselines import (
    ClassicGossipSimulation,
    GossipConfig,
    NfsServerModel,
    global_smr_latency,
)
from repro.baselines.global_smr import simulate_small


def rounds_to_full_coverage(simulation):
    times = simulation.run_broadcast()
    assert len(times) == simulation.config.num_nodes
    return round(max(times.values()) / simulation.config.round_duration)


class TestClassicGossip:
    def test_everyone_is_reached(self):
        simulation = ClassicGossipSimulation(GossipConfig(num_nodes=200, fanout=10))
        times = simulation.run_broadcast()
        assert len(times) == 200

    def test_latency_grows_with_rounds(self):
        simulation = ClassicGossipSimulation(GossipConfig(num_nodes=200, fanout=10, round_duration=1.5))
        latencies = simulation.delivery_latencies()
        assert min(latencies) == 0.0
        assert max(latencies) % 1.5 == pytest.approx(0.0)

    def test_dissemination_is_logarithmic(self):
        simulation = ClassicGossipSimulation(GossipConfig(num_nodes=850, fanout=15))
        rounds = rounds_to_full_coverage(simulation)
        assert rounds <= 6

    def test_larger_fanout_fewer_rounds(self):
        small = ClassicGossipSimulation(GossipConfig(num_nodes=500, fanout=2), seed=1)
        large = ClassicGossipSimulation(GossipConfig(num_nodes=500, fanout=20), seed=1)
        assert rounds_to_full_coverage(large) <= rounds_to_full_coverage(small)

    def test_faster_than_atum_sync_would_be(self):
        # The gossip baseline has no BFT phase, so its max latency should be
        # well below the ~8 rounds Atum Sync needs (Figure 8's ordering).
        simulation = ClassicGossipSimulation(GossipConfig(num_nodes=850, fanout=15, round_duration=1.5))
        assert max(simulation.delivery_latencies()) < 8 * 1.5


class TestGlobalSmr:
    def test_paper_configuration_latency(self):
        # 850 nodes, 50 tolerated faults, 1.5 s rounds -> 76.5 s.
        assert global_smr_latency(850, 50, 1.5) == pytest.approx(76.5)

    def test_default_faults_derived_from_size(self):
        assert global_smr_latency(9, round_duration=1.0) == pytest.approx(5.0)

    def test_small_simulation_consistent_with_analytic(self):
        simulated = simulate_small(num_nodes=7, round_duration=0.5)
        analytic = global_smr_latency(7, round_duration=0.5)
        # The simulation includes the wait for the first round boundary, so it
        # may exceed the analytic value by up to two rounds.
        assert analytic <= simulated <= analytic + 2 * 0.5

    def test_whole_system_smr_much_slower_than_gossip(self):
        smr = global_smr_latency(850, 50, 1.5)
        gossip = ClassicGossipSimulation(GossipConfig(num_nodes=850, fanout=15, round_duration=1.5))
        assert smr > max(gossip.delivery_latencies()) * 5


class TestNfs:
    def test_read_latency_grows_with_size(self):
        server = NfsServerModel()
        server.store("small", 2 * 1024 * 1024)
        server.store("large", 512 * 1024 * 1024)
        assert server.read_latency("large") > server.read_latency("small")

    def test_latency_per_mb_decreases_with_size(self):
        server = NfsServerModel()
        server.store("small", 2 * 1024 * 1024)
        server.store("large", 2 * 1024 * 1024 * 1024)
        assert server.read_latency_per_mb("large") < server.read_latency_per_mb("small")

    def test_unknown_file_raises(self):
        server = NfsServerModel()
        with pytest.raises(KeyError):
            server.read_latency("ghost")

    def test_negative_size_rejected(self):
        server = NfsServerModel()
        with pytest.raises(ValueError):
            server.store("bad", -1)
