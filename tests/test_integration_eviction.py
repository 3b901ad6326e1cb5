"""End-to-end tests of the heartbeat/eviction path and cluster fault handling."""

import pytest

from repro.core import AtumCluster, AtumParameters, SmrKind
from repro.group.heartbeat import Heartbeat
from repro.overlay.random_walk import WalkMode


def params_with_heartbeats(period=20.0):
    return AtumParameters(
        hc=3,
        rwl=5,
        gmax=6,
        gmin=3,
        smr_kind=SmrKind.SYNC,
        round_duration=0.5,
        heartbeat_period=period,
    )


class TestHeartbeatDrivenEviction:
    def test_crashed_node_is_eventually_evicted(self):
        cluster = AtumCluster(params_with_heartbeats(), seed=1, enable_heartbeats=True)
        cluster.build_static([f"n{i}" for i in range(18)])
        assert cluster.system_size == 18
        cluster.crash("n4")
        # After several missed heartbeat periods, n4's vgroup peers suspect it
        # and the eviction (which proceeds like a leave) removes it.
        cluster.run(until=600.0)
        assert cluster.system_size == 17
        assert "n4" not in cluster.engine.node_group
        assert cluster.sim.metrics.counter("membership.evictions_started") >= 1

    def test_responsive_nodes_are_not_evicted(self):
        cluster = AtumCluster(params_with_heartbeats(), seed=2, enable_heartbeats=True)
        cluster.build_static([f"n{i}" for i in range(18)])
        cluster.run(until=400.0)
        assert cluster.system_size == 18
        assert cluster.sim.metrics.counter("membership.evictions_started") == 0

    def test_system_still_broadcasts_after_eviction(self):
        cluster = AtumCluster(params_with_heartbeats(), seed=3, enable_heartbeats=True)
        cluster.build_static([f"n{i}" for i in range(18)])
        cluster.crash("n7")
        cluster.run(until=600.0)
        assert "n7" not in cluster.engine.node_group
        bcast = cluster.broadcast("n0", "post-eviction")
        cluster.run(until=cluster.sim.now + 60.0)
        assert cluster.delivery_fraction(bcast) >= 16 / 17

    def test_eviction_needs_a_majority_of_suspicions(self):
        cluster = AtumCluster(params_with_heartbeats(), seed=4)
        cluster.build_static([f"n{i}" for i in range(12)])
        peers = [m for m in cluster.engine.group_of("n5").members if m != "n5"]
        # A single (possibly Byzantine) suspicion must not evict a correct node.
        cluster.request_eviction("n5", suspected_by=peers[0])
        cluster.run_until_membership_quiescent(max_time=300.0)
        assert cluster.system_size == 12
        # Once a majority of its vgroup peers report it, the eviction proceeds
        # exactly once, even if further (duplicate) reports arrive.
        for suspector in peers:
            cluster.request_eviction("n5", suspected_by=suspector)
            cluster.request_eviction("n5", suspected_by=suspector)
        cluster.run_until_membership_quiescent(max_time=600.0)
        assert cluster.system_size == 11
        assert cluster.sim.metrics.counter("membership.evictions_started") == 1

    def test_eviction_request_for_unknown_node_ignored(self):
        cluster = AtumCluster(params_with_heartbeats(), seed=5)
        cluster.build_static([f"n{i}" for i in range(12)])
        cluster.request_eviction("ghost", suspected_by="n1")
        cluster.run(until=60.0)
        assert cluster.system_size == 12

    def test_byzantine_node_cannot_evict_correct_peers(self):
        # A Byzantine node that pretends not to receive heartbeats (section
        # 6.1.3) and reports every peer, every period, cannot push correct
        # nodes out on its own.
        period = 20.0
        cluster = AtumCluster(params_with_heartbeats(period), seed=7, enable_heartbeats=True)
        cluster.build_static([f"n{i}" for i in range(18)])
        victim_group = cluster.engine.group_of("n2")
        correct = [m for m in victim_group.members if m != "n2"]

        def accuse():
            for member in correct:
                cluster.request_eviction(member, suspected_by="n2")
            cluster.sim.schedule(period, accuse)

        cluster.sim.schedule(period, accuse)
        cluster.run(until=400.0)
        # A single accuser is not a majority, so no correct node is evicted.
        assert all(member in cluster.engine.node_group for member in correct)
        assert cluster.sim.metrics.counter("membership.evictions_started") == 0


    def test_forged_heartbeats_cannot_keep_a_crashed_peer_alive(self):
        # A heartbeat counts for the peer the transport authenticated, not the
        # one the frame names: a Byzantine co-member that sends
        # ``Heartbeat(crashed_peer)`` every period used to refresh the crashed
        # peer's deadline at every correct member, for ever.
        period = 20.0
        cluster = AtumCluster(params_with_heartbeats(period), seed=8, enable_heartbeats=True)
        cluster.build_static([f"n{i}" for i in range(6)])
        members = cluster.engine.group_of("n4").members
        assert len(members) == 6
        forger = "n2"
        others = [m for m in members if m != forger]

        def forge():
            cluster.network.send_many(forger, others, Heartbeat("n4"), 64)
            cluster.sim.schedule(period, forge)

        cluster.crash("n4")
        forge()
        # Suspected on the normal deadline (three missed periods) and evicted.
        cluster.run(until=8 * period)
        assert cluster.sim.metrics.counter("group.evictions_proposed") >= 3
        assert "n4" not in cluster.engine.node_group
        assert cluster.system_size == 5
        # The forger's frames counted as its own heartbeats: nobody else left.
        assert cluster.sim.metrics.counter("membership.evictions_started") == 1


def recorded_reports(cluster):
    """``(time, reporter, suspect)`` per suspicion report, in call order."""
    reports = []
    request_eviction = cluster.request_eviction

    def recording(peer, suspected_by):
        reports.append((cluster.sim.now, suspected_by, peer))
        request_eviction(peer, suspected_by=suspected_by)

    # Nodes look ``request_eviction`` up on the cluster at call time.
    cluster.request_eviction = recording
    return reports


class TestMuteMeansStopped:
    """A node that cannot hear must not heartbeat: its peers see a crash."""

    MUTED_AT, HORIZON = 2.0, 20.0

    def _run(self, fault):
        cluster = AtumCluster(params_with_heartbeats(1.0), seed=3, enable_heartbeats=True)
        cluster.build_static([f"n{i}" for i in range(24)])
        reports = recorded_reports(cluster)
        cluster.sim.schedule_at(self.MUTED_AT, lambda: fault(cluster))
        cluster.run(until=self.HORIZON)
        return cluster, reports

    def test_make_byzantine_mute_reports_exactly_what_a_crash_reports(self):
        muted, muted_reports = self._run(lambda c: c.make_byzantine(["n3"], mode="mute"))
        crashed, crash_reports = self._run(lambda c: c.crash("n3"))
        assert muted_reports == crash_reports
        # Not vacuous: n3's co-members reported it, and only it, and it left.
        assert {suspect for _, _, suspect in crash_reports} == {"n3"}
        assert "n3" not in muted.engine.node_group
        assert "n3" not in crashed.engine.node_group
        assert not muted.node("n3").heartbeats.running

    @pytest.mark.parametrize("behaviour", ["silent", "evict_attack", "equivocate"])
    def test_a_crashed_node_that_turns_byzantine_heartbeats_again(self, behaviour):
        # Every behaviour but mute keeps the heartbeat monitor, so a crashed
        # node given one resumes heartbeating and its peers keep it.
        def crash_then_turn(cluster):
            cluster.crash("n3")
            cluster.make_byzantine(["n3"], mode=behaviour)

        cluster, reports = self._run(crash_then_turn)
        assert cluster.node("n3").heartbeats.running
        assert [report for report in reports if report[2] == "n3"] == []
        assert cluster.sim.metrics.counter("group.evictions_proposed") == 0
        assert "n3" in cluster.engine.node_group


class TestWalkModeSelection:
    def test_sync_uses_backward_phase(self):
        params = AtumParameters(smr_kind=SmrKind.SYNC)
        assert params.walk_mode is WalkMode.BACKWARD_PHASE

    def test_async_uses_certificates(self):
        params = AtumParameters(smr_kind=SmrKind.ASYNC)
        assert params.walk_mode is WalkMode.CERTIFICATES

    def test_cost_model_follows_engine_choice(self):
        sync_cost = AtumParameters(smr_kind=SmrKind.SYNC).cost_model()
        async_cost = AtumParameters(smr_kind=SmrKind.ASYNC).cost_model()
        assert sync_cost.synchronous and not async_cost.synchronous


class TestRejoinAfterEviction:
    def test_evicted_node_can_rejoin(self):
        cluster = AtumCluster(params_with_heartbeats(), seed=6)
        cluster.build_static([f"n{i}" for i in range(12)])
        peers = [m for m in cluster.engine.group_of("n3").members if m != "n3"]
        for suspector in peers:
            cluster.request_eviction("n3", suspected_by=suspector)
        cluster.run_until_membership_quiescent(max_time=600.0)
        assert cluster.system_size == 11
        # The node recovers and rejoins through a contact node (section 5.1).
        cluster.node("n3").byzantine = None
        cluster.join("n3", contact="n0")
        cluster.run_until_membership_quiescent(max_time=600.0)
        assert cluster.system_size == 12
        assert cluster.node("n3").is_member
