"""Standing differential: heartbeats on against heartbeats off.

A heartbeat is a burst its peers read (:meth:`repro.net.network.Network.heard`):
it takes no latency draw, no downlink time and no queue slot.  So as long as
no suspicion fires, a heartbeats-on run must be the heartbeats-off run of the
same seed in everything but the heartbeats themselves: the same broadcast
deliveries at the same times, the same ``atum.delivery_latency`` sample, the
same non-heartbeat ``net.messages_*`` counters and the same final state of the
``network`` RNG stream.  A heartbeats-only run leaves that stream untouched.
"""

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters
from repro.net.message import Heartbeat
from repro.workloads.churn import ChurnConfig, ChurnWorkload

NET_COUNTERS = (
    "net.messages_sent",
    "net.messages_delivered",
    "net.messages_partitioned",
    "net.messages_undeliverable",
    "net.messages_lost",
)


def _cluster(heartbeats, seed, nodes):
    params = AtumParameters(
        hc=3, rwl=6, gmin=4, gmax=8, round_duration=0.5, heartbeat_period=5.0
    )
    cluster = AtumCluster(params, seed=seed, enable_heartbeats=heartbeats)
    # Count the heartbeat copies sent and heard, so they can be taken out of
    # the network's counters.  Wrapped before any node binds ``send_many``.
    beats = {"sent": 0, "heard": 0}
    send_many = cluster.network.send_many

    def counting(sender, receivers, payload, size_bytes=256):
        heard = send_many(sender, receivers, payload, size_bytes)
        if type(payload) is Heartbeat:
            beats["sent"] += len(receivers)
            beats["heard"] += heard
        return heard

    cluster.network.send_many = counting
    cluster.build_static([f"n{i}" for i in range(nodes)])
    return cluster, beats


def _outcome(cluster, beats):
    sim = cluster.sim
    counters = {name: sim.metrics.counter(name) for name in NET_COUNTERS}
    counters["net.messages_sent"] -= beats["sent"]
    counters["net.messages_delivered"] -= beats["heard"]
    return {
        "delivered": {address: dict(node.delivered) for address, node in cluster.nodes.items()},
        "latency": list(sim.metrics.histogram("atum.delivery_latency").samples),
        "counters": counters,
        "network_rng": sim.rng.stream("network").getstate(),
        "members": sorted(cluster.engine.node_group),
    }


def _static(heartbeats):
    cluster, beats = _cluster(heartbeats, seed=11, nodes=40)
    for index in range(6):
        cluster.sim.schedule_at(
            0.3 + 1.7 * index, lambda i=index: cluster.broadcast(f"n{3 * i}", i)
        )
    cluster.run(until=40.0)
    return cluster, beats


def _churn(heartbeats):
    cluster, beats = _cluster(heartbeats, seed=2, nodes=60)
    config = ChurnConfig(rate_per_minute=60.0, duration=20.0, warmup=2.0)
    churn = ChurnWorkload(cluster.engine, config, join_fn=cluster.join)
    rng = cluster.sim.rng.stream("origins")

    def send():
        members = sorted(cluster.correct_member_addresses())
        cluster.broadcast(members[rng.randrange(len(members))], None)

    for index in range(5):
        cluster.sim.schedule_at(1.0 + 4.5 * index, send)
    churn.run()
    cluster.run_until_membership_quiescent()
    cluster.run_for(20.0)
    return cluster, beats


@pytest.mark.parametrize("scenario", [_static, _churn], ids=["static", "churn"])
def test_heartbeats_change_nothing_else_while_no_suspicion_fires(scenario):
    on_cluster, on_beats = scenario(True)
    off_cluster, off_beats = scenario(False)
    # Not vacuous: heartbeats were sent and heard, broadcasts delivered, and
    # the failure detector never suspected anyone.
    assert on_beats["heard"] > 1000 and off_beats == {"sent": 0, "heard": 0}
    assert on_cluster.sim.metrics.counter("atum.deliveries") > 100
    assert on_cluster.sim.metrics.counter("group.evictions_proposed") == 0
    assert _outcome(on_cluster, on_beats) == _outcome(off_cluster, off_beats)


def test_a_heartbeats_only_run_leaves_the_network_stream_untouched():
    cluster, beats = _cluster(True, seed=5, nodes=24)
    stream = cluster.sim.rng.stream("network")
    state = stream.getstate()
    cluster.run(until=60.0)
    assert beats["heard"] > 1000
    assert stream.getstate() == state
