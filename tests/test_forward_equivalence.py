"""Standing equivalence of the gossip forward: six tiny runs, each pinned by a
digest of what it did.

Each run hashes the delivery time of every (node, broadcast), the number of
share bursts and of shares per (broadcast, own vgroup, target vgroup), the
forward counters (``atum.gossip_forwards``, ``atum.forwards_suppressed``,
``atum.forwards_deferred``), the messenger counters ``group.pending_retired``
and ``group.messages_accepted``, and the kernel's event count.  A refactor of
the forward path that keeps every digest changed nothing a run can observe.
A change that moves one on purpose re-pins it and says which counter moved.
Once a run drains, no Sync forward is left pending and no late-share set is
left counted.

``python tests/test_forward_equivalence.py`` prints each run's digest and
counters; with ``PYTHONPATH`` at another tree's ``src`` it prints that
tree's, which is how the pins below were taken.
"""

import hashlib

import pytest

from repro.core import AtumCluster, AtumParameters, SmrKind
from repro.faults.behaviours import apply_plan
from repro.faults.plan import FaultPlan, LinkFault
from repro.group.antientropy import AntiEntropyConfig
from repro.group.messages import GroupMessenger
from repro.workloads.churn import ChurnConfig, ChurnWorkload

COUNTERS = (
    "atum.gossip_forwards",
    "atum.forwards_suppressed",
    "atum.forwards_deferred",
    "group.pending_retired",
    "group.messages_accepted",
)

#: Digest of each run, taken on the tree before the Sync forward became one
#: record per (node, broadcast).
PINNED = {
    "async_10b": "ba37f1b169068e0d",
    "async_16kb": "1797642fa8fcad1f",
    "churn": "93d5ae22501cf918",
    "lossy": "b8b8b4d323a7c88b",
    "sync_flood_10b": "9e63f93d10484162",
    "sync_flood_16kb": "81500347416cd4ae",
}


def _params(kind=SmrKind.SYNC, **overrides):
    return AtumParameters(
        hc=3, rwl=5, gmax=6, gmin=3, smr_kind=kind, round_duration=0.5, **overrides
    )


def _flood(kind, size_bytes, n=40):
    def build():
        cluster = AtumCluster(_params(kind), seed=3)
        cluster.build_static([f"n{i}" for i in range(n)])
        for index, origin in enumerate(("n0", "n7", "n15", f"n{n - 10}")):
            cluster.sim.schedule_at(
                1.0 + 0.7 * index,
                lambda o=origin: cluster.broadcast(o, o, size_bytes=size_bytes),
            )
        cluster.run(until=30.0)
        return cluster

    return build


def _churn():
    params = AtumParameters(hc=3, rwl=6, gmin=4, gmax=8, round_duration=0.5, heartbeat_period=5.0)
    cluster = AtumCluster(params, seed=2, enable_heartbeats=True)
    cluster.build_static([f"n{i}" for i in range(60)])
    config = ChurnConfig(rate_per_minute=60.0, duration=20.0, warmup=2.0)
    churn = ChurnWorkload(cluster.engine, config, join_fn=cluster.join)
    rng = cluster.sim.rng.stream("origins")

    def send():
        members = sorted(cluster.correct_member_addresses())
        cluster.broadcast(members[rng.randrange(len(members))], None)

    for index in range(6):
        cluster.sim.schedule_at(2.0 + 3.0 * index, send)
    churn.run()
    cluster.run_until_membership_quiescent()
    cluster.run_for(10.0)
    return cluster


def _lossy():
    # Loss leaves below-majority shares behind for retirement, anti-entropy
    # re-sends shares of gm-ids a node retired or already accepted, and an
    # equivocator adds shares with a conflicting digest.
    cluster = AtumCluster(
        AtumParameters(hc=3, rwl=6, gmin=4, gmax=8, round_duration=0.5),
        seed=3,
        antientropy=AntiEntropyConfig(),
    )
    cluster.build_static([f"n{i}" for i in range(40)])
    cluster.make_byzantine(["n3"], "equivocate")
    apply_plan(cluster, FaultPlan(links=(LinkFault(loss=0.05),)))
    for index in range(8):
        origin = f"n{5 * index + 1}"
        cluster.sim.schedule_at(1.0 + 0.7 * index, lambda o=origin: cluster.broadcast(o, o))
    cluster.run(until=30.0)
    return cluster


RUNS = {
    "sync_flood_10b": _flood(SmrKind.SYNC, 10),
    "sync_flood_16kb": _flood(SmrKind.SYNC, 16 * 1024),
    "async_10b": _flood(SmrKind.ASYNC, 10, n=24),
    "async_16kb": _flood(SmrKind.ASYNC, 16 * 1024, n=24),
    "churn": _churn,
    "lossy": _lossy,
}


def observe(name):
    """Run ``name`` with every share burst counted: ``(digest, facts)``."""
    bursts = {}
    send_share = GroupMessenger.send_share

    def counted(self, members, envelope, size):
        key = envelope.gm_id
        calls, shares = bursts.get(key, (0, 0))
        bursts[key] = (calls + 1, shares + len(members))
        return send_share(self, members, envelope, size)

    GroupMessenger.send_share = counted
    try:
        cluster = RUNS[name]()
    finally:
        GroupMessenger.send_share = send_share
    counter = cluster.sim.metrics.counter
    facts = {
        "deliveries": sorted(
            (address, bcast, time)
            for address, node in cluster.nodes.items()
            for bcast, time in node.delivered.items()
        ),
        "bursts": sorted(bursts.items()),
        "counters": {name: counter(name) for name in COUNTERS},
        "events": cluster.sim.processed_events,
    }
    digest = hashlib.sha256(repr(facts).encode()).hexdigest()[:16]
    return digest, facts, cluster


@pytest.mark.parametrize("name", sorted(RUNS))
def test_the_forward_path_runs_as_pinned(name):
    # Imported here, so that the script above runs on any tree's ``src``.
    from test_core_node import assert_no_forward_state_left

    digest, facts, cluster = observe(name)
    assert facts["deliveries"] and facts["bursts"]
    assert digest == PINNED[name], (name, facts["counters"], facts["events"])
    assert_no_forward_state_left(cluster)


if __name__ == "__main__":
    for run in sorted(RUNS):
        run_digest, run_facts, _ = observe(run)
        print(run, run_digest, run_facts["counters"], run_facts["events"])
