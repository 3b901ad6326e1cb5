"""Standing guards for digest sealing (ROADMAP item 5(b)) — no wall clock.

Sealing claims to change host time and nothing else.  The differential test
holds it to that: the same Sync flood, once as shipped and once with the
digest memo switched off entirely, must agree on every event, delivery time
and metric.  The count test is the regression guard for the speed-up itself:
a flood canonically encodes each ``BroadcastMessage`` once, not once per
(node, neighbour vgroup).
"""

from repro.core import node as node_module
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.crypto import digest as digest_module

NODES = 40
BROADCAST_TIMES = (1.0, 1.2, 4.0)
HORIZON = 30.0


def run_flood():
    params = AtumParameters.for_system_size(NODES, SmrKind.SYNC, round_duration=0.5)
    cluster = AtumCluster(params, seed=77)
    cluster.build_static([f"n{i}" for i in range(NODES)])
    sim = cluster.sim
    bcast_ids = []
    for index, when in enumerate(BROADCAST_TIMES):
        sim.schedule(
            when,
            lambda origin=f"n{index * 7}": bcast_ids.append(
                cluster.broadcast(origin, {"from": origin, "parts": [1, 2, 3]})
            ),
            tag="flood.bcast",
        )
    trace = []
    sim.run(until=HORIZON, trace=trace)
    # Broadcast ids come off a process-wide counter; compare by position.
    deliveries = [sorted(cluster.delivery_times(b).items()) for b in bcast_ids]
    assert all(len(times) == NODES for times in deliveries)
    return trace, deliveries, sim.metrics.snapshot()


def test_sealed_run_equals_memo_free_run(monkeypatch):
    sealed = run_flood()
    # Reference run: seal() is a plain digest and nothing is ever memoised,
    # so every digest in the stack is recomputed from the object's contents.
    monkeypatch.setattr(node_module, "seal", digest_module.digest_object)
    monkeypatch.setattr(digest_module, "_memoizable", lambda obj: False)
    digest_module.clear_digest_memo()
    reference = run_flood()
    assert not digest_module._memo
    assert sealed[0] == reference[0]  # (time, tag) of every event
    assert sealed[1] == reference[1]
    assert sealed[2] == reference[2]


def test_flood_encodes_each_broadcast_once(monkeypatch):
    encoded_messages = []
    real = digest_module._digest_encoded

    def counting(encoded):
        if encoded.startswith('{"__dc__": "BroadcastMessage"'):
            encoded_messages.append(encoded)
        return real(encoded)

    monkeypatch.setattr(digest_module, "_digest_encoded", counting)
    run_flood()
    # O(broadcasts), not O(nodes x neighbour vgroups): every send, share
    # check and wrapper of a sealed broadcast is a memo hit.
    assert len(encoded_messages) == len(BROADCAST_TIMES)
    assert len(set(encoded_messages)) == len(BROADCAST_TIMES)
