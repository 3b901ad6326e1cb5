"""Standing guards for the crypto shortcuts (ROADMAP item 5(b)) — no wall clock.

Every shortcut in the digest and signature path claims to change host time
and nothing else: the identity memo, the value-keyed statement memo, the
registry's ``(signer, digest)`` MAC cache, and the two seal sites (a
broadcast in ``core/node.py``, a Dolev-Strong value in
``smr/dolev_strong.py``).  The differential tests hold them to that: the
same run, once as shipped and once with every shortcut switched off, must
agree on every event, delivery time, counter and histogram.  One run is a
Sync flood (sealed broadcasts, Dolev-Strong chains); the other is a PBFT
vgroup with checkpoints (statement digests, signatures, certificates).  The
count test is the regression guard for the speed-up itself: a flood
canonically encodes each ``BroadcastMessage`` once, not once per (node,
neighbour vgroup).
"""

from repro.core import node as node_module
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.crypto import digest as digest_module
from repro.crypto.keys import KeyRegistry
from repro.smr import dolev_strong as dolev_strong_module

NODES = 40
BROADCAST_TIMES = (1.0, 1.2, 4.0)
HORIZON = 30.0

PBFT_MEMBERS, PBFT_INTERVAL, PBFT_BROADCASTS = 10, 8, 64


def outcome(cluster, bcast_ids, trace):
    """What a run must reproduce: its trace, deliveries, counters and histograms."""
    # Broadcast ids come off a process-wide counter; compare by position.
    deliveries = [sorted(cluster.delivery_times(b).items()) for b in bcast_ids]
    assert all(len(times) == len(cluster.nodes) for times in deliveries)
    metrics = cluster.sim.metrics
    histograms = {name: list(h.samples) for name, h in metrics.histograms.items()}
    return trace, deliveries, dict(metrics.counters), histograms


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
    return outcome(cluster, bcast_ids, trace)


def run_pbft():
    """One 10-member Async vgroup, a checkpoint every 8 decisions, 64 broadcasts."""
    params = AtumParameters(
        hc=2, rwl=4, gmin=5, gmax=26, smr_kind=SmrKind.ASYNC,
        checkpoint_interval=PBFT_INTERVAL,
    )
    cluster = AtumCluster(params, seed=5)
    addresses = [f"n{i}" for i in range(PBFT_MEMBERS)]
    cluster.build_static(addresses)
    bcast_ids = []
    for index in range(PBFT_BROADCASTS):
        origin = addresses[index % PBFT_MEMBERS]
        cluster.sim.schedule_at(
            3.0 * index,
            lambda o=origin, i=index: bcast_ids.append(cluster.broadcast(o, {"i": i})),
        )
    trace = []
    cluster.sim.run(until=3.0 * PBFT_BROADCASTS + 20.0, trace=trace)
    assert cluster.sim.metrics.counter("smr.checkpoint.stable") > 0
    return outcome(cluster, bcast_ids, trace), cluster.registry


def shortcuts_off(monkeypatch):
    """Switch off every crypto shortcut: each digest and MAC is recomputed
    from the object's contents, every time."""
    monkeypatch.setattr(node_module, "seal", digest_module.digest_object)
    monkeypatch.setattr(dolev_strong_module, "seal", digest_module.digest_object)
    monkeypatch.setattr(digest_module, "_memoizable", lambda obj: False)
    monkeypatch.setattr(digest_module, "_value_keyed", lambda obj: False)
    monkeypatch.setattr(KeyRegistry, "_mac", lambda self, key, digest: key.mac_of(digest))
    digest_module.clear_digest_memo()


def assert_same(shipped, reference):
    assert shipped[0] == reference[0]  # (time, tag) of every event
    assert shipped[1] == reference[1]
    assert shipped[2] == reference[2]
    assert shipped[3] == reference[3]


def test_flood_with_shortcuts_equals_flood_without(monkeypatch):
    shipped = run_flood()
    shortcuts_off(monkeypatch)
    reference = run_flood()
    assert not digest_module._memo and not digest_module._value_memo
    assert_same(shipped, reference)


def test_pbft_with_shortcuts_equals_pbft_without(monkeypatch):
    shipped, registry = run_pbft()
    assert registry._macs
    shortcuts_off(monkeypatch)
    reference, registry = run_pbft()
    assert not digest_module._memo and not digest_module._value_memo
    assert not registry._macs
    assert_same(shipped, reference)


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
