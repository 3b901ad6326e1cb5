"""Ablation (section 5.1): the message-digest optimisation for group messages.

Only a majority of a vgroup's members send the full payload of a group
message; the rest send a digest.  This ablation measures the bytes put on the
wire by one Atum broadcast with the optimisation on and off, for the same
system and workload; delivery must be complete in both cases.
"""

from repro.analysis import format_table
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters


def _broadcast_bytes(use_digest: bool, payload_bytes: int, seed: int = 0):
    params = AtumParameters(hc=4, rwl=6, gmax=8, gmin=4, round_duration=0.5)
    cluster = AtumCluster(params, seed=seed)
    addresses = [f"n{i}" for i in range(64)]
    cluster.build_static(addresses)
    for node in cluster.nodes.values():
        node.messenger.use_digest_optimization = use_digest
    bcast = cluster.broadcast("n0", "x" * 10, size_bytes=payload_bytes)
    cluster.run(until=60.0)
    assert cluster.delivery_fraction(bcast) == 1.0
    return cluster.sim.metrics.counter("net.bytes_sent")


def _run(scale):
    rows = []
    for payload_bytes in (512, 4096, 16384):
        with_digest = _broadcast_bytes(True, payload_bytes)
        without_digest = _broadcast_bytes(False, payload_bytes)
        rows.append(
            {
                "payload_bytes": payload_bytes,
                "bytes_with_digest_opt": int(with_digest),
                "bytes_without_digest_opt": int(without_digest),
                "savings_percent": round(100.0 * (1 - with_digest / without_digest), 1),
            }
        )
    return rows


def test_ablation_digest_optimization(benchmark, scale):
    rows = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: message-digest optimisation (bytes per broadcast)"))

    # Section 5.1's claim: digests save bytes at every payload size, and
    # the saving is at least a quarter at each one.  The savings are not
    # monotone in the payload size (27.0 / 37.6 / 33.0 % at 512 B / 4 KB /
    # 16 KB): the Sync forward's stagger (``STAGGER`` in repro.core.node, a
    # hundredth of a round: 5 ms at this bench's 0.5 s round) suppresses a
    # send back along an H-graph edge only when the other end's share
    # arrives within it, and a 16 KB share takes longer than that to
    # arrive, so the largest payload loses the suppression the smaller
    # ones keep.
    for row in rows:
        assert row["bytes_with_digest_opt"] < row["bytes_without_digest_opt"]
        assert row["savings_percent"] >= 25.0
