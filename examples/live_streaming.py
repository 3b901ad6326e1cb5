#!/usr/bin/env python3
"""AStream example: stream 1 MB/s of data to 30 nodes over a spanning forest.

Tier one (Atum) disseminates per-chunk digests with a single-cycle forward
policy; tier two pushes the data chunks down a forest in which every node has
f+1 parents, so Byzantine parents cannot prevent delivery.

Run with:  python examples/live_streaming.py
"""

from repro.apps.astream import AStreamSession
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind


def main() -> None:
    params = AtumParameters(
        hc=3, rwl=5, gmax=8, gmin=4, smr_kind=SmrKind.SYNC, round_duration=0.5,
    )
    atum = AtumCluster(params, seed=3)
    addresses = [f"viewer-{i}" for i in range(30)]
    byzantine = ["viewer-11", "viewer-22"]
    atum.build_static(addresses, byzantine=byzantine)

    session = AStreamSession(
        atum,
        source="viewer-0",
        forward_policy="single",
        chunk_bytes=250_000,
        rate_bytes_per_s=1_000_000,
    )
    chunk_count = session.stream(duration_s=2.0)
    atum.run(until=120.0)

    fractions = [session.delivery_fraction(i) for i in range(chunk_count)]
    latencies = sorted(session.tier2_latencies())
    print(f"streamed {chunk_count} chunks of 250 KB (1 MB/s) to {len(addresses)} nodes "
          f"({len(byzantine)} Byzantine)")
    print(f"every chunk delivered to {min(fractions):.0%} of correct nodes")
    print(f"tier-2 latency: median {latencies[len(latencies) // 2] * 1000:.0f} ms, "
          f"p95 {latencies[int(len(latencies) * 0.95)] * 1000:.0f} ms")
    print(f"pull fallbacks used: {int(atum.sim.metrics.counter('astream.pulls'))}")


if __name__ == "__main__":
    main()
