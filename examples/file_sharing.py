#!/usr/bin/env python3
"""AShare example: publish, search, replicate and read files.

Builds a 20-node AShare deployment over Atum, PUTs a few files, lets the
randomized replication feedback loop create replicas, searches the metadata
index, and reads a file back -- once from correct replicas and once when a
Byzantine replica holder corrupts its copy (the integrity check detects the
corruption and re-pulls the affected chunks).

Run with:  python examples/file_sharing.py
"""

from repro.apps.ashare import AShareCluster
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind

MB = 1024 * 1024


def main() -> None:
    params = AtumParameters(
        hc=3, rwl=5, gmax=8, gmin=4, smr_kind=SmrKind.SYNC, round_duration=0.5,
    )
    atum = AtumCluster(params, seed=11)
    addresses = [f"peer-{i}" for i in range(20)]
    byzantine = ["peer-13"]
    atum.build_static(addresses, byzantine=byzantine)
    share = AShareCluster(atum, rho=4)

    # PUT two files; metadata is broadcast through Atum to every node's index.
    share.put("peer-0", "holiday-photos.tar", size_bytes=50 * MB, num_chunks=10)
    share.put("peer-1", "datasets/measurements.csv", size_bytes=10 * MB, num_chunks=10)
    atum.run(until=300.0)

    count = share.replica_count("peer-0", "holiday-photos.tar", as_seen_by="peer-5")
    print(f"'holiday-photos.tar' now has {count} replicas (target rho=4)")

    # SEARCH from any node's local index.
    results = share.search("peer-7", "photos")
    print(f"search('photos') -> {[(r.owner, r.name) for r in results]}")

    # GET: parallel chunked pull with integrity checks.
    latency = share.get("peer-9", "peer-0", "holiday-photos.tar")
    print(f"reading 50 MB from correct replicas took {latency:.1f}s "
          f"({latency / 50:.2f} s/MB)")

    # Seed a replica at the Byzantine node: it will corrupt what it stores, the
    # integrity check catches it, and the affected chunks are re-pulled.
    share.put("peer-2", "important.bin", size_bytes=20 * MB, num_chunks=10)
    atum.run(until=atum.sim.now + 60.0)
    share.seed_replicas("peer-2", "important.bin", ["peer-13", "peer-4"])
    latency = share.get("peer-9", "peer-2", "important.bin")
    print(f"reading 20 MB with one corrupted replica took {latency:.1f}s "
          f"(integrity checks re-pulled the bad chunks)")

    # DELETE removes the file and its replicas everywhere.
    share.delete("peer-0", "holiday-photos.tar")
    atum.run(until=atum.sim.now + 60.0)
    print(f"after DELETE, search('photos') -> {share.search('peer-7', 'photos')}")


if __name__ == "__main__":
    main()
