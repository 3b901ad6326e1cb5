"""Figure 9: AShare read performance (latency per MB) versus NFS4.

Reads files of 2 MB to 2 GB in three configurations:

* NFS4 -- a client reads from a single server over one connection;
* AShare simple -- single-chunk files read from one replica (the fair,
  like-for-like comparison with NFS);
* AShare parallel -- 10-chunk files pulled in parallel from two replicas with
  multithreaded digest verification.

Expected shape: latency/MB decreases with file size for every system (the
constant transfer-initiation overhead amortises); AShare simple roughly
matches NFS for large files; AShare parallel outperforms NFS by up to ~2x for
files of 512 MB and above.
"""

from repro.analysis import format_table
from repro.apps.ashare import AShareCluster
from repro.baselines import NfsServerModel
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters

MB = 1024 * 1024
FILE_SIZES_MB = [2, 8, 32, 128, 512, 1024, 2048]


def _run(scale):
    params = AtumParameters(hc=3, rwl=5, gmax=8, gmin=4, round_duration=0.5)
    atum = AtumCluster(params, seed=0)
    addresses = [f"n{i}" for i in range(20)]
    atum.build_static(addresses)
    share = AShareCluster(atum, rho=4, replication_feedback=False)
    nfs = NfsServerModel()

    rows = []
    for size_mb in FILE_SIZES_MB:
        size = size_mb * MB
        nfs.store(f"file-{size_mb}", size)
        nfs_latency = nfs.read_latency_per_mb(f"file-{size_mb}")

        # AShare simple: one chunk, one replica holder besides the reader.
        share.put("n0", f"simple-{size_mb}", size_bytes=size, num_chunks=1)
        # AShare parallel: ten chunks, two replica holders.
        share.put("n0", f"parallel-{size_mb}", size_bytes=size, num_chunks=10)
        atum.run(until=atum.sim.now + 30.0)
        share.seed_replicas("n0", f"parallel-{size_mb}", ["n1"])

        simple_latency = share.get("n5", "n0", f"simple-{size_mb}")
        parallel_latency = share.get("n6", "n0", f"parallel-{size_mb}")
        rows.append(
            {
                "file_size_mb": size_mb,
                "nfs4_s_per_mb": round(nfs_latency, 3),
                "ashare_simple_s_per_mb": round(simple_latency / size_mb, 3),
                "ashare_parallel_s_per_mb": round(parallel_latency / size_mb, 3),
            }
        )
    return rows


def test_fig9_ashare_read(benchmark, scale):
    rows = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Figure 9: read latency per MB (lower is better)"))

    # Latency/MB decreases with file size for every system.
    for column in ("nfs4_s_per_mb", "ashare_simple_s_per_mb", "ashare_parallel_s_per_mb"):
        values = [row[column] for row in rows]
        assert values[-1] < values[0]

    small = rows[0]
    large = next(row for row in rows if row["file_size_mb"] == 1024)
    # AShare simple is within ~25% of NFS for large files (same strategy plus
    # integrity checking overhead).
    assert large["ashare_simple_s_per_mb"] <= large["nfs4_s_per_mb"] * 1.25
    # AShare parallel beats NFS for large files, approaching a 2x improvement.
    assert large["ashare_parallel_s_per_mb"] < large["nfs4_s_per_mb"]
    assert large["nfs4_s_per_mb"] / large["ashare_parallel_s_per_mb"] >= 1.4
    # For tiny files the fixed overhead dominates every system.
    assert small["nfs4_s_per_mb"] > large["nfs4_s_per_mb"]
