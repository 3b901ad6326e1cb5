"""Figure 10: impact of Byzantine nodes on AShare read latency (50 nodes).

A 50-node system stores files of 10 chunks x 1 MB with rho = 8; 7 random nodes
are Byzantine and corrupt every replica they store.  Reads are measured as a
function of the file's replica count, with all replicas correct and with 1-6
faulty replicas.  Expected shape: corrupted replicas raise the read latency
(up to ~3x for moderately replicated files), and the penalty shrinks as the
replica count approaches the chunk count (the "ideal configuration").
"""

from dataclasses import replace

from repro.analysis import format_table
from repro.apps.ashare import AShareCluster
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters
from repro.workloads import select_byzantine

MB = 1024 * 1024


def run_experiment(num_nodes, num_files, byzantine_count, rho, scale, seed=0):
    params = replace(AtumParameters.for_system_size(num_nodes), round_duration=0.5)
    atum = AtumCluster(params, seed=seed)
    addresses = [f"n{i}" for i in range(num_nodes)]
    byzantine = select_byzantine(addresses, count=byzantine_count)
    atum.build_static(addresses, byzantine=byzantine)
    share = AShareCluster(atum, rho=rho, replication_feedback=False)
    correct = [a for a in addresses if a not in byzantine]
    rng = atum.sim.rng.stream("fig10")

    measured_files = max(10, num_files // (10 // scale if scale < 10 else 1) // 5)
    replica_counts = list(range(8, 21, 2))
    rows = []
    for replicas in replica_counts:
        clean_latencies = []
        faulty_latencies = []
        for index in range(measured_files // len(replica_counts) + 1):
            owner = correct[rng.randrange(len(correct))]
            # File with all-correct replica holders.
            name_clean = f"clean-{replicas}-{index}"
            share.put(owner, name_clean, size_bytes=10 * MB, num_chunks=10)
            # File with 1-6 of its replicas held by Byzantine nodes.
            name_faulty = f"faulty-{replicas}-{index}"
            share.put(owner, name_faulty, size_bytes=10 * MB, num_chunks=10)
            atum.run(until=atum.sim.now + 20.0)

            clean_holders = [a for a in correct if a != owner][: replicas - 1]
            share.seed_replicas(owner, name_clean, clean_holders)
            faulty_count = 1 + (index % 6)
            faulty_holders = byzantine[:faulty_count] + [
                a for a in correct if a != owner
            ][: replicas - 1 - faulty_count]
            share.seed_replicas(owner, name_faulty, faulty_holders)

            reader = correct[(rng.randrange(len(correct)))]
            clean = share.get(reader, owner, name_clean)
            faulty = share.get(reader, owner, name_faulty)
            if clean is not None:
                clean_latencies.append(clean / 10.0)
            if faulty is not None:
                faulty_latencies.append(faulty / 10.0)
        rows.append(
            {
                "replicas": replicas,
                "all_correct_s_per_mb": round(sum(clean_latencies) / len(clean_latencies), 3),
                "faulty_replicas_s_per_mb": round(sum(faulty_latencies) / len(faulty_latencies), 3),
            }
        )
    return rows


def check_shape(rows):
    for row in rows:
        # Corrupted replicas never make reads faster.
        assert row["faulty_replicas_s_per_mb"] >= row["all_correct_s_per_mb"]
        # And the penalty stays below ~4x (paper: up to 3x).
        assert row["faulty_replicas_s_per_mb"] <= row["all_correct_s_per_mb"] * 4.0
    # The penalty at 8 replicas is larger than at 20 replicas (more replicas
    # dilute the corrupted ones).
    first, last = rows[0], rows[-1]
    first_penalty = first["faulty_replicas_s_per_mb"] / first["all_correct_s_per_mb"]
    last_penalty = last["faulty_replicas_s_per_mb"] / last["all_correct_s_per_mb"]
    assert last_penalty <= first_penalty + 0.05


def test_fig10_ashare_byzantine_50_nodes(benchmark, scale):
    rows = benchmark.pedantic(
        run_experiment, args=(50, 100, 7, 8, scale), rounds=1, iterations=1
    )
    print()
    print(format_table(rows, title="Figure 10: AShare read latency per MB, 50 nodes, 7 Byzantine"))
    check_shape(rows)
