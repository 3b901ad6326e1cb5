#!/usr/bin/env python3
"""Quickstart: bring up an Atum system, broadcast a message, join a node.

This example walks through the core Atum API on a small simulated deployment:

1. build a 30-node system (the state a deployment reaches after growing);
2. broadcast a message from one node and check every node delivers it;
3. join a new node through a contact node and let it broadcast too;
4. inject a couple of silent Byzantine nodes and show that delivery to the
   correct nodes is unaffected.

Run with:  python examples/quickstart.py
"""

from repro.core import AtumCluster, AtumParameters, SmrKind


def main() -> None:
    # A configuration suitable for a few tens of nodes, using the synchronous
    # (Dolev-Strong) engine with 0.5-second rounds.
    params = AtumParameters(
        hc=3, rwl=6, gmax=8, gmin=4, smr_kind=SmrKind.SYNC, round_duration=0.5,
    )
    cluster = AtumCluster(params, seed=42)

    addresses = [f"node-{i}" for i in range(30)]
    cluster.build_static(addresses)
    print(f"built a system of {cluster.system_size} nodes in {cluster.group_count} vgroups")

    # --- broadcast -----------------------------------------------------------
    start = cluster.sim.now
    bcast = cluster.broadcast("node-0", {"hello": "volatile groups"})
    cluster.run(until=60.0)
    latencies = cluster.delivery_latencies(bcast, start)
    print(
        f"broadcast delivered to {len(latencies)}/{cluster.system_size} nodes, "
        f"median latency {sorted(latencies)[len(latencies) // 2]:.2f}s, "
        f"max {max(latencies):.2f}s"
    )

    # --- join ----------------------------------------------------------------
    cluster.join("newcomer", contact="node-0")
    cluster.run_until_membership_quiescent(max_time=600.0)
    print(f"'newcomer' joined; system size is now {cluster.system_size}")

    start = cluster.sim.now
    bcast2 = cluster.broadcast("newcomer", "greetings from the newcomer")
    cluster.run(until=cluster.sim.now + 60.0)
    print(f"newcomer's broadcast reached {cluster.delivery_fraction(bcast2):.0%} of correct nodes")

    # --- Byzantine nodes -----------------------------------------------------
    cluster.make_byzantine(["node-7", "node-13"])
    start = cluster.sim.now
    bcast3 = cluster.broadcast("node-1", "still fine with Byzantine nodes around")
    cluster.run(until=cluster.sim.now + 60.0)
    print(
        f"with 2 Byzantine nodes, the broadcast still reached "
        f"{cluster.delivery_fraction(bcast3):.0%} of correct nodes"
    )


if __name__ == "__main__":
    main()
