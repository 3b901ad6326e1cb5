"""Capture the heartbeats-on golden run.

Writes ``golden_heartbeat_churn60.json`` next to this script: a 60-node SYNC
cluster with ``heartbeat_period=5`` under 20 s of 60/min churn, one member
crashed at t=8 and evicted by its vgroup's heartbeat majority.  Recorded: the
sha256 of the ``(time, tag)`` event trace, the counters the failure detector
drives and the ordered ``(time, reporter, suspect)`` suspicion reports the
cluster received (the order the eviction vote observes).

The committed file was captured at commit ebc140e — the parent of the PR that
moved the latency draw into ``send_many``, made a delivery a tuple and gave
the heartbeat monitor its one-scan tick — so it pins that rewrite to the
behaviour before it.  No monitor restarts inside a period in this run, so the
double-tick-chain fix of the same PR does not move it.  Shuffling is off:
with heartbeats on, the shuffle path's event order depends on Python's hash
randomisation (the pre-existing dependence the fault matrix works around with
``PYTHONHASHSEED=0``); without it the run replays identically under any hash
seed, so the test needs no subprocess.  Joins, leaves, splits and merges still
change views under the running monitors.

Regenerate deliberately (and say why in CHANGES.md) with::

    PYTHONPATH=src python tests/golden/capture_heartbeat_golden.py
"""

import hashlib
import json
import os

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_heartbeat_churn60.json")

SEED = 4321
NODES = 60
HEARTBEAT_PERIOD = 5.0
CHURN_START = 5.0
CHURN_INTERVAL = 1.0  # 60 re-joins per minute
CHURN_STOP = 25.0
CRASH_AT = 8.0
CRASHED = "n7"
HORIZON = 60.0


def run_scenario() -> dict:
    params = AtumParameters(
        hc=3, rwl=6, gmin=4, gmax=8, round_duration=0.5, heartbeat_period=HEARTBEAT_PERIOD
    )
    cluster = AtumCluster(params, seed=SEED, enable_heartbeats=True, shuffle_enabled=False)
    cluster.build_static([f"n{i}" for i in range(NODES)])
    sim = cluster.sim
    rng = sim.rng.stream("golden-churn")
    rejoins = [0]
    reports = []

    # Nodes look ``request_eviction`` up on their directory (the cluster) at
    # call time, so the instance attribute sees every report in call order.
    request_eviction = cluster.request_eviction

    def recording_request_eviction(peer, suspected_by):
        reports.append([sim.now, suspected_by, peer])
        request_eviction(peer, suspected_by=suspected_by)

    cluster.request_eviction = recording_request_eviction

    def churn_tick():
        if sim.now + CHURN_INTERVAL < CHURN_STOP:
            sim.schedule(CHURN_INTERVAL, churn_tick, tag="golden.churn")
        members = sorted(m for m in cluster.engine.node_group if m != CRASHED)
        victim = members[rng.randrange(len(members))]
        cluster.leave(victim)
        rejoins[0] += 1
        cluster.join(f"churn-{rejoins[0]}", contact="n0")

    sim.schedule(CHURN_START, churn_tick, tag="golden.churn")
    sim.schedule(CRASH_AT, lambda: cluster.crash(CRASHED), tag="golden.crash")
    trace = []
    sim.run(until=HORIZON, trace=trace)

    counter = sim.metrics.counter
    encoded = json.dumps([[time, tag] for time, tag in trace]).encode()
    return {
        "trace_length": len(trace),
        "trace_sha256": hashlib.sha256(encoded).hexdigest(),
        "messages_sent": counter("net.messages_sent"),
        "evictions_proposed": counter("group.evictions_proposed"),
        "evictions_started": counter("membership.evictions_started"),
        "churn_rejoins": rejoins[0],
        "crashed_is_member": CRASHED in cluster.engine.node_group,
        "suspicion_reports": reports,
    }


def main() -> None:
    golden = run_scenario()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {GOLDEN_PATH} (events={golden['trace_length']}, "
        f"reports={len(golden['suspicion_reports'])})"
    )


if __name__ == "__main__":
    main()
