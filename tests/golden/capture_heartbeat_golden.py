"""Capture the heartbeats-on golden runs.

Writes two files next to this script:

* ``golden_heartbeat_churn60.json``: a 60-node SYNC cluster with
  ``heartbeat_period=5`` under 20 s of 60/min churn, one member crashed at
  t=8 and evicted by its vgroup's heartbeat majority;
* ``golden_heartbeat_faults40.json``: a 40-node cluster with
  ``heartbeat_period=2`` taken through every change to a link condition
  half a millisecond or less after a tick boundary — a partition and its
  heal, a crash and a recovery beside a crash for good, a split with a join
  during it (which binds the joiner to a side) and its merge, and a partition
  and a split that each heal within a millisecond.

A heartbeat is never an event: a tick's send is one burst whose fate is
decided when it is sent.  A heartbeat sent before a partition or split forms
is heard even if it lands after; one sent while a partition or split cuts its
link is lost even if it would have landed after the heal.  The changes above
fall within a median latency of a tick, so the files pin both sides of that
rule.

Recorded for each: the sha256 of the ``(time, tag)`` event trace, the
network's sent / delivered / partitioned / undeliverable counters, the sha256
of the sorted ``net.delivery_latency`` sample (its multiset: the order a run
appends samples in is not pinned; heartbeats add none), the failure
detector's counters and the ordered ``(time, reporter, suspect)`` suspicion
reports the cluster received (the order the eviction vote observes).

Shuffling is off, as when the first file was captured; nothing here depends on
hash randomisation (a heartbeats-on ``churn_hb`` run with shuffling replays
identically under ``PYTHONHASHSEED`` 0, 1 and 777), so the test needs no
subprocess.

Regenerate deliberately (and say why in CHANGES.md) with::

    PYTHONPATH=src python tests/golden/capture_heartbeat_golden.py

or, to print what a change moved without writing anything (every field that
differs from the committed file, and the suspicion reports added and
removed)::

    PYTHONPATH=src python tests/golden/capture_heartbeat_golden.py --diff
"""

import hashlib
import json
import os
import struct
import sys
from collections import Counter

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_heartbeat_churn60.json")
FAULTS_GOLDEN_PATH = os.path.join(HERE, "golden_heartbeat_faults40.json")

SEED = 4321
NODES = 60
HEARTBEAT_PERIOD = 5.0
CHURN_START = 5.0
CHURN_INTERVAL = 1.0  # 60 re-joins per minute
CHURN_STOP = 25.0
CRASH_AT = 8.0
CRASHED = "n7"
HORIZON = 60.0


def sorted_sample_sha256(sim, name: str) -> str:
    """SHA-256 of a histogram's samples in sorted order: the multiset, not
    the order the run appended them in."""
    samples = sorted(sim.metrics.histogram(name).samples)
    return hashlib.sha256(struct.pack(f"<{len(samples)}d", *samples)).hexdigest()


def run_scenario() -> dict:
    params = AtumParameters(
        hc=3,
        rwl=6,
        gmin=4,
        gmax=8,
        round_duration=0.5,
        heartbeat_period=HEARTBEAT_PERIOD,
        shuffle_enabled=False,
    )
    cluster = AtumCluster(params, seed=SEED, enable_heartbeats=True)
    trace = []
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
    sim.run(until=HORIZON, trace=trace)

    counter = sim.metrics.counter
    encoded = json.dumps([[time, tag] for time, tag in trace]).encode()
    return {
        "trace_length": len(trace),
        "trace_sha256": hashlib.sha256(encoded).hexdigest(),
        "messages_sent": counter("net.messages_sent"),
        "messages_delivered": counter("net.messages_delivered"),
        "messages_partitioned": counter("net.messages_partitioned"),
        "messages_undeliverable": counter("net.messages_undeliverable"),
        "delivery_latency_sorted_sha256": sorted_sample_sha256(sim, "net.delivery_latency"),
        "evictions_proposed": counter("group.evictions_proposed"),
        "evictions_started": counter("membership.evictions_started"),
        "churn_rejoins": rejoins[0],
        "crashed_is_member": CRASHED in cluster.engine.node_group,
        "suspicion_reports": reports,
    }


#: The second run: every change to a link condition, each half a millisecond
#: or less after a tick boundary, within the LAN's 0.5 ms median latency of
#: that tick's heartbeats.
FAULTS_SEED = 2468
FAULTS_NODES = 40
FAULTS_PERIOD = 2.0
FAULTS_HORIZON = 50.0
FAULTS_PARTITIONED = ("n5", "n6")
FAULTS_PARTITION_AT, FAULTS_HEAL_AT = 4.0006, 8.0005
FAULTS_CRASH_AT, FAULTS_RECOVER_AT = 12.0005, 16.0005
FAULTS_DOWN_FOR_GOOD = "n8"
FAULTS_SPLIT_AT, FAULTS_JOIN_AT, FAULTS_MERGE_AT = 20.0005, 21.0, 32.0005
#: A partition and a split that form and heal within a millisecond of a tick:
#: the tick's heartbeats were sent before either, so neither cuts them.
FAULTS_FLAPPING = ("n11", "n12")
FAULTS_FLAP_AT, FAULTS_FLAP_HEAL_AT = 10.0006, 10.0009
FAULTS_SPLIT_FLAP_AT, FAULTS_SPLIT_FLAP_MERGE_AT = 40.0003, 40.0009


def run_fault_scenario() -> dict:
    params = AtumParameters(
        hc=3,
        rwl=6,
        gmin=4,
        gmax=8,
        round_duration=0.5,
        heartbeat_period=FAULTS_PERIOD,
        shuffle_enabled=False,
    )
    cluster = AtumCluster(params, seed=FAULTS_SEED, enable_heartbeats=True)
    trace = []
    addresses = [f"n{i}" for i in range(FAULTS_NODES)]
    cluster.build_static(addresses)
    sim = cluster.sim
    network = cluster.network
    reports = []
    request_eviction = cluster.request_eviction

    def recording_request_eviction(peer, suspected_by):
        reports.append([sim.now, suspected_by, peer])
        request_eviction(peer, suspected_by=suspected_by)

    cluster.request_eviction = recording_request_eviction
    binds = []
    bind_to_split = network.bind_to_split

    def recording_bind(split_id, address, side_index):
        binds.append([sim.now, address, side_index])
        bind_to_split(split_id, address, side_index)

    network.bind_to_split = recording_bind
    at = sim.schedule_at
    at(FAULTS_PARTITION_AT, lambda: network.partition(FAULTS_PARTITIONED), tag="golden.partition")
    at(FAULTS_HEAL_AT, lambda: network.heal(FAULTS_PARTITIONED), tag="golden.heal")
    at(FAULTS_CRASH_AT, lambda: cluster.crash("n7"), tag="golden.crash")
    at(FAULTS_CRASH_AT, lambda: cluster.crash(FAULTS_DOWN_FOR_GOOD), tag="golden.crash")
    at(FAULTS_RECOVER_AT, lambda: cluster.recover("n7"), tag="golden.recover")
    at(FAULTS_SPLIT_AT, lambda: cluster.split([addresses[::2], addresses[1::2]]), tag="golden.split")
    at(FAULTS_JOIN_AT, lambda: cluster.join("joiner", contact="n0"), tag="golden.join")
    at(FAULTS_MERGE_AT, lambda: cluster.merge(), tag="golden.merge")
    at(FAULTS_FLAP_AT, lambda: network.partition(FAULTS_FLAPPING), tag="golden.flap")
    at(FAULTS_FLAP_HEAL_AT, lambda: network.heal(FAULTS_FLAPPING), tag="golden.flap")
    at(
        FAULTS_SPLIT_FLAP_AT,
        lambda: cluster.split([addresses[::3], addresses[1::3] + addresses[2::3]]),
        tag="golden.flap",
    )
    at(FAULTS_SPLIT_FLAP_MERGE_AT, lambda: cluster.merge(), tag="golden.flap")
    sim.run(until=FAULTS_HORIZON, trace=trace)

    counter = sim.metrics.counter
    encoded = json.dumps([[time, tag] for time, tag in trace]).encode()
    return {
        "trace_length": len(trace),
        "trace_sha256": hashlib.sha256(encoded).hexdigest(),
        "messages_sent": counter("net.messages_sent"),
        "messages_delivered": counter("net.messages_delivered"),
        "messages_partitioned": counter("net.messages_partitioned"),
        "messages_undeliverable": counter("net.messages_undeliverable"),
        "delivery_latency_sorted_sha256": sorted_sample_sha256(sim, "net.delivery_latency"),
        "evictions_proposed": counter("group.evictions_proposed"),
        "evictions_started": counter("membership.evictions_started"),
        "members": sorted(cluster.engine.node_group),
        "split_binds": binds,
        "suspicion_reports": reports,
    }


GOLDENS = {
    GOLDEN_PATH: run_scenario,
    FAULTS_GOLDEN_PATH: run_fault_scenario,
}


def _missing(reports, others):
    """The reports in ``reports`` that ``others`` lacks, counted as a
    multiset and listed in ``reports``' order."""
    left = Counter(map(tuple, others))
    missing = []
    for report in map(tuple, reports):
        if left[report]:
            left[report] -= 1
        else:
            missing.append(report)
    return missing


def diff(path, replay) -> bool:
    """Print what ``replay`` moved against the committed file; True if nothing."""
    with open(path, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    name = os.path.basename(path)
    same = True
    for field in sorted(set(golden) | set(replay)):
        if golden.get(field) == replay.get(field):
            continue
        same = False
        if field == "suspicion_reports":
            removed = _missing(golden[field], replay[field])
            added = _missing(replay[field], golden[field])
            print(
                f"{name}: suspicion_reports {len(golden[field])} -> {len(replay[field])}"
                f" ({len(removed)} removed, {len(added)} added)"
            )
            for report in removed:
                print(f"{name}:   - {list(report)}")
            for report in added:
                print(f"{name}:   + {list(report)}")
        else:
            print(f"{name}: {field}: {golden.get(field)!r} -> {replay.get(field)!r}")
    if same:
        print(f"{name}: identical")
    return same


def main() -> None:
    if sys.argv[1:] == ["--diff"]:
        same = [diff(path, scenario()) for path, scenario in GOLDENS.items()]
        sys.exit(0 if all(same) else 1)
    for path, scenario in GOLDENS.items():
        golden = scenario()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(
            f"wrote {path} (events={golden['trace_length']}, "
            f"reports={len(golden['suspicion_reports'])})"
        )


if __name__ == "__main__":
    main()
