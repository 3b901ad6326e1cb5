"""Golden-trace determinism test for the simulation kernel.

The golden file was captured with the *pre-optimisation* kernel (dataclass
event heap, asdict-based digests, re-sorting histograms) running the exact
scenario rebuilt here: a seeded 50-node SYNC cluster under churn with three
broadcasts.  The test asserts that

* two runs of the current kernel produce byte-identical ``(time, tag)`` event
  sequences (self-determinism), and
* the current kernel reproduces the recorded pre-optimisation trace and the
  benchmark-figure outputs exactly (cross-kernel determinism) — i.e. the
  fast-path rewrite changed wall-clock speed and nothing else.

If a change intentionally moves scheduling or message counts, regenerate the
golden file and document why in CHANGES.md.  A re-capture may move the trace
and the message figures; :data:`DELIVERY_FIGURES` pins the system size, the
re-joins and the per-broadcast delivery fractions to the values of the first
capture.  It pins counts, not the identity of the delivering nodes.
"""

import json
import os

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden_trace_churn50.json")

SEED = 1234
NODES = 50
HORIZON = 40.0
CHURN_INTERVAL = 2.5
CHURN_START = 5.0
BROADCAST_TIMES = (2.0, 12.0, 22.0)

#: The golden figures no re-capture may move: 44 correct members at the
#: horizon after 15 re-joins, and the three broadcasts delivered at 40, 5 and
#: 41 of them.
DELIVERY_FIGURES = {
    "system_size": 44,
    "churn_rejoins": 15,
    "broadcast_fractions": [40 / 44, 5 / 44, 41 / 44],
}


def build_scenario():
    """Rebuild the golden churn scenario (must match the capture script)."""
    params = AtumParameters.for_system_size(NODES, SmrKind.SYNC, round_duration=1.0)
    cluster = AtumCluster(params, seed=SEED)
    addresses = [f"n{i}" for i in range(NODES)]
    cluster.build_static(addresses)
    sim = cluster.sim
    rng = sim.rng.stream("golden-churn")
    state = {"churn": 0, "bcast": []}

    def churn_tick():
        if sim.now + CHURN_INTERVAL <= HORIZON:
            sim.schedule(CHURN_INTERVAL, churn_tick, tag="golden.churn")
        members = sorted(cluster.engine.node_group)
        if not members:
            return
        victim = members[rng.randrange(len(members))]
        try:
            cluster.leave(victim)
        except Exception:
            return
        state["churn"] += 1
        cluster.join(f"churn-{state['churn']}", contact="n0")

    def make_broadcast(origin):
        def fire():
            bcast_id = cluster.broadcast(origin, {"golden": origin, "at": sim.now})
            state["bcast"].append((bcast_id, sim.now))
        return fire

    sim.schedule(CHURN_START, churn_tick, tag="golden.churn")
    for index, when in enumerate(BROADCAST_TIMES):
        sim.schedule(when, make_broadcast(f"n{index}"), tag="golden.bcast")
    return cluster, state


def run_scenario():
    cluster, state = build_scenario()
    trace = []
    cluster.sim.run(until=HORIZON, trace=trace)
    metrics = cluster.sim.metrics
    figures = {
        "processed_events": cluster.sim.processed_events,
        "messages_delivered": metrics.counter("net.messages_delivered"),
        "messages_sent": metrics.counter("net.messages_sent"),
        "group_accepted": metrics.counter("group.messages_accepted"),
        "delivery_latency_mean": metrics.histogram("net.delivery_latency").mean,
        "delivery_latency_p99": metrics.histogram("net.delivery_latency").percentile(99),
        "system_size": cluster.system_size,
        "churn_rejoins": state["churn"],
        "broadcast_fractions": [
            cluster.delivery_fraction(bcast_id) for bcast_id, _ in state["bcast"]
        ],
    }
    return [[t, tag] for t, tag in trace], figures


def test_two_runs_are_byte_identical():
    trace_a, figures_a = run_scenario()
    trace_b, figures_b = run_scenario()
    assert trace_a == trace_b
    assert figures_a == figures_b


def test_a_tiny_digest_memo_is_trace_identical(monkeypatch):
    """Digest memo evictions must change wall-clock only, never behaviour."""
    from repro.crypto import digest as digest_module

    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    digest_module.clear_digest_memo()
    monkeypatch.setattr(digest_module, "_MEMO_LIMIT", 4)
    trace, figures = run_scenario()
    assert trace == golden["trace"]
    assert figures == golden["figures"]


def test_matches_pre_optimisation_golden_trace():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    trace, figures = run_scenario()
    assert len(trace) == golden["trace_length"]
    assert trace == golden["trace"]
    # Benchmark figure outputs are bit-identical too: the histogram running
    # accumulators preserve the original float summation order.
    assert figures == golden["figures"]


def test_a_recapture_keeps_the_delivery_figures():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        figures = json.load(fh)["figures"]
    assert {name: figures[name] for name in DELIVERY_FIGURES} == DELIVERY_FIGURES
