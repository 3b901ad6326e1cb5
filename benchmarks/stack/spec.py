"""Names, units, directions and bounds of everything `stack` reports.

``BENCHMARK.json`` at the repository root repeats these tables for the
driver; ``tests/test_stack_smoke.py`` fails if the two disagree.
"""

from __future__ import annotations

WORKLOADS = [
    ("bcast_sync_flood",
     "Fig. 8 path on the plain network fast path: 400 nodes, Sync engine, empty middleware chain"),
    ("bcast_sync_mw",
     "same input as bcast_sync_flood plus a pass-through on_send hook: every message leaves the fast path"),
    ("smr_pbft_1vg",
     "one 10-member PBFT vgroup on a WAN, checkpoints and one member cut off then healed: no gossip, SMR dominates"),
    ("churn_hb",
     "Fig. 7 path: 400 nodes re-joining at 60/min with heartbeats on; membership, walks and view installs dominate"),
    ("bcast_faults_ae",
     "300 nodes under link loss, duplication and a partition with anti-entropy repairing: injector, AE and requests work"),
]

# (name, unit, better, bound).  The bound is the share of the parent's median
# a metric may worsen by, and is also what ten runs on ten seeds must stay
# inside; README.md records the measured spreads they were set from.  The
# seconds of setup_s and ops_per_s are reference-host seconds (hostclock.py).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("sim_latency_p50_s", "sim_s", "lower", 0.10),
    ("sim_latency_p95_s", "sim_s", "lower", 0.25),
    ("completed_share", "fraction", "higher", 0.002),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

#: Layers are the packages of ``src/repro``; sub-layers are their modules.
LAYERS = ("sim", "net", "group", "overlay", "smr", "crypto", "core", "faults")

MODULES = (
    "sim.simulator", "sim.events", "sim.metrics", "sim.rng",
    "net.network", "net.latency", "net.requests",
    "group.messages", "group.heartbeat", "group.antientropy", "group.vgroup",
    "overlay.membership", "overlay.hgraph", "overlay.random_walk", "overlay.gossip",
    "overlay.directory",
    "smr.pbft", "smr.dolev_strong", "smr.checkpoint", "smr.base",
    "crypto.digest", "crypto.keys", "crypto.certificates",
    "core.node", "core.cluster", "core.middleware", "core.policies",
    "faults.injector", "faults.invariants", "faults.behaviours",
    "bench.generator",   # the benchmark's own files running inside the timed region
    "other",             # every src/repro module not named above
)

CALLS_MODULES = (
    "sim.events", "sim.metrics", "net.network", "net.latency", "net.requests",
    "group.messages", "group.heartbeat", "group.antientropy", "smr.pbft", "smr.checkpoint",
    "crypto.digest", "core.node", "core.middleware", "faults.injector",
)

# (name, unit, better) of the counts and ratios; the host-time names are
# generated from MODULES / CALLS_MODULES / LAYERS below.
_COUNTS = [
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.events_per_op", "count", "lower"),
    ("net.msgs_sent", "count", "lower"),
    ("net.msgs_delivered", "count", "lower"),
    ("net.msgs_dropped", "count", "lower"),
    ("net.bytes_sent", "bytes", "lower"),
    ("net.msgs_per_op", "count", "lower"),
    ("net.intercepted_calls", "count", "lower"),
    ("net.fastpath_share", "fraction", "higher"),
    ("net.requests.sent", "count", "lower"),
    ("net.requests.completed", "count", "higher"),
    ("net.requests.timeouts", "count", "lower"),
    ("net.requests.useful_ratio", "fraction", "higher"),
    ("group.shares_sent", "count", "lower"),
    ("group.msgs_accepted", "count", "lower"),
    ("group.shares_per_accept", "count", "lower"),
    ("group.ae.summaries_sent", "count", "lower"),
    ("group.ae.shares_resent", "count", "lower"),
    ("group.ae.useful_ratio", "fraction", "higher"),
    ("overlay.joins_completed", "count", "higher"),
    ("overlay.leaves_completed", "count", "higher"),
    ("overlay.splits", "count", "lower"),
    ("overlay.merges", "count", "lower"),
    ("overlay.exchanges_completed", "count", "lower"),
    ("overlay.pending_at_end", "count", "lower"),
    ("smr.decided_ops", "count", "lower"),
    ("smr.view_change_votes", "count", "lower"),
    ("smr.view_change_votes_per_op", "count", "lower"),
    ("smr.checkpoints_stable", "count", "lower"),
    ("smr.transfers_completed", "count", "lower"),
    ("smr.catchup_sim_s_max", "sim_s", "lower"),
    ("smr.msgs_per_decided_op", "count", "lower"),
    ("crypto.digest_calls_per_msg", "count", "lower"),
    ("core.mw.on_send_calls", "count", "lower"),
    ("core.mw.on_deliver_calls", "count", "lower"),
    ("core.churn_bcast_delivered_share", "fraction", "higher"),
    ("faults.msgs_dropped", "count", "lower"),
    ("faults.msgs_duplicated", "count", "lower"),
    ("faults.violations", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_share", "fraction", "higher"),
]

PER_LAYER = (
    [(f"{module}.self_s", "s", "lower") for module in MODULES]
    + [(f"{module}.calls", "count", "lower") for module in CALLS_MODULES]
    + [(f"{layer}.share", "fraction", "lower") for layer in LAYERS]
    + _COUNTS
)

RUN_SECONDS = 10
