"""The five `stack` workloads: generated inputs for the real ``AtumCluster``.

Each builder turns ``(seed, scale)`` into a :class:`Prepared` run: the
cluster, the fault plan and the open-loop schedule are all made here (the
set-up the user pays on every run), ``timed()`` holds nothing but
``cluster.run…`` calls, and ``result()`` reads the outcome back through
public cluster / registry APIs and checks it.  The program under test sees
only generated inputs: parameters, a ``FaultPlan`` and a send schedule.

Two clocks: every latency here is *simulated* seconds (``sim.now``); host
seconds are taken around ``timed()`` by the caller (``run.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MetricsTap, Middleware
from repro.faults.behaviours import apply_plan
from repro.faults.invariants import InvariantMonitor
from repro.faults.plan import FaultPlan, LinkFault, Partition
from repro.group.antientropy import AntiEntropyConfig
from repro.workloads.churn import ChurnConfig, ChurnWorkload

ROUND = 0.5  # round_duration of every Sync workload (simulated seconds)
# PBFT broadcasts are 3 s apart: a replica's view-change timer is armed once
# and votes if *any* request is pending when it fires (request_timeout = 2 s
# later), so with sends 1 s apart a fault-free vgroup casts ~14 view-change
# votes per decided broadcast, chaotically by seed (90k-150k events for the
# same 100 broadcasts).  At 3 s nothing is pending when the timer fires.
PBFT_SPACING = 3.0

#: Frozen sizes.  ``tiny`` exists for the smoke test only and is never
#: measured; ``full`` was tuned once to a 3-4 host-second timed region on the
#: 2-core sandbox and must not change without re-measuring the baseline.
SIZES = {
    "full": {
        "bcast_nodes": 400, "bcasts": 24,
        "pbft_bcasts": 1000,
        "churn_nodes": 400, "churn_rate": 60.0, "churn_duration": 600.0, "churn_bcasts": 6,
        "ae_nodes": 301,
        "min_samples": 200,
    },
    "tiny": {
        "bcast_nodes": 40, "bcasts": 6,
        "pbft_bcasts": 24,
        "churn_nodes": 60, "churn_rate": 60.0, "churn_duration": 20.0, "churn_bcasts": 2,
        "ae_nodes": 43,
        "min_samples": 10,
    },
}


class PassThrough(Middleware):
    """An ``on_send`` hook that decides nothing: the mechanism's bare cost."""

    def on_send(self, ctx) -> None:
        return None


@dataclass
class Outcome:
    """What one run of a workload produced, before any host timing."""

    attempted: int
    completed: int
    latencies: List[float]            # simulated seconds, completed ops only
    errors: List[str]                 # failed correctness checks
    extra: Dict[str, float] = field(default_factory=dict)  # benchmark-side counts


@dataclass
class Prepared:
    cluster: AtumCluster
    timed: Callable[[], None]
    result: Callable[[], Outcome]


class BroadcastLoad:
    """Open-loop broadcasts at fixed simulated times, with send records.

    ``BroadcastWorkload`` cannot be used: the benchmark must exclude origins
    the plan makes unavailable and keep ``(bcast_id, send_time, members)``.
    Latency is measured from the scheduled send time; in a discrete-event
    run the generator is never late, so the two coincide.
    """

    def __init__(
        self,
        cluster: AtumCluster,
        times: Sequence[float],
        origins: Optional[Sequence[str]] = None,
    ) -> None:
        self.cluster = cluster
        self.records: List[Tuple[str, float, Tuple[str, ...]]] = []
        rng = cluster.sim.rng.stream("bench-origins")
        for index, at in enumerate(times):
            cluster.sim.schedule_at(
                at, lambda i=index: self._send(i, rng, origins), tag="bench.bcast"
            )

    def _send(self, index: int, rng, origins: Optional[Sequence[str]]) -> None:
        cluster = self.cluster
        members = tuple(cluster.correct_member_addresses())
        pool = members if origins is None else origins
        origin = pool[rng.randrange(len(pool))]
        bcast_id = cluster.broadcast(origin, {"seq": index})
        self.records.append((bcast_id, cluster.sim.now, members))

    def pairs(self):
        """Every (send_time, node address, delivery time or None) operation."""
        nodes = self.cluster.nodes
        for bcast_id, sent_at, members in self.records:
            for address in members:
                yield sent_at, address, nodes[address].delivery_time(bcast_id)


def phase_swept_times(count: int, start: float = 0.0) -> List[float]:
    """``count`` send times one round apart, sweeping the round phase once.

    Sync deliveries land on round boundaries, so sending on a boundary makes
    every latency a multiple of the round and the percentiles jump by a whole
    round between seeds.  Spacing sends ``ROUND * (1 + 1/count)`` apart
    samples every phase of the round evenly, exactly once.
    """
    step = ROUND * (1.0 + 1.0 / count)
    return [start + index * step for index in range(count)]


def _addresses(count: int) -> List[str]:
    return [f"n{index}" for index in range(count)]


def _sync_params(**overrides) -> AtumParameters:
    values = dict(hc=3, rwl=6, gmin=4, gmax=8, round_duration=ROUND)
    values.update(overrides)
    return AtumParameters(**values)


def _broadcast_outcome(
    load: BroadcastLoad,
    min_samples: int,
    late: Callable[[float, str], bool] = lambda sent_at, address: False,
) -> Outcome:
    """Ops = (broadcast, node) pairs; ``late`` pairs skip the latency sample."""
    attempted = completed = 0
    latencies: List[float] = []
    catchup_max = 0.0
    for sent_at, address, delivered_at in load.pairs():
        attempted += 1
        if delivered_at is None:
            continue
        completed += 1
        if late(sent_at, address):
            catchup_max = max(catchup_max, delivered_at - sent_at)
        else:
            latencies.append(delivered_at - sent_at)
    errors = _too_few_samples(latencies, min_samples)
    return Outcome(attempted, completed, latencies, errors, {"smr.catchup_sim_s_max": catchup_max})


def _too_few_samples(latencies: List[float], min_samples: int) -> List[str]:
    if len(latencies) >= min_samples:
        return []
    return [f"only {len(latencies)} latency samples, need {min_samples}"]


def _monitor_errors(monitor: InvariantMonitor) -> List[str]:
    monitor.finalize()
    return [f"invariant violation: {violation}" for violation in monitor.violations[:5]]


# ---------------------------------------------------------------- workloads 1, 2


def _bcast_sync(seed: int, size: dict, hooked: bool) -> Prepared:
    cluster = AtumCluster(_sync_params(), seed=seed)
    if hooked:
        chain = cluster.middleware_chain()
        chain.add(MetricsTap())
        chain.add(PassThrough())
    cluster.build_static(_addresses(size["bcast_nodes"]))
    times = phase_swept_times(size["bcasts"])
    load = BroadcastLoad(cluster, times)
    horizon = times[-1] + 30.0
    return Prepared(
        cluster,
        timed=lambda: cluster.run(until=horizon),
        result=lambda: _broadcast_outcome(load, size["min_samples"]),
    )


def bcast_sync_flood(seed: int, size: dict) -> Prepared:
    return _bcast_sync(seed, size, hooked=False)


def bcast_sync_mw(seed: int, size: dict) -> Prepared:
    return _bcast_sync(seed, size, hooked=True)


# -------------------------------------------------------------------- workload 3


def smr_pbft_1vg(seed: int, size: dict) -> Prepared:
    params = AtumParameters(
        hc=2, rwl=4, gmin=5, gmax=26, smr_kind=SmrKind.ASYNC, checkpoint_interval=8
    )
    cluster = AtumCluster(params, seed=seed)  # Async default: WanProfile
    monitor = InvariantMonitor()
    cluster.attach_monitor(monitor)
    addresses = _addresses(10)
    cluster.build_static(addresses)

    count = size["pbft_bcasts"]
    times = [PBFT_SPACING * index for index in range(count)]
    cut_from, cut_until = 5.0, math.floor(0.6 * times[-1])
    # The cut-off member is fixed (the last backup of view 0), not drawn from
    # the seed: WanProfile places members in regions by address order, so which
    # member is missing sets the quorum's round trip, and p50 moved by 10 %
    # between seeds when it was drawn.  The seed drives origins and link jitter.
    primary = cluster.nodes[addresses[0]].replica.primary
    isolated = [address for address in addresses if address != primary][-1]
    plan = FaultPlan(partitions=(Partition((isolated,), start=cut_from, heal_at=cut_until),))
    apply_plan(cluster, plan, monitor=monitor)
    # Origins never come from a node the plan makes unavailable: letting the
    # isolated member originate left 9 smr_divergence violations in scratch
    # runs (open correctness question, see README).
    unavailable = plan.unavailable_addresses()
    origins = [address for address in addresses if address not in unavailable]
    load = BroadcastLoad(cluster, times, origins)
    horizon = times[-1] + 40.0

    def result() -> Outcome:
        outcome = _broadcast_outcome(
            load,
            size["min_samples"],
            late=lambda sent_at, address: address == isolated and cut_from <= sent_at < cut_until,
        )
        monitor.check_smr_prefix_consistency(cluster, require_equality=True)
        outcome.errors += _monitor_errors(monitor)
        return outcome

    return Prepared(cluster, timed=lambda: cluster.run(until=horizon), result=result)


# -------------------------------------------------------------------- workload 4


def churn_hb(seed: int, size: dict) -> Prepared:
    cluster = AtumCluster(_sync_params(heartbeat_period=5.0), seed=seed, enable_heartbeats=True)
    cluster.build_static(_addresses(size["churn_nodes"]))
    config = ChurnConfig(rate_per_minute=size["churn_rate"], duration=size["churn_duration"])
    churn = ChurnWorkload(cluster.engine, config, join_fn=cluster.join)
    window = config.warmup + config.duration
    count = size["churn_bcasts"]
    load = BroadcastLoad(cluster, [window * (i + 1) / (count + 1) for i in range(count)])
    state = {}

    def timed() -> None:
        state["churn"] = churn.run()
        cluster.run_until_membership_quiescent()
        cluster.run_for(30.0)

    def result() -> Outcome:
        requested = state["churn"].requested_rejoins
        histogram = cluster.sim.metrics.histogram("membership.join_latency")
        latencies = list(histogram.samples)
        errors = _too_few_samples(latencies, size["min_samples"])
        try:
            cluster.engine.validate()
        except Exception as exc:  # any engine inconsistency fails the run
            errors.append(f"engine.validate(): {exc!r}")
        pending = cluster.engine.pending_operations()
        if pending:
            errors.append(f"{pending} membership operations still pending at the horizon")
        # The interleaved broadcasts are not ops; their delivery under churn is
        # recorded per layer for a later correctness issue.
        still_member = cluster.engine.node_group
        due = [d for _, a, d in load.pairs() if a in still_member]
        delivered_share = sum(d is not None for d in due) / len(due) if due else 0.0
        return Outcome(
            attempted=requested,
            completed=min(requested, len(latencies)),
            latencies=latencies,
            errors=errors,
            extra={
                "overlay.pending_at_end": float(pending),
                "core.churn_bcast_delivered_share": delivered_share,
            },
        )

    return Prepared(cluster, timed, result)


# -------------------------------------------------------------------- workload 5


def bcast_faults_ae(seed: int, size: dict) -> Prepared:
    cluster = AtumCluster(_sync_params(), seed=seed, antientropy=AntiEntropyConfig())
    monitor = InvariantMonitor()
    cluster.attach_monitor(monitor)
    cluster.middleware_chain().add(MetricsTap())
    addresses = _addresses(size["ae_nodes"])
    cluster.build_static(addresses)
    plan = FaultPlan(
        # Every 15th node: the repaired tail is ~1.3 % of the ops, clear of the
        # 95th percentile.  At every 7th it was ~5 % and p95 flipped between
        # 3.0 and 5.5 sim-s from one seed to the next.
        partitions=(Partition(tuple(addresses[::15]), start=0.6, heal_at=6.0),),
        links=(LinkFault(loss=0.05), LinkFault(duplicate=0.1, start=2.0, stop=8.0)),
    )
    apply_plan(cluster, plan, monitor=monitor)
    unavailable = plan.unavailable_addresses()
    origins = [address for address in addresses if address not in unavailable]
    times = phase_swept_times(size["bcasts"])
    load = BroadcastLoad(cluster, times, origins)
    horizon = times[-1] + 40.0

    def result() -> Outcome:
        outcome = _broadcast_outcome(load, size["min_samples"])
        outcome.errors += _monitor_errors(monitor)
        return outcome

    return Prepared(cluster, timed=lambda: cluster.run(until=horizon), result=result)


BUILDERS: Dict[str, Callable[[int, dict], Prepared]] = {
    "bcast_sync_flood": bcast_sync_flood,
    "bcast_sync_mw": bcast_sync_mw,
    "smr_pbft_1vg": smr_pbft_1vg,
    "churn_hb": churn_hb,
    "bcast_faults_ae": bcast_faults_ae,
}


def prepare(name: str, seed: int, scale: str) -> Prepared:
    return BUILDERS[name](seed, SIZES[scale])
