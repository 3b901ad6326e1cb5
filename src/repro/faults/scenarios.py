"""The adversarial scenario matrix: fault plans × workloads, run in parallel.

Every scenario builds a monitored :class:`~repro.core.cluster.AtumCluster`,
applies a named :class:`~repro.faults.plan.FaultPlan`, drives one of the
paper's workloads (broadcast dissemination, continuous churn, growth) and
reports a *robustness row*: the invariant-monitor outcome, delivery/
completion statistics, fault-subsystem counters, and — via
:func:`repro.analysis.robustness.scenario_robustness_row` — the paper's
analytical failure probabilities for the same fault fraction.

Because every fault stays inside the paper's fault model (Byzantine
placement is capped to a strict minority of every vgroup, partitioned and
crashed nodes are exempt from the wrongful-eviction check), **zero invariant
violations is the expected outcome of the whole matrix** — a non-zero count
is a protocol bug, not an unlucky roll.

Scenarios are seeded and deterministic.  :func:`run_scenario` returns one
run's row and is itself the picklable shard :func:`run_matrix` fans over
worker processes through :mod:`repro.sim.runpar`, one ``(seed, name)`` cell
per shard; :func:`run_matrix` then folds each scenario's per-seed rows, in
seed order, into one ``FAULT_MATRIX.json`` row.  The deployment-scale
``nightly/*`` rows are their small-matrix twins with scale, load and bounds
restated (:func:`_nightly_scenarios`).

A fault plan is one line of :data:`PLAN_BUILDERS`, mostly a ``partial`` of
a mechanism (:func:`_behaviour_plan`, :func:`_plan_byz_transfer`) or a fixed
set of link faults.  A new node behaviour is one class in
:mod:`repro.faults.byzantine`, one ``PLAN_BUILDERS`` line and one
``SCENARIOS`` row.  What a row's ``theory`` and ``catchup_theory`` columns
count is read off the plans its runs build (:func:`_plan_facts`).

CLI::

    python -m repro.faults.scenarios --matrix small --seeds 2 \\
        --output FAULT_MATRIX.json
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.robustness import catchup_latency_bound, scenario_robustness_row
from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MetricsTap
from repro.faults.behaviours import apply_plan
from repro.faults.invariants import InvariantMonitor
from repro.faults.plan import (
    RESPONDER_BEHAVIOURS,
    FaultPlan,
    GroupSlowdown,
    LinkFault,
    NodeFault,
    Partition,
)
from repro.group.antientropy import AntiEntropyConfig
from repro.net import requests
from repro.overlay.membership import MembershipError
from repro.sim.rng import named_stream
from repro.sim.runpar import run_sharded
from repro.workloads.broadcasts import BroadcastWorkload, BroadcastWorkloadConfig
from repro.workloads.byzantine import select_byzantine_per_group
from repro.workloads.churn import ChurnConfig, ChurnWorkload
from repro.workloads.growth import GrowthConfig, GrowthWorkload


#: Heartbeat interval of every row (seconds); the evict attack proposes at
#: twice it.
HEARTBEAT_PERIOD = 2.0

#: Every workload :func:`run_scenario` can drive.
WORKLOADS = ("broadcast", "churn", "churn_broadcast", "flash_crowd", "growth")


@dataclass(frozen=True)
class Scenario:
    """One (plan, workload) combination of the matrix.

    Attributes:
        name: Unique ``workload/plan`` identifier.
        workload: One of :data:`WORKLOADS`: ``"broadcast"``, ``"churn"``,
            ``"churn_broadcast"`` (broadcasts interleaved with churn),
            ``"flash_crowd"`` (an actor-level join burst with broadcasts
            interleaved) or ``"growth"``.
        plan: Key into :data:`PLAN_BUILDERS`.
        nodes: System size (``build_static`` base; growth grows beyond it).
        fault_fraction: Fraction handed to the plan builder (Byzantine
            share, partition share, ...).
        heartbeats: Whether nodes run the heartbeat/eviction layer (every
            row at :data:`HEARTBEAT_PERIOD`).
        broadcasts / interval / settle_time: Broadcast-workload knobs.
        churn_rate / churn_duration: Churn-workload knobs.
        growth_target: Growth-workload target size.
        delivery_bound: The ≥ correct-fraction delivery bound this scenario
            is expected to meet (broadcast workloads only; reported, and
            asserted by the matrix tests for the partition-heal scenario).
        smr: ``"sync"`` (Dolev-Strong) or ``"async"`` (PBFT) engine.
        antientropy: Equip every node with the digest-exchange repair layer
            (:mod:`repro.group.antientropy`); required by the 1.0 delivery
            bounds of the partition scenarios.
        checkpoint_interval: PBFT checkpoint interval
            (:mod:`repro.smr.checkpoint`); read by async scenarios only,
            which report it (sync rows report ``0``).  Async broadcast
            scenarios are held to per-vgroup log **equality** (not just
            prefix consistency) at quiescence — the liveness bound state
            transfer restores.
        catchup_bound: Maximum allowed ``smr.checkpoint.catchup_latency``
            (simulated seconds from a replica first requesting state
            transfer to its log gap closing).  Checked against the run's
            *maximum* observed catch-up latency and folded into the bound
            check; a vacuous run (no replica ever caught up) fails the
            bound.  ``None`` skips it.  The Byzantine-responder scenarios
            pair this empirical bound with the analytical
            :func:`repro.analysis.robustness.catchup_latency_bound` column.
        attack_threshold: For join-leave attack scenarios: the maximum
            per-vgroup *threshold excess* (coalition members minus the
            group's ``(size - 1) // 2`` strict-minority bound) the attack
            is allowed to reach; ``0`` means the coalition must never
            outgrow the eviction/agreement threshold of any vgroup.
            Folded into the bound check; ``None`` skips it.
        gmin / gmax: Vgroup size bounds (matrix defaults 3/6).  The
            join-leave scenario overrides them to the paper's regime —
            larger vgroups — because the strict-minority bound is
            *supposed* to fail with high probability when vgroups are far
            below ``k * log2(N)``.
        shuffle: Membership shuffling on leaves (the paper's anti-targeting
            defense; default on).  The epoch-crossing row disables it so
            the reconfiguring vgroup keeps a stable core and the
            transition-chain recovery under test actually spans epochs.
    """

    name: str
    workload: str
    plan: str
    nodes: int = 30
    fault_fraction: float = 0.2
    heartbeats: bool = False
    broadcasts: int = 6
    interval: float = 0.5
    settle_time: float = 30.0
    churn_rate: float = 10.0
    churn_duration: float = 90.0
    growth_target: int = 40
    delivery_bound: float = 1.0
    smr: str = "sync"
    antientropy: bool = False
    checkpoint_interval: int = 8
    catchup_bound: Optional[float] = None
    attack_threshold: Optional[float] = None
    gmin: int = 3
    gmax: int = 6
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
            )
        if self.plan not in PLAN_BUILDERS:
            raise ValueError(
                f"unknown plan {self.plan!r}; known: {sorted(PLAN_BUILDERS)}"
            )
        if self.smr not in ("sync", "async"):
            raise ValueError(
                f"unknown smr engine {self.smr!r}; expected 'sync' or 'async'"
            )


# --------------------------------------------------------------------- plans

#: Builds one run's plan on its freshly built cluster, drawing only from
#: ``rng`` (the run's ``faults.select:<name>`` stream).
PlanBuilder = Callable[[Scenario, AtumCluster, random.Random], FaultPlan]


def _sample(
    rng: random.Random, population: Any, fraction: float, exclude: Any = ()
) -> List[str]:
    """``max(1, floor(fraction * len(population)))`` of ``population``'s
    members outside ``exclude`` (all of them, if fewer), drawn with ``rng``
    and sorted."""
    candidates = [item for item in sorted(population) if item not in exclude]
    count = max(1, math.floor(fraction * len(population)))
    return sorted(rng.sample(candidates, min(count, len(candidates))))


def _bisection(cluster: AtumCluster, rng: random.Random) -> Tuple[Tuple[str, ...], ...]:
    """The system's addresses cut into two random halves, each sorted."""
    shuffled = sorted(cluster.engine.node_group)
    rng.shuffle(shuffled)
    half = len(shuffled) // 2
    return tuple(sorted(shuffled[:half])), tuple(sorted(shuffled[half:]))


def _crashes(addresses: Sequence[str], stop: float) -> FaultPlan:
    """``addresses`` crash at t=5 s and recover at ``stop``."""
    return FaultPlan(
        nodes=tuple(
            NodeFault(address=address, behaviour="crash", start=5.0, stop=stop)
            for address in addresses
        )
    )


def _fixed(*links: LinkFault) -> PlanBuilder:
    """The builder of one plan of whole-network ``links`` (none: the empty
    plan), the same in every run."""
    plan = FaultPlan(links=links)
    return lambda scenario, cluster, rng: plan


def _composed(*names: str) -> PlanBuilder:
    """The builder of the named plans composed, built in order on one ``rng``."""
    return lambda scenario, cluster, rng: sum(
        (PLAN_BUILDERS[name](scenario, cluster, rng) for name in names), FaultPlan()
    )


def _plan_partition_heal(
    scenario: Scenario,
    cluster: AtumCluster,
    rng: random.Random,
    quiet_for: Optional[float] = None,
) -> FaultPlan:
    """Partition a random ``fault_fraction`` of the system; heal it mid-run,
    or ``quiet_for`` seconds after the last broadcast."""
    members = tuple(_sample(rng, cluster.engine.node_group, scenario.fault_fraction))
    heal_at = 4.0
    if quiet_for is not None:
        heal_at = scenario.broadcasts * scenario.interval + quiet_for
    return FaultPlan(partitions=(Partition(members=members, start=0.6, heal_at=heal_at),))


def _plan_two_sided_split(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Side-preserving split: two internally-connected halves, healed mid-run.

    The random bisection deliberately ignores vgroup boundaries, so vgroups
    straddle the split and each side keeps running its own heartbeats and
    SMR — the paper's real hard case of divergence-and-reconcile rather
    than mere unavailability.
    """
    return FaultPlan(
        partitions=(Partition(sides=_bisection(cluster, rng), start=0.6, heal_at=4.0),)
    )


def _behaviour_plan(
    scenario: Scenario,
    cluster: AtumCluster,
    rng: random.Random,
    behaviour: str,
    **fault_fields: Any,
) -> FaultPlan:
    """Byzantine ``behaviour`` on a per-vgroup strict minority of nodes."""
    chosen = select_byzantine_per_group(
        cluster.engine.groups.values(), scenario.fault_fraction, rng
    )
    return FaultPlan(
        nodes=tuple(
            NodeFault(address=address, behaviour=behaviour, **fault_fields)
            for address in chosen
        )
    )


def _plan_rejoin_attack(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """The adaptive join-leave coalition (ROADMAP's churn attack).

    The coalition starts spread out — one member per vgroup, in random
    vgroup order, until ``fault_fraction`` of the system is marked (capped
    at each group's strict minority) — and then strategically leaves and
    re-joins trying to pile up in one vgroup.  Random-walk placement plus
    post-operation shuffling is what must keep every vgroup's coalition
    at or below its eviction/agreement threshold.
    """
    # The attack stops well before the workload settles: the point is to
    # measure placement quality under strategic churn, and churning through
    # the final quiescence phase would leave merge/split transients mid-
    # flight at finalize (flagged as size-bound violations by the monitor).
    attack_stop = max(10.0, scenario.broadcasts * scenario.interval + scenario.settle_time - 20.0)
    total = max(2, int(math.floor(scenario.fault_fraction * len(cluster.engine.node_group))))
    views = sorted(cluster.engine.groups.values(), key=lambda view: view.group_id)
    rng.shuffle(views)
    quotas: Dict[str, int] = {}
    chosen: List[str] = []
    while len(chosen) < total:
        progressed = False
        for view in views:
            if len(chosen) >= total:
                break
            taken = quotas.get(view.group_id, 0)
            if taken >= max(1, (view.size - 1) // 2):
                continue
            candidates = [m for m in view.members if m not in chosen]
            if not candidates:
                continue
            chosen.append(rng.choice(sorted(candidates)))
            quotas[view.group_id] = taken + 1
            progressed = True
        if not progressed:
            break
    return FaultPlan(
        nodes=tuple(
            NodeFault(address, "rejoin_attack", stop=attack_stop, attack_period=2.0)
            for address in sorted(chosen)
        )
    )


def _plan_crash_recover(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """A random ``fault_fraction`` of the system crashes, then recovers."""
    return _crashes(_sample(rng, cluster.engine.node_group, scenario.fault_fraction), 40.0)


def _plan_byz_transfer(
    scenario: Scenario,
    cluster: AtumCluster,
    rng: random.Random,
    behaviours: Tuple[str, ...],
) -> FaultPlan:
    """Recovering laggards vs adversarial state-transfer servers.

    Two composed ingredients: a per-vgroup strict minority of *responder*
    adversaries (``fault_fraction``; they participate normally in every
    protocol and misbehave only when serving ``ckpt.transfer`` requests),
    plus a 15% laggard partition that heals mid-run — the laggards then
    must close their log gaps by fetching checkpointed state from signer
    sets that contain the adversaries.  Laggards are drawn outside the
    responder set so every recovering replica is correct.
    """
    views = sorted(cluster.engine.groups.values(), key=lambda view: view.group_id)
    responders = select_byzantine_per_group(views, scenario.fault_fraction, rng)
    node_faults = tuple(
        NodeFault(address=address, behaviour=behaviours[index % len(behaviours)])
        for index, address in enumerate(responders)
    )
    laggards = tuple(_sample(rng, cluster.engine.node_group, 0.15, set(responders)))
    # The laggard partition must outlast the broadcast injection window:
    # only then do the laggards fall multiple checkpoint intervals behind
    # and have to recover through *state transfer* (the path under attack)
    # rather than a cheap tail view change.
    heal_at = max(4.0, scenario.broadcasts * scenario.interval + 2.0)
    return FaultPlan(
        partitions=(Partition(members=laggards, start=0.6, heal_at=heal_at),),
        nodes=node_faults,
    )


def _plan_split_brain_directory(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Vgroup-aligned split with one displaced straddler.

    The sides follow vgroup boundaries — each side stays a healthy
    sub-system processing its own membership traffic — except for one
    *displaced* node stranded on the side opposite its vgroup.  Its
    co-members (all on the other side) stop hearing its heartbeats, form
    an eviction majority, and the eviction is necessarily **cross-side**:
    the split-brain coordinator defers it into the deciding side's
    directory and the merge must enforce it at heal (evicted-on-either-
    side stays evicted), which is exactly what the directory-convergence
    invariants check.
    """
    views = sorted(cluster.engine.groups.values(), key=lambda view: view.group_id)
    half = max(1, len(views) // 2)
    side_a = {member for view in views[:half] for member in view.members}
    side_b = {member for view in views[half:] for member in view.members}
    if side_b:
        displaced = min(side_a)
        side_a.discard(displaced)
        side_b.add(displaced)
    else:
        # Degenerate single-group system: fall back to a plain bisection.
        members = sorted(side_a)
        side_a, side_b = set(members[: len(members) // 2]), set(members[len(members) // 2 :])
    sides = (tuple(sorted(side_a)), tuple(sorted(side_b)))
    return FaultPlan(partitions=(Partition(sides=sides, start=5.0, heal_at=25.0),))


def _plan_rejoin_eviction(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """The join-leave coalition racing the live eviction pipeline.

    Composes the §3.2 rejoin attack with a wave of crash faults on
    non-coalition nodes: heartbeat majorities must evict the crashed nodes
    (and keep them out when they recover under evicted identities) while
    the coalition's strategic churn keeps reshaping the very vgroups doing
    the evicting.
    """
    plan = _plan_rejoin_attack(scenario, cluster, rng)
    coalition = {node_fault.address for node_fault in plan.nodes}
    return plan + _crashes(_sample(rng, cluster.engine.node_group, 0.08, coalition), 60.0)


def _plan_slow_vgroup(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Straggler vgroups: ``fault_fraction`` of the initial groups run 3x slow.

    Group ids are sampled from the t=0 grouping; ids retired by later
    merges simply stop matching, which is the honest model — a straggler
    that gets absorbed stops being a straggler.
    """
    chosen = tuple(_sample(rng, cluster.engine.groups, scenario.fault_fraction))
    return FaultPlan(slowdowns=(GroupSlowdown(groups=chosen, factor=3.0),))


def _plan_epoch_crossing(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Isolate one replica of the largest vgroup across TWO reconfigurations.

    A member of the largest vgroup is cut off alone (side-preserving, so
    its broadcasts still count toward the delivery bound) while two of its
    co-members leave the system.  Each leave advances the vgroup's epoch,
    so by the heal the laggard's certified state is two epochs stale and
    catching up requires verifying a chain of quorum-signed
    epoch-transition records — the ISSUE-7 recovery path.  Scenarios
    running this plan should set ``shuffle=False``: shuffling would
    re-home the survivors on each leave and dissolve the very group whose
    transition chain is under test.
    """
    engine = cluster.engine
    group_id = max(
        sorted(engine.groups), key=lambda gid: len(engine.groups[gid].members)
    )
    members = sorted(engine.groups[group_id].members)
    laggard = members[0]
    leavers = members[1:3] if len(members) >= 5 else []
    others = tuple(
        address for address in sorted(cluster.engine.node_group) if address != laggard
    )
    return FaultPlan(
        partitions=(Partition(sides=(others, (laggard,)), start=5.0, heal_at=18.0),),
        leaves=tuple(zip((10.0, 14.0), leavers)),
    )


def _plan_overlapping_splits(
    scenario: Scenario, cluster: AtumCluster, rng: random.Random
) -> FaultPlan:
    """Two concurrent, *overlapping* side-preserving splits.

    A random bisection opens first; while it is still in force a parity
    bisection (even vs odd ranks) opens over the same node set, so each
    node is constrained by the intersection of two independent cuts.  The
    splits heal in the order they opened, exercising the multi-split
    coordinator's cascaded, order-independent reconciliation.
    """
    random_cut = _bisection(cluster, rng)
    addresses = sorted(cluster.engine.node_group)
    parity_cut = (tuple(addresses[0::2]), tuple(addresses[1::2]))
    return FaultPlan(
        partitions=(
            Partition(sides=random_cut, start=0.6, heal_at=6.0),
            Partition(sides=parity_cut, start=2.0, heal_at=9.0),
        )
    )


PLAN_BUILDERS: Dict[str, PlanBuilder] = {
    "none": _fixed(),
    "partition_heal": _plan_partition_heal,
    # By the late heal the connected nodes have gone quiet: their
    # anti-entropy timers have backed off to the longest interval, so the
    # repair must come from the cut nodes' own summaries and the replies
    # they draw.
    "late_heal": partial(_plan_partition_heal, quiet_for=35.0),
    "two_sided_split": _plan_two_sided_split,
    "lossy_links": _fixed(LinkFault(loss=0.05)),
    # Bit-flipped traffic: receivers must detect and discard it.
    "corrupt_links": _fixed(LinkFault(corrupt=0.05)),
    "delay_spike": _fixed(LinkFault(extra_delay=0.05, jitter=0.05, start=0.5, stop=4.0)),
    "dup_storm": _fixed(LinkFault(duplicate=0.25)),
    "silent_minority": partial(_behaviour_plan, behaviour="silent"),
    "equivocators": partial(_behaviour_plan, behaviour="equivocate"),
    "evict_attack": partial(
        _behaviour_plan, behaviour="evict_attack", attack_period=HEARTBEAT_PERIOD * 2.0
    ),
    "rejoin_attack": _plan_rejoin_attack,
    "crash_recover": _plan_crash_recover,
    "kitchen_sink": _composed("partition_heal", "lossy_links", "silent_minority"),
    "byz_transfer_stonewall": partial(_plan_byz_transfer, behaviours=("stonewall",)),
    "byz_transfer_slow_drip": partial(_plan_byz_transfer, behaviours=("slow_drip",)),
    # Garbage servers alternate with stale-certificate servers.
    "byz_transfer_garbage": partial(
        _plan_byz_transfer, behaviours=("garbage_serve", "stale_cert")
    ),
    "split_brain_directory": _plan_split_brain_directory,
    "rejoin_eviction": _plan_rejoin_eviction,
    "slow_vgroup": _plan_slow_vgroup,
    "epoch_crossing": _plan_epoch_crossing,
    "overlapping_splits": _plan_overlapping_splits,
}


# ------------------------------------------------------------------ scenarios


def _default_scenarios() -> Dict[str, Scenario]:
    entries = [
        Scenario(name="broadcast/none", workload="broadcast", plan="none"),
        Scenario(
            name="broadcast/partition_heal",
            workload="broadcast",
            plan="partition_heal",
            fault_fraction=0.2,
            # The partition is drawn over the whole system, so an unlucky
            # vgroup can lose its majority and stall broadcasts originating
            # there until the heal.  Anti-entropy repairs exactly that:
            # after the heal, digest exchange re-requests what was missed,
            # so every broadcast by a connected correct origin reaches every
            # correct node — the bound is the paper's full 1.0.
            delivery_bound=1.0,
            antientropy=True,
        ),
        # The same cut healed after the system has gone quiet: anti-entropy
        # must still repair everything once the cut nodes are heard again.
        Scenario(
            name="broadcast/late_heal",
            workload="broadcast",
            plan="late_heal",
            fault_fraction=0.1,
            delivery_bound=1.0,
            antientropy=True,
            settle_time=50.0,
        ),
        # Side-preserving splits: both sides stay internally live, diverge,
        # and must reconcile to full delivery after the heal — under the
        # synchronous engine and under PBFT (where view changes and the
        # (g-1)/3 threshold do the intra-group catching up).
        Scenario(
            name="broadcast/two_sided_split",
            workload="broadcast",
            plan="two_sided_split",
            fault_fraction=0.5,
            delivery_bound=1.0,
            antientropy=True,
        ),
        Scenario(
            name="broadcast/two_sided_split_pbft",
            workload="broadcast",
            plan="two_sided_split",
            fault_fraction=0.5,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            settle_time=40.0,
        ),
        # The catch-up rows are the liveness tier: every PBFT row demands
        # per-vgroup log *equality* at quiescence, and here an isolated-
        # then-healed replica with no pending requests must close its log
        # gap through checkpoint announces + state transfer
        # (repro.smr.checkpoint), not merely stay safe.
        Scenario(
            name="broadcast/isolated_catchup_pbft",
            workload="broadcast",
            plan="partition_heal",
            fault_fraction=0.15,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=50.0,
            # The unfaulted baseline for catch-up latency: every transfer
            # is served by a correct responder on the first attempt.
            catchup_bound=15.0,
        ),
        # Byzantine state-transfer servers (the adversarial-recovery trio):
        # a per-vgroup minority of responders participates normally in
        # every protocol — so they legitimately enter the certifier sets
        # recovering replicas fetch state from — and attacks only the
        # serving path.  The request layer's rotation + scoreboard must
        # keep catch-up latency inside ``catchup_bound`` (the analytical
        # rotation bound is reported next to it as ``catchup_theory``),
        # and the equality bar still holds: every correct laggard closes
        # its gap despite stonewalling, deadline-grazing slow-drips,
        # tampered operation bodies or stale certificates.
        Scenario(
            name="broadcast/byz_transfer_stonewall",
            workload="broadcast",
            plan="byz_transfer_stonewall",
            fault_fraction=0.34,
            broadcasts=48,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=60.0,
            catchup_bound=30.0,
        ),
        Scenario(
            name="broadcast/byz_transfer_slow_drip",
            workload="broadcast",
            plan="byz_transfer_slow_drip",
            fault_fraction=0.34,
            broadcasts=48,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=60.0,
            catchup_bound=30.0,
        ),
        Scenario(
            name="broadcast/byz_transfer_garbage",
            workload="broadcast",
            plan="byz_transfer_garbage",
            fault_fraction=0.34,
            broadcasts=48,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=60.0,
            catchup_bound=30.0,
        ),
        Scenario(
            name="broadcast/split_stall_pbft",
            workload="broadcast",
            plan="two_sided_split",
            fault_fraction=0.5,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=50.0,
        ),
        # Sustained load with a short interval: checkpoints form and
        # garbage-collect the protocol log continuously while the equality
        # bound still holds — GC must never eat operations a replica needs.
        Scenario(
            name="broadcast/checkpoint_gc_pbft",
            workload="broadcast",
            plan="none",
            broadcasts=16,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=3,
            settle_time=40.0,
        ),
        # ISSUE-7 epoch-crossing recovery: one replica of the largest
        # vgroup is cut off alone while two co-members leave, so its only
        # certified checkpoint is two epochs stale by the heal and catch-up
        # must verify the quorum-signed epoch-transition chain.  Shuffling
        # is off so the reconfiguring vgroup keeps a stable core (see
        # _plan_epoch_crossing); the split is side-preserving, so the full
        # 1.0 delivery bound still applies.
        Scenario(
            name="broadcast/epoch_crossing_catchup",
            workload="broadcast",
            plan="epoch_crossing",
            fault_fraction=0.05,
            broadcasts=16,
            interval=0.25,
            delivery_bound=1.0,
            antientropy=True,
            smr="async",
            checkpoint_interval=2,
            settle_time=50.0,
            shuffle=False,
        ),
        # Two overlapping side-preserving splits with cascaded heals: every
        # node is constrained by the intersection of two independent cuts,
        # and the multi-split coordinator must reconcile the directory and
        # delivery state as each cut heals in turn.
        Scenario(
            name="broadcast/overlapping_splits",
            workload="broadcast",
            plan="overlapping_splits",
            delivery_bound=1.0,
            antientropy=True,
            settle_time=45.0,
        ),
        Scenario(
            name="broadcast/lossy_links",
            workload="broadcast",
            plan="lossy_links",
            delivery_bound=0.9,
        ),
        Scenario(name="broadcast/delay_spike", workload="broadcast", plan="delay_spike"),
        Scenario(
            name="broadcast/delay_spike_pbft",
            workload="broadcast",
            plan="delay_spike",
            smr="async",
            settle_time=40.0,
        ),
        # Corrupted shares fail payload-digest verification and are dropped
        # before they can pollute accumulation state; the effect on delivery
        # is at worst that of an equal loss rate.
        Scenario(
            name="broadcast/corrupt_links",
            workload="broadcast",
            plan="corrupt_links",
            delivery_bound=0.9,
        ),
        Scenario(name="broadcast/dup_storm", workload="broadcast", plan="dup_storm"),
        # Per-vgroup Byzantine quotas are floor(fraction * size) capped to a
        # strict minority; with the matrix's vgroups of 4-6 members a 0.25
        # fraction marks exactly one member of most vgroups.
        Scenario(
            name="broadcast/silent_minority",
            workload="broadcast",
            plan="silent_minority",
            fault_fraction=0.25,
        ),
        Scenario(
            name="broadcast/equivocators",
            workload="broadcast",
            plan="equivocators",
            fault_fraction=0.25,
        ),
        Scenario(
            name="broadcast/evict_attack",
            workload="broadcast",
            plan="evict_attack",
            fault_fraction=0.25,
            heartbeats=True,
            settle_time=40.0,
        ),
        # The compound-stress scenario deliberately exceeds the per-vgroup
        # fault model (a random partition plus a silent minority can strip a
        # vgroup of its correct majority), so only the *safety* invariants
        # are guaranteed — delivery is best-effort and the bound is loose.
        Scenario(
            name="broadcast/kitchen_sink",
            workload="broadcast",
            plan="kitchen_sink",
            fault_fraction=0.25,
            delivery_bound=0.25,
        ),
        # The ROADMAP's join-leave attack: an adaptive coalition churns
        # itself trying to concentrate in one vgroup.  Run in the paper's
        # regime — vgroups near k*log2(N), a ~10% adversary — where
        # random-walk placement + shuffling must keep every vgroup's
        # coalition at or below its eviction/agreement threshold
        # (attack_threshold = maximum allowed excess over (g-1)//2; 0 means
        # the coalition never outgrows a strict minority anywhere).  With
        # the matrix's toy 3..6-member vgroups this bound *should* fail —
        # that is the analytical vgroup-failure probability, not a bug —
        # which is why this row overrides gmin/gmax.
        Scenario(
            name="broadcast/rejoin_attack",
            workload="broadcast",
            plan="rejoin_attack",
            nodes=50,
            fault_fraction=0.08,
            gmin=6,
            gmax=12,
            settle_time=120.0,
            delivery_bound=0.8,
            antientropy=True,
            attack_threshold=0.0,
        ),
        # Split-brain membership reconciliation: a vgroup-aligned split with
        # one displaced straddler.  Each side keeps processing membership
        # traffic; the straddler's co-members (all on the other side) form
        # an eviction majority whose execution must be *deferred* as a
        # cross-side eviction and enforced at the heal's directory merge —
        # the directory-convergence invariants replay the merge decision.
        Scenario(
            name="broadcast/split_brain_directory",
            workload="broadcast",
            plan="split_brain_directory",
            heartbeats=True,
            antientropy=True,
            settle_time=45.0,
            # The displaced straddler's vgroup loses a member mid-run and
            # the split covers everyone for 20 simulated seconds, so the
            # delivery bound is necessarily loose; the scenario's real
            # assertions are the directory invariants.
            delivery_bound=0.5,
        ),
        # The join-leave coalition racing the live eviction pipeline
        # (rejoin_attack × crash-driven evictions), in the paper's vgroup
        # regime.  The coalition must stay a strict minority everywhere
        # while heartbeat majorities evict crashed nodes and keep them out
        # after recovery.
        Scenario(
            name="broadcast/rejoin_eviction",
            workload="broadcast",
            plan="rejoin_eviction",
            nodes=50,
            fault_fraction=0.08,
            gmin=6,
            gmax=12,
            heartbeats=True,
            settle_time=120.0,
            delivery_bound=0.7,
            antientropy=True,
            attack_threshold=0.0,
        ),
        Scenario(name="churn/none", workload="churn", plan="none", nodes=40),
        # Anti-entropy racing continuous churn: repair runs while vgroups
        # split, merge and shuffle under it, with broadcasts interleaved so
        # there is state to repair (joiners start with empty delivery
        # state).  The AE store must stay bounded by the settled-broadcast
        # GC + summary window while the monitor stays clean.
        Scenario(
            name="churn/antientropy",
            workload="churn_broadcast",
            plan="none",
            nodes=40,
            antientropy=True,
            churn_rate=10.0,
            churn_duration=60.0,
            broadcasts=8,
            settle_time=30.0,
            delivery_bound=0.9,
        ),
        # PBFT checkpointing under continuous churn: every engine-level
        # leave reconfigures some vgroup, so certificates constantly cross
        # epoch boundaries and the transition records formed per
        # reconfiguration are what keep state transfer serving.  Exempt
        # from the log-equality check (churn_broadcast always is) — the
        # assertions are the delivery bound plus a clean monitor.
        Scenario(
            name="churn/epoch_checkpoint",
            workload="churn_broadcast",
            plan="none",
            nodes=40,
            smr="async",
            checkpoint_interval=2,
            antientropy=True,
            churn_rate=10.0,
            churn_duration=60.0,
            # Dense enough that vgroups certify checkpoints *between*
            # membership operations — otherwise reconfigurations have no
            # certificate to carry and the row never crosses an epoch.
            broadcasts=24,
            settle_time=30.0,
            delivery_bound=0.9,
        ),
        # Heartbeats are on so the crash actually bites: crashed nodes stop
        # heartbeating, get suspected and evicted (engine-level churn alone
        # never consults node actors), and the recovered nodes must stay out
        # under their evicted identities while churn keeps reshaping groups.
        Scenario(
            name="churn/crash_recover",
            workload="churn",
            plan="crash_recover",
            nodes=40,
            fault_fraction=0.1,
            heartbeats=True,
        ),
        # Straggler vgroups under continuous churn: a quarter of the t=0
        # vgroups execute membership agreements 3x slower.  Churn must
        # still complete (slow, not stuck) and the row reports the
        # straggler-induced operation-latency penalty.
        Scenario(
            name="churn/slow_vgroup",
            workload="churn",
            plan="slow_vgroup",
            nodes=40,
            fault_fraction=0.25,
        ),
        Scenario(name="growth/none", workload="growth", plan="none", nodes=12),
        Scenario(
            name="growth/silent_minority",
            workload="growth",
            plan="silent_minority",
            nodes=12,
            fault_fraction=0.25,
        ),
        # Churn storm: re-joins at 3x the antientropy row's rate with
        # heartbeats and broadcasts running; every broadcast must still
        # reach every correct node.
        Scenario(
            name="churn/storm_static",
            workload="churn_broadcast",
            plan="none",
            nodes=40,
            heartbeats=True,
            antientropy=True,
            churn_rate=30.0,
            churn_duration=60.0,
            broadcasts=8,
            settle_time=30.0,
            delivery_bound=1.0,
        ),
        # Flash crowd: the system doubles in half a minute via actor-level
        # joins while broadcasts run; every broadcast must still reach
        # every correct node.
        Scenario(
            name="flash/join_storm_static",
            workload="flash_crowd",
            plan="none",
            nodes=30,
            growth_target=60,
            churn_duration=30.0,
            broadcasts=8,
            settle_time=30.0,
            antientropy=True,
            delivery_bound=1.0,
        ),
    ]
    return {scenario.name: scenario for scenario in entries}


SCENARIOS: Dict[str, Scenario] = _default_scenarios()

#: The matrix CI runs: every default scenario (≥ 8 plan × workload combos).
SMALL_MATRIX: List[str] = list(SCENARIOS)


def _bench_scale() -> int:
    """Global workload scale factor (``ATUM_BENCH_SCALE``, default 1).

    A malformed value raises instead of silently downgrading: the nightly
    job's whole point is deployment-scale coverage, and a typo'd env var
    must not shrink the run while the artifact still claims 800 nodes.
    """
    raw = os.environ.get("ATUM_BENCH_SCALE", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"ATUM_BENCH_SCALE must be an integer, got {raw!r}"
        ) from None


def _nightly_scenarios(nodes: int) -> Dict[str, Scenario]:
    """The deployment-scale slice run nightly (not per-PR), at ``nodes`` nodes.

    Every row is its small-matrix twin with only the scale, load and bounds
    restated.  :func:`_resolve` builds the slice with ``400 *
    ATUM_BENCH_SCALE`` nodes, matching the paper's 800-node deployments at
    the nightly workflow's ``ATUM_BENCH_SCALE=2``.
    """

    def scaled(twin: str, name: str, **changes: Any) -> Scenario:
        return replace(SCENARIOS[twin], name=f"nightly/{name}", nodes=nodes, **changes)

    entries = [
        scaled("broadcast/partition_heal", "partition_heal", broadcasts=8, settle_time=60.0),
        scaled("broadcast/two_sided_split", "two_sided_split", broadcasts=8, settle_time=60.0),
        scaled(
            "broadcast/two_sided_split_pbft",
            "two_sided_split_pbft",
            broadcasts=8,
            settle_time=80.0,
        ),
        scaled("broadcast/silent_minority", "silent_minority", broadcasts=8, settle_time=60.0),
        # Deployment-scale checkpoint catch-up: isolated replicas must reach
        # log *equality* (not just delivery) after the heal, via checkpoint
        # announces + state transfer.
        scaled(
            "broadcast/isolated_catchup_pbft",
            "checkpoint_catchup",
            broadcasts=8,
            settle_time=80.0,
            catchup_bound=None,
        ),
        # Deployment-scale adversarial recovery: hundreds of laggards catch
        # up through signer sets salted with stonewalling responders; the
        # rotation bound must hold at scale.
        scaled(
            "broadcast/byz_transfer_stonewall",
            "byzantine_transfer",
            # Heavy injection: with ~N/4.5 vgroups, a thin workload leaves
            # most laggard groups without a certified checkpoint to
            # transfer, and the catch-up bound would fail vacuously.
            broadcasts=160,
            interval=0.1,
            settle_time=80.0,
            catchup_bound=40.0,
        ),
        # Deployment-scale split-brain reconciliation: vgroup-aligned
        # sides, a displaced straddler, deferred cross-side eviction
        # enforced by the directory merge at heal.
        scaled(
            "broadcast/split_brain_directory",
            "split_brain_directory",
            broadcasts=8,
            settle_time=60.0,
        ),
        # Deployment-scale rejoin × eviction-pipeline race.  Unlike the
        # small-matrix row (threshold 0), the composed eviction wave may
        # transiently concentrate the coalition one past the strict
        # minority: evicting crashed *correct* members tightens the
        # (size-1)//2 threshold while the undersized vgroup awaits its
        # merge.  Excess 1 still keeps the coalition below every eviction
        # majority; anything beyond fails the run.
        scaled(
            "broadcast/rejoin_eviction",
            "rejoin_eviction",
            fault_fraction=0.05,
            broadcasts=8,
            attack_threshold=1.0,
        ),
        # Deployment-scale join-leave attack: the coalition must never
        # outgrow any vgroup's strict minority despite hundreds of
        # strategic re-join attempts.
        scaled(
            "broadcast/rejoin_attack",
            "rejoin_attack",
            fault_fraction=0.05,
            broadcasts=8,
            settle_time=80.0,
        ),
        # Deployment-scale epoch-crossing recovery: the isolated replica of
        # the largest vgroup re-anchors a two-epoch-stale certificate via
        # the quorum-signed transition chain while hundreds of other groups
        # keep deciding.
        scaled("broadcast/epoch_crossing_catchup", "epoch_crossing", settle_time=80.0),
        # Deployment-scale churn storm: hundreds of nodes churning with
        # heartbeats and broadcasts running must stay violation-free at the
        # paper's deployment scale.
        scaled(
            "churn/storm_static",
            "churn_storm",
            churn_rate=60.0,
            churn_duration=90.0,
            broadcasts=16,
            settle_time=60.0,
            delivery_bound=0.85,
        ),
        # Deployment-scale overlapping splits: two concurrent cuts over
        # hundreds of nodes, healed in sequence through the multi-split
        # coordinator.
        scaled(
            "broadcast/overlapping_splits",
            "overlapping_splits",
            broadcasts=8,
            settle_time=60.0,
        ),
    ]
    return {scenario.name: scenario for scenario in entries}


#: The deployment-scale slice the scheduled nightly workflow runs.  The
#: entries themselves are served by :func:`_resolve` (through
#: :func:`_nightly_scenarios`) at run time, NOT stored in ``SCENARIOS``,
#: so their node counts honour ``ATUM_BENCH_SCALE`` when the run starts
#: rather than when this module was imported.  Names do not depend on the
#: size, so the list is built at a fixed one: importing this module never
#: consults the environment (a malformed ``ATUM_BENCH_SCALE`` should fail
#: the *run*, not the import).
NIGHTLY_MATRIX: List[str] = sorted(_nightly_scenarios(400))


def _plan_facts(plan: FaultPlan) -> Dict[str, int]:
    """What a run's built plan faults, as its row reports it: the nodes it
    makes unavailable and its Byzantine state-transfer responders."""
    return {
        "unavailable_nodes": len(plan.unavailable_addresses()),
        "responder_faults": sum(
            node_fault.behaviour in RESPONDER_BEHAVIOURS for node_fault in plan.nodes
        ),
    }


def _catchup_theory_for(
    scenario: Scenario, runs: Sequence[Dict[str, Any]]
) -> Optional[Dict[str, float]]:
    """The analytical rotation bound, for a scenario some of whose ``runs``
    (rows or :func:`_plan_facts`) had Byzantine state-transfer responders.

    Worst case per vgroup: the per-group adversary quota
    ``min(floor(fraction * gmax), (gmax - 1) // 2)`` responders all queried
    before the first correct server, each burning one (backed-off, jittered)
    request timeout.  A function of the scenario, not of a run's outcome.
    """
    if not any(run["responder_faults"] for run in runs):
        return None
    quota = min(
        int(math.floor(scenario.fault_fraction * scenario.gmax)),
        (scenario.gmax - 1) // 2,
    )
    return catchup_latency_bound(
        group_size=scenario.gmax,
        byzantine_responders=quota,
        base_timeout=requests.BASE_TIMEOUT,
        backoff_factor=requests.BACKOFF_FACTOR,
        max_timeout=requests.MAX_TIMEOUT,
        jitter=requests.TIMEOUT_JITTER,
    )


def _scenario_columns(
    scenario: Scenario, runs: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """The configuration columns a per-run row and a matrix row both carry,
    the latter over its ``runs``."""
    return {
        "scenario": scenario.name,
        "workload": scenario.workload,
        "plan": scenario.plan,
        "smr": scenario.smr,
        "antientropy": scenario.antientropy,
        "checkpoint_interval": scenario.checkpoint_interval if scenario.smr == "async" else 0,
        "attack_threshold": scenario.attack_threshold,
        "catchup_bound": scenario.catchup_bound,
        "catchup_theory": _catchup_theory_for(scenario, runs),
        "delivery_bound": scenario.delivery_bound,
    }


def _correct_origin_fractions(
    cluster: AtumCluster,
    records: Sequence[Tuple[str, str]],
    faulted: frozenset,
) -> List[float]:
    """Delivery fractions of the ``(bcast_id, origin)`` records whose origin
    stayed correct.

    The paper's delivery bound covers broadcasts *by correct nodes*; a
    broadcast originated by a node the plan later silenced, crashed or
    partitioned carries no guarantee (its SMR phase may never complete), so
    it is excluded from the bound — it still shows up in the run's delivery
    counters, just not in the bound check.
    """
    fractions: List[float] = []
    for bcast_id, origin in records:
        node = cluster.nodes.get(origin)
        if origin in faulted or (node is not None and not node.is_correct):
            continue
        fractions.append(cluster.delivery_fraction(bcast_id))
    return fractions


def _workload_broadcast_records(workload: BroadcastWorkload) -> List[Tuple[str, str]]:
    """(bcast_id, origin) pairs of a broadcast workload's emissions.

    bcast ids are ``bc-<address>-<counter>`` (addresses may contain dashes).
    """
    return [
        (bcast_id, bcast_id[3 : bcast_id.rfind("-")])
        for bcast_id, _started_at in workload.broadcasts
    ]


def _interleave_broadcasts(
    cluster: AtumCluster, count: int, horizon: float, tag: str
) -> List[Tuple[str, str]]:
    """Schedule ``count`` broadcasts evenly spaced inside ``(0, horizon)``.

    Broadcast ``i`` leaves the ``i``-th correct member (round-robin over the
    membership when it fires) with payload ``{tag: i}``.  Returns the list
    its ``(bcast_id, origin)`` records are appended to as they fire.
    """
    records: List[Tuple[str, str]] = []

    def fire(index: int) -> None:
        members = cluster.correct_member_addresses()
        if members:
            origin = members[index % len(members)]
            records.append((cluster.broadcast(origin, {tag: index}), origin))

    spacing = horizon / (count + 1)
    for index in range(count):
        cluster.sim.schedule(spacing * (index + 1), lambda i=index: fire(i), tag=tag)
    return records


def _resolve(scenario: "str | Scenario") -> Scenario:
    if isinstance(scenario, Scenario):
        return scenario
    if scenario.startswith("nightly/"):
        # Re-derive nightly entries at resolve time so ATUM_BENCH_SCALE is
        # honoured when the run starts, not when this module was imported.
        nightly = _nightly_scenarios(400 * _bench_scale())
        if scenario in nightly:
            return nightly[scenario]
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; known: "
            f"{sorted(SCENARIOS) + NIGHTLY_MATRIX}"
        ) from None


# ----------------------------------------------------------------------- runs


def _build_run(
    seed: int, scenario: Scenario
) -> Tuple[AtumCluster, InvariantMonitor, FaultPlan]:
    """One run's monitored cluster at its static start, and the fault plan
    built on it (not yet applied)."""
    params = AtumParameters(
        hc=3,
        rwl=5,
        gmax=scenario.gmax,
        gmin=scenario.gmin,
        round_duration=0.5,
        heartbeat_period=HEARTBEAT_PERIOD,
        smr_kind=SmrKind.ASYNC if scenario.smr == "async" else SmrKind.SYNC,
        checkpoint_interval=scenario.checkpoint_interval,
        shuffle_enabled=scenario.shuffle,
    )
    cluster = AtumCluster(
        params,
        seed=seed,
        enable_heartbeats=scenario.heartbeats,
        antientropy=AntiEntropyConfig() if scenario.antientropy else None,
    )
    # Replay tolerates checker errors: a broken engine must surface as a
    # "structure" violation in this scenario's matrix row (and fail the
    # matrix), not abort the whole shard.
    monitor = InvariantMonitor(tolerate_check_errors=True)
    cluster.attach_monitor(monitor)
    # Pipeline-level event counters ride the same chain.  Observation only
    # (no RNG, no timers), so the matrix rows stay byte-identical.
    cluster.middleware_chain().add(MetricsTap())
    cluster.build_static([f"n{i}" for i in range(scenario.nodes)])
    rng = named_stream(f"faults.select:{scenario.name}", master_seed=seed)
    return cluster, monitor, PLAN_BUILDERS[scenario.plan](scenario, cluster, rng)


def _bound_met(measured: Optional[float], bound: Optional[float]) -> Optional[bool]:
    """Whether a run's ``measured`` maximum is within ``bound`` (``None``: no
    bound).  A run that measured nothing has not shown the bound: it fails."""
    if bound is None:
        return None
    return measured is not None and measured <= bound


def run_scenario(seed: int, scenario: "str | Scenario") -> Dict[str, Any]:
    """Run one seeded scenario to quiescence; returns its robustness row."""
    scenario = _resolve(scenario)
    cluster, monitor, plan = _build_run(seed, scenario)
    apply_plan(cluster, plan, monitor=monitor)

    mean_delivery_fraction: Optional[float] = None
    min_delivery_fraction: Optional[float] = None
    completion_ratio: Optional[float] = None
    # (bcast_id, origin) pairs of the broadcasts the workload emitted, for
    # the delivery bound; ``None`` for the workloads without broadcasts
    # (churn, growth), which the bound does not cover.
    broadcast_records: Optional[List[Tuple[str, str]]] = None

    if scenario.workload == "broadcast":
        workload = BroadcastWorkload(
            cluster,
            BroadcastWorkloadConfig(
                count=scenario.broadcasts,
                interval=scenario.interval,
                settle_time=scenario.settle_time,
            ),
        )
        workload.run()
        broadcast_records = _workload_broadcast_records(workload)
    elif scenario.workload == "churn":
        churn = ChurnWorkload(
            cluster.engine,
            ChurnConfig(
                rate_per_minute=scenario.churn_rate, duration=scenario.churn_duration
            ),
            # Join through the cluster so newcomers get heartbeating actors.
            join_fn=cluster.join,
        )
        completion_ratio = churn.run().completion_ratio
    elif scenario.workload == "churn_broadcast":
        # Anti-entropy under churn: broadcasts interleave with continuous
        # membership churn, so repair races vgroup splits/merges and must
        # also serve joiners that start with empty delivery state.
        churn_config = ChurnConfig(
            rate_per_minute=scenario.churn_rate, duration=scenario.churn_duration
        )
        churn = ChurnWorkload(cluster.engine, churn_config, join_fn=cluster.join)
        broadcast_records = _interleave_broadcasts(
            cluster,
            scenario.broadcasts,
            churn_config.warmup + churn_config.duration,
            "churn-bcast",
        )
        completion_ratio = churn.run().completion_ratio
        cluster.run_for(scenario.settle_time)
    elif scenario.workload == "flash_crowd":
        # Flash-crowd joins: a burst of *actor-level* joins (cluster.join)
        # compressed into churn_duration seconds, growing the system from
        # ``nodes`` to ``growth_target``, with broadcasts interleaved for
        # the delivery bound.  Distinct from the growth workload, whose
        # engine-level joins create no node actors — here every arrival is a
        # full node actor built by ``cluster.join``.
        joins = max(0, scenario.growth_target - scenario.nodes)
        burst_start = 5.0
        join_spacing = scenario.churn_duration / max(1, joins)

        def flash_join(index: int) -> None:
            members = cluster.correct_member_addresses()
            contact = members[index % len(members)] if members else None
            try:
                cluster.join(f"fc{index}", contact=contact)
            except MembershipError:
                cluster.sim.metrics.increment("faults.flash_join_failed")

        for index in range(joins):
            cluster.sim.schedule(
                burst_start + join_spacing * index,
                lambda i=index: flash_join(i),
                tag="flash.join",
            )
        horizon = burst_start + scenario.churn_duration
        broadcast_records = _interleave_broadcasts(
            cluster, scenario.broadcasts, horizon, "flash-bcast"
        )
        cluster.run_for(horizon + scenario.settle_time)
    else:  # growth
        growth = GrowthWorkload(
            cluster.engine,
            GrowthConfig(
                target_size=scenario.growth_target,
                join_fraction_per_minute=0.4,
                batch_interval=5.0,
                provisioning_delay=2.0,
                max_duration=4_000.0,
            ),
        )
        growth.run()

    if broadcast_records:
        fractions = _correct_origin_fractions(
            cluster, broadcast_records, plan.unavailable_addresses()
        )
        if fractions:
            mean_delivery_fraction = sum(fractions) / len(fractions)
            min_delivery_fraction = min(fractions)

    cluster.run_until_membership_quiescent(max_time=120.0)
    if scenario.workload == "broadcast" and scenario.smr == "async":
        # PBFT executes in gap-free sequence order and its view changes
        # carry prepared operations, so per-vgroup decided logs must be
        # prefix-consistent across partitions, splits and heals, and
        # checkpointing raises the bar to eventual log *equality*: state
        # transfer must have closed every replica's gap by quiescence.
        monitor.check_smr_prefix_consistency(cluster, require_equality=True)
    monitor.finalize()
    summary = monitor.summary()
    metrics = cluster.sim.metrics

    rejoin_hist = metrics.histogram("faults.rejoin_group_fraction")
    rejoin_max_fraction = rejoin_hist.maximum if rejoin_hist.count else None
    excess_hist = metrics.histogram("faults.rejoin_threshold_excess")
    rejoin_max_excess = excess_hist.maximum if excess_hist.count else None
    # The join-leave coalition must never outgrow the strict-minority
    # eviction/agreement threshold of any vgroup by more than the allowed
    # excess.
    attack_bound_met = _bound_met(rejoin_max_excess, scenario.attack_threshold)
    catchup_hist = metrics.histogram("smr.checkpoint.catchup_latency")
    catchup_latency_max = catchup_hist.maximum if catchup_hist.count else None
    catchup_bound_met = _bound_met(catchup_latency_max, scenario.catchup_bound)
    # A broadcast scenario that measured no correct-origin broadcast has not
    # demonstrated its bound — never report it as vacuously met.
    delivery_bound_met = (
        broadcast_records is None
        or (
            mean_delivery_fraction is not None
            and mean_delivery_fraction >= scenario.delivery_bound
        )
    ) and attack_bound_met is not False and catchup_bound_met is not False
    slowdown_hist = metrics.histogram("membership.slowdown_penalty")

    facts = _plan_facts(plan)
    return {
        **_scenario_columns(scenario, [facts]),
        **facts,
        "attack_bound_met": attack_bound_met,
        "rejoin_max_group_fraction": rejoin_max_fraction,
        "rejoin_max_threshold_excess": rejoin_max_excess,
        "catchup_bound_met": catchup_bound_met,
        "catchup_latencies": list(catchup_hist.samples),
        "catchup_latency_max": catchup_latency_max,
        "slowdown_penalty_mean": slowdown_hist.mean if slowdown_hist.count else None,
        "slowdown_penalty_max": slowdown_hist.maximum if slowdown_hist.count else None,
        "seed": seed,
        "system_size": cluster.engine.system_size,
        "group_count": cluster.engine.group_count,
        "violations": summary["violations"],
        "violations_by_kind": summary["by_kind"],
        "checks_run": summary["checks_run"],
        "evictions_observed": summary["evictions_observed"],
        "mean_delivery_fraction": mean_delivery_fraction,
        "min_delivery_fraction": min_delivery_fraction,
        "delivery_bound_met": delivery_bound_met,
        "completion_ratio": completion_ratio,
        "counters": dict(metrics.counters),
    }


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _fold(
    scenario: Scenario, seeds: List[int], runs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """One ``FAULT_MATRIX.json`` row from a scenario's per-seed rows.

    ``runs`` is in seed order, so every sum, mean and maximum is the same
    however the runs were computed.  Counts are summed as floats; a per-run
    statistic that a run did not measure (``None``) is left out.
    """

    def measured(key: str) -> List[float]:
        return [run[key] for run in runs if run[key] is not None]

    def total(key: str) -> float:
        return float(sum(run[key] for run in runs))

    rejoin_excesses = measured("rejoin_max_threshold_excess")
    # Every catch-up of every seed, not a mean of per-seed maxima.
    catchups = [latency for run in runs for latency in run["catchup_latencies"]]
    dropped = duplicated = 0.0
    for run in runs:
        counters = run["counters"]
        dropped += counters.get("faults.messages_dropped", 0.0)
        duplicated += counters.get("faults.messages_duplicated", 0.0)
    return {
        **_scenario_columns(scenario, runs),
        "seeds": list(seeds),
        "runs": float(len(runs)),
        "violations": total("violations"),
        "checks_run": total("checks_run"),
        "evictions_observed": total("evictions_observed"),
        "delivery_bound_met_runs": total("delivery_bound_met"),
        "mean_delivery_fraction": _mean(measured("mean_delivery_fraction")),
        "mean_completion_ratio": _mean(measured("completion_ratio")),
        "rejoin_max_group_fraction": max(measured("rejoin_max_group_fraction"), default=None),
        # A head-count: a histogram stores doubles, the report says -1.
        "rejoin_max_threshold_excess": (
            int(max(rejoin_excesses)) if rejoin_excesses else None
        ),
        "max_catchup_latency": max(catchups, default=None),
        "mean_catchup_latency": _mean(catchups),
        "max_slowdown_penalty": max(measured("slowdown_penalty_max"), default=None),
        "faults.messages_dropped": dropped,
        "faults.messages_duplicated": duplicated,
        "theory": scenario_robustness_row(
            system_size=scenario.growth_target
            if scenario.workload == "growth"
            else scenario.nodes,
            # Midpoint of the scenario's group-size bounds — the theory
            # column must describe the regime the row actually ran in.
            average_group_size=(scenario.gmin + scenario.gmax) / 2,
            # The binomial per-node failure model gets p=0 when no run's
            # plan made a node unavailable: link faults, slowdowns and
            # side-preserving splits (whose sides stay live and reconcile)
            # degrade links, not nodes.  Isolated and node-faulted nodes
            # are unavailable, like crashes.
            fault_fraction=scenario.fault_fraction
            if any(run["unavailable_nodes"] for run in runs)
            else 0.0,
            synchronous=scenario.smr != "async",
        ),
    }


def run_matrix(
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (7, 11),
    workers: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Run the scenario matrix (scenarios × seeds) and return its rows.

    Every ``(seed, name)`` cell is one :func:`run_scenario` shard, and all
    cells fan out over one :func:`repro.sim.runpar.run_sharded` pool.
    Results come back in input order, so each scenario's runs fold in seed
    order and the rows are the same for any worker count.  ``names=None``
    runs :data:`SMALL_MATRIX`; an empty ``names`` runs nothing.
    """
    scenario_names = list(SMALL_MATRIX if names is None else names)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("the matrix needs at least one seed")
    runs = run_sharded(
        "repro.faults.scenarios:run_scenario",
        [(seed, name) for name in scenario_names for seed in seeds],
        workers=workers,
    )
    count = len(seeds)
    return [
        _fold(_resolve(name), seeds, runs[index * count : (index + 1) * count])
        for index, name in enumerate(scenario_names)
    ]


def write_matrix_report(
    path: str = "FAULT_MATRIX.json",
    names: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (7, 11),
    workers: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the matrix and persist the robustness table to ``path``."""
    import json

    rows = run_matrix(names=names, seeds=seeds, workers=workers)
    report = {
        "matrix": rows,
        "scenarios": len(rows),
        "total_violations": sum(row["violations"] for row in rows),
        "all_bounds_met": all(
            row["delivery_bound_met_runs"] == row["runs"] for row in rows
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover - CLI
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--matrix",
        default="small",
        choices=("small", "nightly"),
        help=(
            "which scenario set to run (small = every default scenario; "
            "nightly = the 400*ATUM_BENCH_SCALE-node deployment-scale slice)"
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="run only the named scenario(s) instead of the matrix",
    )
    parser.add_argument("--seeds", type=int, default=2, help="seeds per scenario (≥ 1)")
    parser.add_argument("--base-seed", type=int, default=7, help="first seed")
    parser.add_argument("--workers", type=int, default=None, help="worker processes")
    parser.add_argument("--output", default="FAULT_MATRIX.json", help="report path")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    names = args.scenario or (
        NIGHTLY_MATRIX if args.matrix == "nightly" else SMALL_MATRIX
    )
    seeds = [args.base_seed + 4 * index for index in range(args.seeds)]
    report = write_matrix_report(
        args.output, names=names, seeds=seeds, workers=args.workers
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    failed = False
    if report["total_violations"]:
        print(f"FAILED: {report['total_violations']} invariant violation(s)")
        failed = True
    if not report["all_bounds_met"]:
        missed = [
            row["scenario"]
            for row in report["matrix"]
            if row["delivery_bound_met_runs"] != row["runs"]
        ]
        print(f"FAILED: delivery/catch-up/attack bound missed by {missed}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())


__all__ = [
    "Scenario",
    "SCENARIOS",
    "SMALL_MATRIX",
    "NIGHTLY_MATRIX",
    "PLAN_BUILDERS",
    "run_scenario",
    "run_matrix",
    "write_matrix_report",
]
