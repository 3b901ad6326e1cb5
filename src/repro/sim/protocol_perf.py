"""Protocol-layer performance measurement: broadcast msgs/sec above the kernel.

Where :mod:`repro.sim.perf` measures the discrete-event kernel itself, this
module measures the *protocol stack* built on top of it — the layers that
dominate the figure benchmarks now that the kernel is fast:

* ``broadcast`` — a static overlay of vgroups gossiping broadcasts along the
  H-graph through real :class:`~repro.group.messages.GroupMessenger` fan-out,
  with a background heartbeat layer.  Every hop exercises the group-message
  send/accept path, the gossip forwarding policies and the H-graph neighbour
  queries.  The headline number is delivered protocol messages per wall-clock
  second.
* ``churn`` — the membership engine under sustained joins and leaves
  (agreement, random walks, shuffling, splits and merges at vgroup
  granularity).  The headline number is completed membership operations per
  wall-clock second.

Workloads are seeded and deterministic in their *event structure*; only the
wall clock varies between hosts.  ``BASELINE_PROTOCOL_RATES`` records the
throughput of the pre-optimisation protocol layer (per-destination envelope
construction, per-hop neighbour rebuilds, linear membership scans) measured
at the PR-1 commit on the reference container.  The repository's benchmark
of the real ``AtumCluster`` path is ``benchmarks/stack``; this module's
scenarios back the protocol golden traces and the ``runpar`` shards.

Shard entry points (:func:`broadcast_shard`, :func:`churn_shard`) return
plain-dict metric snapshots with no wall-clock component, so
:mod:`repro.sim.runpar` can fan seeded configurations across worker processes
and merge the results deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.group.messages import GroupMessageEnvelope, GroupMessenger, NodeBinding
from repro.group.heartbeat import Heartbeat, HeartbeatConfig, HeartbeatMonitor
from repro.group.vgroup import VGroupView
from repro.net.latency import FixedLatency
from repro.net.network import Network, NetworkConfig
from repro.overlay.gossip import ForwardPolicy, cycles_policy, flood_policy, random_policy
from repro.overlay.hgraph import HGraph
from repro.overlay.membership import MembershipConfig, MembershipEngine, MembershipError
from repro.sim.actor import Actor
from repro.sim.rng import derive_seed, named_stream
from repro.sim.simulator import Simulator

#: Pre-PR protocol-layer throughput, measured at commit 9967c2e (PR-1 protocol
#: code) with this same module's workloads on the reference container, using
#: ``BENCH_BROADCAST_CONFIG`` / ``BENCH_CHURN_CONFIG`` below.
BASELINE_PROTOCOL_RATES: Dict[str, float] = {
    "broadcast_msgs_per_sec": 116236.0,
    "churn_ops_per_sec": 2529.0,
}

#: Conservative floor for the broadcast scenario (measured ~2.7x on the
#: reference container; the floor leaves noise room).
TARGET_PROTOCOL_SPEEDUP = 2.0

#: Floor for the membership-churn scenario.
TARGET_CHURN_SPEEDUP = 1.2

#: The scenario configurations the recorded baselines were measured with.
BENCH_BROADCAST_CONFIG: Dict[str, Any] = {
    "groups": 16,
    "group_size": 10,
    "hc": 3,
    "broadcasts": 10,
    "policy": "flood",
    "heartbeat_period": None,
    "randomized_send_order": False,
}
BENCH_CHURN_CONFIG: Dict[str, Any] = {
    "initial_nodes": 420,
    "operations": 260,
    "op_interval": 0.8,
}


@dataclass(frozen=True)
class BroadcastRecord:
    """The application payload gossiped by the broadcast workload."""

    bcast_id: str
    origin_group: str
    body: str


class GossipStackNode(Actor):
    """A protocol-stack node: group messenger + gossip forwarding + heartbeats.

    This is the broadcast data plane of an Atum node without the SMR phase:
    accepted gossip group messages are re-forwarded along the H-graph to the
    neighbour vgroups selected by the forwarding policy, exactly as in
    :meth:`repro.core.node.AtumNode._forward`.  Forward-target selection is
    derived deterministically from ``(bcast_id, group_id)`` so every member
    of a vgroup picks the same targets, as the group-message abstraction
    requires.
    """

    def __init__(
        self,
        sim: Simulator,
        address: str,
        view: VGroupView,
        graph: HGraph,
        views: Dict[str, VGroupView],
        policy: ForwardPolicy,
        policy_needs_rng: bool,
        payload_bytes: int = 512,
    ) -> None:
        super().__init__(sim, address)
        self.view = view
        self.graph = graph
        self.views = views
        self.policy = policy
        self.policy_needs_rng = policy_needs_rng
        self.payload_bytes = payload_bytes
        self.network: Optional[Network] = None
        self.delivered: Dict[str, float] = {}
        self.heartbeats: Optional[HeartbeatMonitor] = None
        self.messenger: Optional[GroupMessenger] = None
        self._gm_handle: Optional[Callable[[GroupMessageEnvelope, str], None]] = None

    def attach(self, network: Network, heartbeat_period: Optional[float]) -> None:
        self.network = network
        self.messenger = GroupMessenger(
            binding=NodeBinding(address=self.address, network=network, sim=self.sim),
            own_view_fn=lambda: self.view,
            on_accept=self._on_accept,
            payload_bytes=self.payload_bytes,
        )
        self._gm_handle = self.messenger.handle
        if heartbeat_period is not None:
            self.heartbeats = HeartbeatMonitor(
                sim=self.sim,
                address=self.address,
                group_id_fn=lambda: self.view.group_id,
                peers_fn=lambda: self.view.members,
                send_fn=lambda peers, hb: network.send_many(self.address, peers, hb, 64),
                suspect_fn=lambda peer: None,
                config=HeartbeatConfig(period=heartbeat_period),
            )
            self.heartbeats.start()

    # --------------------------------------------------------------- protocol

    def on_message(self, payload: Any, sender: str) -> None:
        if payload.__class__ is GroupMessageEnvelope:
            self._gm_handle(payload, sender)
            return
        if payload.__class__ is Heartbeat:
            if self.heartbeats is not None:
                self.heartbeats.observe(payload)
            return

    def originate(self, record: BroadcastRecord) -> None:
        """Deliver ``record`` locally and start forwarding it (origin vgroup)."""
        self._deliver_and_forward(record, exclude_group=None)

    def _on_accept(self, kind: str, payload: Any, source_group: str, gm_id: str) -> None:
        if kind == "gossip" and isinstance(payload, BroadcastRecord):
            self._deliver_and_forward(payload, exclude_group=source_group)

    def _deliver_and_forward(
        self, record: BroadcastRecord, exclude_group: Optional[str]
    ) -> None:
        if record.bcast_id in self.delivered:
            return
        self.delivered[record.bcast_id] = self.sim.now
        counters = self.sim.metrics.counters
        counters["stack.deliveries"] += 1.0
        own_group = self.view.group_id
        rng = None
        if self.policy_needs_rng:
            # Group-consistent determinism: every member of the vgroup derives
            # the same stream from (bcast_id, group_id), so they all pick the
            # same forward set and their shares aggregate into one accepted
            # group message per (bcast, source, target).
            rng = named_stream(f"{record.bcast_id}:{own_group}")
        targets = self.policy(self.graph, own_group, record.bcast_id, rng)
        for target_group in targets:
            if target_group == own_group or target_group == exclude_group:
                continue
            target_view = self.views.get(target_group)
            if target_view is None:
                continue
            gm_id = f"gossip:{record.bcast_id}:{own_group}->{target_group}"
            self.messenger.send(
                target_view,
                "gossip",
                record,
                gm_id=gm_id,
                payload_bytes=self.payload_bytes,
            )
        counters["stack.forwards"] += 1.0


def build_broadcast_stack(
    seed: int,
    groups: int = 24,
    group_size: int = 6,
    hc: int = 3,
    policy: str = "flood",
    heartbeat_period: Optional[float] = 5.0,
    payload_bytes: int = 512,
    randomized_send_order: bool = True,
) -> Tuple[Simulator, Dict[str, GossipStackNode], Dict[str, VGroupView], HGraph]:
    """Build a static overlay of ``groups`` vgroups wired for gossip."""
    sim = Simulator(seed=seed)
    network = Network(
        sim,
        latency_model=FixedLatency(0.002),
        config=NetworkConfig(randomized_send_order=randomized_send_order),
    )
    overlay_rng = sim.rng.stream("protocol-perf-overlay")
    group_ids = [f"vg{g}" for g in range(groups)]
    graph = HGraph.random(group_ids, hc, overlay_rng)
    views: Dict[str, VGroupView] = {}
    for index, group_id in enumerate(group_ids):
        members = [f"n{index}-{m}" for m in range(group_size)]
        views[group_id] = VGroupView.create(group_id, members)

    if policy == "flood":
        forward_policy, needs_rng = flood_policy, False
    elif policy == "cycles":
        forward_policy, needs_rng = cycles_policy(2), False
    elif policy == "random":
        forward_policy, needs_rng = random_policy(fanout=2), True
    else:
        raise ValueError(f"unknown workload policy {policy!r}")

    nodes: Dict[str, GossipStackNode] = {}
    for group_id in group_ids:
        view = views[group_id]
        for address in view.members:
            node = GossipStackNode(
                sim=sim,
                address=address,
                view=view,
                graph=graph,
                views=views,
                policy=forward_policy,
                policy_needs_rng=needs_rng,
                payload_bytes=payload_bytes,
            )
            node.attach(network, heartbeat_period)
            network.register(node)
            nodes[address] = node
    return sim, nodes, views, graph


def run_broadcast_scenario(
    seed: int = 7,
    groups: int = 24,
    group_size: int = 6,
    hc: int = 3,
    broadcasts: int = 6,
    policy: str = "flood",
    heartbeat_period: Optional[float] = 5.0,
    horizon: float = 60.0,
    randomized_send_order: bool = True,
    trace: Optional[List[Tuple[float, Optional[str]]]] = None,
) -> Dict[str, Any]:
    """Run one seeded broadcast-dissemination scenario to completion.

    Returns the deterministic outcome (delivered message counts, per-node
    delivery fractions) plus the host wall-clock time of the run.
    """
    sim, nodes, views, _graph = build_broadcast_stack(
        seed,
        groups,
        group_size,
        hc,
        policy,
        heartbeat_period,
        randomized_send_order=randomized_send_order,
    )
    group_ids = sorted(views)
    for index in range(broadcasts):
        origin_group = group_ids[index % len(group_ids)]
        origin_view = views[origin_group]
        record = BroadcastRecord(
            bcast_id=f"bc-{seed}-{index}",
            origin_group=origin_group,
            body="x" * 128,
        )
        when = 0.25 * index

        def fire(record=record, origin_view=origin_view) -> None:
            for address in origin_view.members:
                nodes[address].originate(record)

        sim.schedule(when, fire, tag="stack.broadcast")

    start = time.perf_counter()  # atumlint: allow[ATL002] benchmark wall-clock: measures real msgs/s, never sim time
    sim.run(until=horizon, trace=trace)
    elapsed = time.perf_counter() - start  # atumlint: allow[ATL002] benchmark wall-clock: measures real msgs/s, never sim time

    metrics = sim.metrics
    total_nodes = len(nodes)
    delivered_total = sum(len(node.delivered) for node in nodes.values())
    return {
        "seed": seed,
        "processed_events": sim.processed_events,
        "messages_delivered": metrics.counter("net.messages_delivered"),
        "messages_sent": metrics.counter("net.messages_sent"),
        "shares_sent": metrics.counter("group.shares_sent"),
        "group_accepted": metrics.counter("group.messages_accepted"),
        "deliveries": metrics.counter("stack.deliveries"),
        "delivery_fraction": delivered_total / (total_nodes * broadcasts),
        "delivery_latency_samples": list(
            metrics.histogram("net.delivery_latency").samples
        ),
        "seconds": elapsed,
    }


def measure_broadcast(repeats: int = 3, **kwargs: Any) -> Dict[str, float]:
    """Best-of-``repeats`` broadcast throughput in delivered msgs/sec."""
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        outcome = run_broadcast_scenario(**kwargs)
        rate = outcome["messages_delivered"] / outcome["seconds"]
        entry = {
            "messages_delivered": outcome["messages_delivered"],
            "seconds": outcome["seconds"],
            "msgs_per_sec": rate,
            "delivery_fraction": outcome["delivery_fraction"],
        }
        if best is None or entry["msgs_per_sec"] > best["msgs_per_sec"]:
            best = entry
    assert best is not None
    return best


# ------------------------------------------------------------------- churn


def run_churn_scenario(
    seed: int = 11,
    initial_nodes: int = 420,
    operations: int = 260,
    op_interval: float = 0.8,
) -> Dict[str, Any]:
    """Run the membership engine under sustained churn; returns the outcome."""
    sim = Simulator(seed=seed)
    engine = MembershipEngine(sim=sim, config=MembershipConfig(hc=3, rwl=8, gmax=14, gmin=7))
    addresses = [f"m{i}" for i in range(initial_nodes)]
    engine.build_static(addresses)
    rng = sim.rng.stream("protocol-perf-churn")
    state = {"next_id": initial_nodes, "ops": 0}

    def churn_tick() -> None:
        if state["ops"] >= operations:
            return
        state["ops"] += 1
        sim.schedule(op_interval, churn_tick, tag="churn.tick")
        members = sorted(engine.node_group)
        # Only MembershipError (victim vanished / id collision under a
        # concurrent operation) is an expected, countable outcome here; a
        # blanket except would silently convert engine bugs into "fewer
        # ops", masking real regressions.  The benchmark asserts the
        # swallowed-error counter stays at zero.
        if members and rng.random() < 0.5:
            victim = members[rng.randrange(len(members))]
            try:
                engine.leave(victim)
            except MembershipError:
                sim.metrics.increment("perf.swallowed_errors")
                return
        else:
            state["next_id"] += 1
            try:
                engine.join(f"m{state['next_id']}")
            except MembershipError:
                sim.metrics.increment("perf.swallowed_errors")
                return

    sim.schedule(op_interval, churn_tick, tag="churn.tick")
    start = time.perf_counter()  # atumlint: allow[ATL002] benchmark wall-clock: measures real msgs/s, never sim time
    sim.run_until_idle()
    elapsed = time.perf_counter() - start  # atumlint: allow[ATL002] benchmark wall-clock: measures real msgs/s, never sim time
    metrics = sim.metrics
    completed = (
        metrics.counter("membership.joins_completed")
        + metrics.counter("membership.leaves_completed")
    )
    return {
        "seed": seed,
        "processed_events": sim.processed_events,
        "completed_operations": completed,
        "swallowed_errors": metrics.counter("perf.swallowed_errors"),
        "exchanges_completed": metrics.counter("membership.exchanges_completed"),
        "splits": metrics.counter("membership.splits"),
        "merges": metrics.counter("membership.merges"),
        "system_size": engine.system_size,
        "join_latency_samples": list(
            metrics.histogram("membership.join_latency").samples
        ),
        "seconds": elapsed,
    }


def measure_churn(repeats: int = 3, **kwargs: Any) -> Dict[str, float]:
    """Best-of-``repeats`` membership throughput in completed ops/sec."""
    best: Optional[Dict[str, float]] = None
    for _ in range(repeats):
        outcome = run_churn_scenario(**kwargs)
        rate = outcome["completed_operations"] / outcome["seconds"]
        entry = {
            "completed_operations": outcome["completed_operations"],
            "swallowed_errors": outcome["swallowed_errors"],
            "seconds": outcome["seconds"],
            "ops_per_sec": rate,
        }
        if best is None or entry["ops_per_sec"] > best["ops_per_sec"]:
            best = entry
    assert best is not None
    return best


# ------------------------------------------------------------------- shards


def broadcast_shard(seed: int, **kwargs: Any) -> Dict[str, Any]:
    """Deterministic (wall-clock-free) broadcast shard for :mod:`repro.sim.runpar`."""
    outcome = run_broadcast_scenario(seed=seed, **kwargs)
    return {
        "counters": {
            "messages_delivered": outcome["messages_delivered"],
            "messages_sent": outcome["messages_sent"],
            "group_accepted": outcome["group_accepted"],
            "deliveries": outcome["deliveries"],
            "processed_events": float(outcome["processed_events"]),
        },
        "histograms": {
            "net.delivery_latency": outcome["delivery_latency_samples"],
        },
    }


def churn_shard(seed: int, **kwargs: Any) -> Dict[str, Any]:
    """Deterministic (wall-clock-free) churn shard for :mod:`repro.sim.runpar`."""
    outcome = run_churn_scenario(seed=seed, **kwargs)
    return {
        "counters": {
            "completed_operations": outcome["completed_operations"],
            "swallowed_errors": outcome["swallowed_errors"],
            "exchanges_completed": outcome["exchanges_completed"],
            "splits": outcome["splits"],
            "merges": outcome["merges"],
            "processed_events": float(outcome["processed_events"]),
        },
        "histograms": {
            "membership.join_latency": outcome["join_latency_samples"],
            # Gauge, not a counter: summing final system sizes across
            # independent shards is meaningless, so expose the per-shard
            # distribution instead.
            "membership.system_size": [float(outcome["system_size"])],
        },
    }


# ---------------------------------------------------------------- benchmark


def run_protocol_benchmark(repeats: int = 3) -> Dict[str, Any]:
    """Measure the protocol scenarios and compare against the recorded baseline.

    Two measurements use ``BENCH_BROADCAST_CONFIG`` / ``BENCH_CHURN_CONFIG``
    (the configurations the pre-PR baselines were recorded with):

    * ``broadcast`` — delivered protocol messages per second;
    * ``churn`` — membership operations per second.
    """
    import sys

    broadcast = measure_broadcast(repeats=repeats, **BENCH_BROADCAST_CONFIG)
    churn = measure_churn(repeats=repeats, **BENCH_CHURN_CONFIG)
    broadcast_base = BASELINE_PROTOCOL_RATES["broadcast_msgs_per_sec"]
    churn_base = BASELINE_PROTOCOL_RATES["churn_ops_per_sec"]
    return {
        "python": sys.version.split()[0],
        "scenarios": {
            "broadcast": {
                "baseline_msgs_per_sec": broadcast_base,
                "current_msgs_per_sec": round(broadcast["msgs_per_sec"], 1),
                "speedup": round(broadcast["msgs_per_sec"] / broadcast_base, 3),
                "messages_delivered": broadcast["messages_delivered"],
                "seconds": round(broadcast["seconds"], 4),
            },
            "churn": {
                "baseline_ops_per_sec": churn_base,
                "current_ops_per_sec": round(churn["ops_per_sec"], 1),
                "speedup": round(churn["ops_per_sec"] / churn_base, 3),
                "completed_operations": churn["completed_operations"],
                "swallowed_errors": churn["swallowed_errors"],
                "seconds": round(churn["seconds"], 4),
            },
        },
        "target_speedup": TARGET_PROTOCOL_SPEEDUP,
        "target_churn_speedup": TARGET_CHURN_SPEEDUP,
    }


def write_report(path: str = "BENCH_protocol.json", repeats: int = 3) -> Dict[str, Any]:
    """Run the protocol benchmark and persist the report to ``path``."""
    import json

    report = run_protocol_benchmark(repeats=repeats)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def main() -> None:  # pragma: no cover - CLI convenience
    import json

    print(json.dumps(write_report(), indent=2, sort_keys=True))


if __name__ == "__main__":  # pragma: no cover
    main()


__all__ = [
    "BASELINE_PROTOCOL_RATES",
    "TARGET_PROTOCOL_SPEEDUP",
    "TARGET_CHURN_SPEEDUP",
    "BENCH_BROADCAST_CONFIG",
    "BENCH_CHURN_CONFIG",
    "run_protocol_benchmark",
    "write_report",
    "BroadcastRecord",
    "GossipStackNode",
    "build_broadcast_stack",
    "run_broadcast_scenario",
    "run_churn_scenario",
    "measure_broadcast",
    "measure_churn",
    "broadcast_shard",
    "churn_shard",
]
