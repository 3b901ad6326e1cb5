"""Standing differentials for the fault path's four replacements.

The instrumented path -- link-fault injector, anti-entropy summaries, the
send-order shuffle -- does per-burst work once per burst, per-tick work once
per tick and per-view work once per view.  Each replacement is held here
against its predecessor, kept as a test-local copy of commit 97a8d19:

(i)   the injector's once-per-burst rule selection against one
      ``LinkFault.matches`` call per rule per message;
(ii)  the incremental summary window and the prefix GC against filtering the
      whole window and scanning the whole store;
(iii) a tick's summaries (and a repair's hints) as one ``send_direct_many``
      burst against one ``send_one`` per peer, and the directory's cached
      neighbour members against a fresh walk of the H-graph;
(iv)  the inline Fisher-Yates in ``send_fanout`` against
      ``random.Random.shuffle`` on the running interpreter.
"""

import math
import random
from types import SimpleNamespace

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters
from repro.core.middleware import MetricsTap, Middleware, MiddlewareChain
from repro.core.node import DirectMessage
from repro.faults.behaviours import apply_plan
from repro.faults.injector import LinkFaultInjector
from repro.faults.invariants import InvariantMonitor
from repro.faults.plan import FaultPlan, LinkFault, Partition
from repro.group import antientropy
from repro.group.antientropy import AntiEntropyConfig, AntiEntropyRepair
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator


# ------------------------------------------------------------------ (i) injector


class MatchesPerMessageInjector(Middleware):
    """``LinkFaultInjector`` as of 97a8d19: every rule asked about every message."""

    def __init__(self, sim, links):
        self.links = tuple(links)
        self._rng = sim.rng.stream("faults.network")
        self._counters = sim.metrics.counters

    def on_send(self, ctx):
        verdict = self.perturb(ctx.sender, ctx.receiver, ctx.now)
        if verdict is None:
            return
        dropped, extra_delay, copies, corrupted = verdict
        if dropped:
            ctx.drop = True
            ctx.stop = True
            return
        ctx.extra_delay += extra_delay
        ctx.copies += copies - 1
        if corrupted:
            ctx.corrupted = True

    def perturb(self, sender, receiver, now):
        matched = False
        extra_delay = 0.0
        copies = 1
        corrupted = False
        rng = self._rng
        counters = self._counters
        for rule in self.links:
            if not rule.matches(sender, receiver, now):
                continue
            matched = True
            if rule.loss > 0.0 and rng.random() < rule.loss:
                counters["faults.messages_dropped"] += 1.0
                return (True, 0.0, 0, False)
            if rule.extra_delay > 0.0 or rule.jitter > 0.0:
                delay = rule.extra_delay
                if rule.jitter > 0.0:
                    delay += rng.random() * rule.jitter
                extra_delay += delay
            if rule.duplicate > 0.0 and rng.random() < rule.duplicate:
                counters["faults.messages_duplicated"] += 1.0
                copies += 1
            if rule.corrupt > 0.0 and rng.random() < rule.corrupt and not corrupted:
                counters["faults.messages_corrupted"] += 1.0
                corrupted = True
        if not matched:
            return None
        if extra_delay > 0.0:
            counters["faults.messages_delayed"] += 1.0
        return (False, extra_delay, copies, corrupted)


ADDRESSES = ["a", "b", "c", "d", "e"]
FAULT_COUNTERS = (
    "faults.messages_dropped",
    "faults.messages_duplicated",
    "faults.messages_corrupted",
    "faults.messages_delayed",
    "net.messages_lost",
)


class Sink(Actor):
    def on_message(self, payload, sender):
        pass


class NestedSender(Middleware):
    """Ahead of the injector: on a ``"nest"`` payload it sends a burst of its
    own from another address, so the injector sees a different
    ``(now, sender)`` in the middle of the outer burst and the outer pair
    again right after."""

    def __init__(self, network):
        self.network = network

    def on_send(self, ctx):
        if ctx.payload == "nest" and ctx.receiver in ("b", "d"):
            self.network.send_many(ctx.receiver, ["a", "c", "e"], "nested", 64)


class VerdictLog(Middleware):
    """Runs ``inner`` and copies out what it decided, message by message."""

    def __init__(self, inner, sim):
        self.inner = inner
        self.counters = sim.metrics.counters
        self.rng = sim.rng.stream("faults.network")
        self.log = []

    def on_send(self, ctx):
        self.inner.on_send(ctx)
        self.log.append(
            (
                ctx.now, ctx.sender, ctx.receiver, ctx.payload,
                ctx.drop, ctx.extra_delay, ctx.copies, ctx.corrupted, ctx.stop,
                tuple(self.counters.get(name, 0.0) for name in FAULT_COUNTERS),
                # One draw-free fingerprint of the stream's position.
                hash(self.rng.getstate()),
            )
        )


def random_rules(rng):
    rules = []
    for _ in range(rng.randrange(0, 6)):
        start = rng.choice([0.0, 1.0, 2.0])
        stop = rng.choice([start + 1.0, start + 2.0, math.inf])
        probability = lambda: rng.choice([0.0, 0.0, 0.3, 0.7, 1.0])  # noqa: E731
        rules.append(
            LinkFault(
                src=rng.choice([None, None, *ADDRESSES[:3]]),
                dst=rng.choice([None, None, *ADDRESSES[1:4]]),
                start=start,
                stop=stop,
                loss=rng.choice([0.0, 0.0, 0.2, 0.6]),
                duplicate=probability(),
                extra_delay=rng.choice([0.0, 0.0, 0.05]),
                jitter=rng.choice([0.0, 0.0, 0.02]),
                corrupt=probability(),
            )
        )
    return rules


def drive_injector(injector_class, seed):
    rng = random.Random(seed)
    rules = random_rules(rng)
    sim = Simulator(seed=seed)
    network = Network(sim, latency_model=FixedLatency(0.001))
    for address in ADDRESSES:
        network.register(Sink(sim, address))
    log = VerdictLog(injector_class(sim, rules), sim)
    network.install_middleware(MiddlewareChain(NestedSender(network), log))
    # Burst times sit on the rule windows' edges (now == start, now == stop)
    # and between them; several senders share each instant, interleaved, so
    # consecutive bursts differ in sender only, in time only, or in neither.
    for now in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0):
        for _ in range(rng.randrange(2, 6)):
            sender = rng.choice(ADDRESSES)
            receivers = [rng.choice(ADDRESSES) for _ in range(rng.randrange(1, 7))]
            payload = rng.choice(["plain", "plain", "nest"])
            sim.schedule_at(
                now, lambda s=sender, r=receivers, p=payload: network.send_many(s, r, p, 200)
            )
    trace = []
    sim.run(trace=trace)
    return rules, log.log, trace, sim.rng.stream("faults.network").getstate()


class TestRulesSelectedOncePerBurst:
    @pytest.mark.parametrize("seed", range(40))
    def test_verdicts_counters_and_draws_equal_the_per_message_reference(self, seed):
        rules, new_log, new_trace, new_state = drive_injector(LinkFaultInjector, seed)
        _, old_log, old_trace, old_state = drive_injector(MatchesPerMessageInjector, seed)
        assert new_log == old_log, rules
        assert new_trace == old_trace
        assert new_state == old_state

    def test_the_seeds_cover_every_outcome(self):
        seen = set()
        nested = edges = 0
        for seed in range(40):
            rules, log, _, _ = drive_injector(LinkFaultInjector, seed)
            for now, _, _, payload, drop, delay, copies, corrupted, stop, _, _ in log:
                seen.update(
                    name
                    for name, hit in (
                        ("drop", drop and stop), ("delay", delay > 0.0), ("copies", copies > 1),
                        ("corrupted", corrupted), ("clean", not (drop or delay or corrupted)),
                    )
                    if hit
                )
                nested += payload == "nested"
                edges += any(now in (rule.start, rule.stop) for rule in rules)
        assert seen == {"drop", "delay", "copies", "corrupted", "clean"}
        assert nested > 50 and edges > 200

    def test_a_rule_that_does_not_match_draws_nothing(self):
        sim = Simulator(seed=3)
        network = Network(sim, latency_model=FixedLatency(0.001))
        for address in ADDRESSES:
            network.register(Sink(sim, address))
        rules = [
            LinkFault(src="b", loss=1.0),
            LinkFault(dst="c", duplicate=1.0),
            LinkFault(start=1.0, stop=2.0, corrupt=1.0),
        ]
        network.install_middleware(MiddlewareChain(LinkFaultInjector(sim, rules)))
        before = sim.rng.stream("faults.network").getstate()
        network.send_many("a", ["b", "d", "e"], "x", 64)
        sim.run(until=2.0)  # the clock now sits on the third rule's ``stop``
        network.send_many("a", ["b", "d", "e"], "x", 64)
        assert sim.rng.stream("faults.network").getstate() == before
        network.send_many("a", ["c"], "x", 64)
        assert sim.rng.stream("faults.network").getstate() != before


# ------------------------------------------------------- (ii) the summary window


def filtered_window(repair):
    """``_summary_ids`` as of 97a8d19, without its counter: ``(ids, truncated)``."""
    node = repair.node
    order = node.delivered_order
    cap = antientropy.MAX_SUMMARY_IDS
    truncated = len(order) > cap
    if truncated:
        order = order[-cap:]
    threshold = node.sim.now - antientropy.REPAIR_MIN_AGE
    return tuple(b for b in order if node.delivered[b] <= threshold), truncated


def scanned_stale(repair):
    """The set ``_gc_settled`` dropped at 97a8d19 (a scan of the whole store)."""
    if not repair.store:
        return []
    cutoff = repair.node.sim.now - antientropy.GC_SETTLED_AGE
    delivered = repair.node.delivered
    return [b for b in repair.store if delivered.get(b, cutoff) < cutoff]


def bare_repairer(seed):
    """A repairer on the smallest host it needs: a clock and a delivery log."""
    node = SimpleNamespace(
        sim=Simulator(seed=seed),
        address="n0",
        delivered={},
        delivered_order=[],
        register_direct_handler=lambda kind, handler: None,
    )
    return AntiEntropyRepair(node)


# "never" is longer than any run below: the incremental GC must drop nothing.
GC_AGES = {"never": 1e9, "small": 3.0, "default": antientropy.GC_SETTLED_AGE}


class TestIncrementalSummaryWindow:
    @pytest.mark.parametrize("gc_age", sorted(GC_AGES))
    @pytest.mark.parametrize("cap", [8, 256])
    @pytest.mark.parametrize("seed", range(6))
    def test_window_and_gc_equal_the_filter_and_the_scan(self, seed, cap, gc_age, monkeypatch):
        rng = random.Random(seed)
        monkeypatch.setattr(antientropy, "MAX_SUMMARY_IDS", cap)
        monkeypatch.setattr(antientropy, "GC_SETTLED_AGE", GC_AGES[gc_age])
        repair = bare_repairer(seed)
        node, sim = repair.node, repair.node.sim
        counter = sim.metrics.counter
        serial = 0
        previous = None
        truncations = dropped = reused = 0
        # Steps of 0, a fraction of ``REPAIR_MIN_AGE`` or several of them, so
        # ticks fall before, on and after the age threshold; bursts of
        # deliveries share one instant; the long runs overflow the window.
        for _ in range(160):
            sim.run(until=sim.now + rng.choice([0.0, 0.0, 0.4, 1.0, 2.0, 2.5, 7.0]))
            for _ in range(rng.choice([0, 0, 1, 1, 2, 5, 40 if cap == 256 else 9])):
                serial += 1
                bcast_id = f"bc-{serial}"
                node.delivered[bcast_id] = sim.now
                node.delivered_order.append(bcast_id)
                repair.on_delivered(SimpleNamespace(bcast_id=bcast_id))
            for _ in range(rng.choice([1, 1, 2])):  # a tick, sometimes two in a row
                expected_stale = scanned_stale(repair)
                held = list(repair.store)
                repair._gc_settled()
                assert list(repair.store) == [b for b in held if b not in set(expected_stale)]
                dropped += len(expected_stale)
                assert counter("ae.store_gc_dropped") == dropped

                expected, truncated = filtered_window(repair)
                ids = repair._summary_ids()
                assert ids == expected
                truncations += truncated
                assert counter("ae.summary_window_truncated") == truncations
                if previous is not None and previous[0] == expected:
                    reused += ids is previous[1]
                previous = (expected, ids)
        assert serial > cap and truncations > 0 and reused > 10
        assert dropped == 0 if gc_age == "never" else dropped > 0 or gc_age == "default"

    def test_a_shrunk_window_moves_the_window_start(self, monkeypatch):
        # tests/test_antientropy.py shrinks ``MAX_SUMMARY_IDS`` under a live repairer.
        monkeypatch.setattr(antientropy, "REPAIR_MIN_AGE", 0.0)
        repair = bare_repairer(0)
        node = repair.node
        for index in range(10):
            node.delivered[f"b{index}"] = 0.0
            node.delivered_order.append(f"b{index}")
        assert repair._summary_ids() == tuple(node.delivered_order)
        monkeypatch.setattr(antientropy, "MAX_SUMMARY_IDS", 4)
        assert repair._summary_ids() == filtered_window(repair)[0] == ("b6", "b7", "b8", "b9")


# ------------------------------------------------- (iii) one burst, one list per view


def small_params():
    return AtumParameters(hc=3, rwl=6, gmin=4, gmax=8, round_duration=0.5)


def one_send_per_peer(node):
    """``send_direct`` in a loop, as ``_tick`` and ``_repair`` did at 97a8d19:
    one ``send_one`` and one fresh ``DirectMessage`` per peer."""

    def send_direct_many(peers, kind, payload, size_bytes=256):
        for peer in peers:
            node.network.send_one(
                node.address, peer, DirectMessage(kind=kind, payload=payload), size_bytes
            )

    return send_direct_many


def run_faulty_cluster(per_peer):
    cluster = AtumCluster(small_params(), seed=9, antientropy=AntiEntropyConfig())
    monitor = InvariantMonitor()
    cluster.attach_monitor(monitor)
    cluster.middleware_chain().add(MetricsTap())
    addresses = [f"n{i}" for i in range(43)]
    cluster.build_static(addresses)
    if per_peer:
        for node in cluster.nodes.values():
            node.send_direct_many = one_send_per_peer(node)
    plan = FaultPlan(
        partitions=(Partition(tuple(addresses[::15]), start=0.6, heal_at=6.0),),
        links=(
            LinkFault(loss=0.1),
            LinkFault(duplicate=0.2, start=1.0, stop=9.0),
            LinkFault(corrupt=0.05, jitter=0.01, start=2.0, stop=5.0),
        ),
    )
    apply_plan(cluster, plan, monitor=monitor)
    for index in range(4):
        cluster.sim.schedule_at(
            0.3 + 0.7 * index, lambda i=index: cluster.broadcast(f"n{i + 1}", i)
        )
    snapshots = []
    for horizon in (3.0, 7.5, 12.0, 25.0):  # mid-partition, mid-repair, settled
        cluster.run(until=horizon)
        sim = cluster.sim
        streams = ["network", "faults.network"] + [f"antientropy.{a}" for a in addresses]
        snapshots.append(
            (
                sorted(entry[:3] for entry in sim.queue._heap + sim.queue._far),
                [sim.rng.stream(name).getstate() for name in streams],
                {
                    name: value
                    for name, value in sorted(sim.metrics.counters.items())
                    if name.startswith(("ae.", "net.", "faults.", "atum."))
                },
                {a: tuple(node.delivered_order) for a, node in sorted(cluster.nodes.items())},
            )
        )
    assert monitor.violations == []
    return snapshots, cluster.sim.metrics.counters


class TestOneBurstPerTick:
    def test_a_tick_as_one_burst_equals_one_send_per_peer(self):
        burst, counters = run_faulty_cluster(per_peer=False)
        single, _ = run_faulty_cluster(per_peer=True)
        for at, (new, old) in enumerate(zip(burst, single)):
            assert new == old, f"snapshot {at}"
        # Not vacuous: summaries, pulls, repairs and hints all went out, under
        # every fault the chain can inject.
        for name in (
            "ae.summaries_sent", "ae.requests_sent", "ae.shares_resent", "ae.hints_sent",
            "faults.messages_dropped", "faults.messages_duplicated",
            "faults.messages_corrupted", "net.messages_partitioned",
        ):
            assert counters[name] > 0, name


def walked_neighbour_members(cluster, group_id):
    """The neighbour part of ``_peer_candidates`` as of 97a8d19."""
    members = []
    seen_groups = {group_id}
    for pair in cluster.cycle_neighbor_ids(group_id):
        for neighbour in pair:
            if neighbour in seen_groups:
                continue
            seen_groups.add(neighbour)
            view = cluster.view_of_group(neighbour)
            if view is not None:
                members.extend(view.members)
    return members


class TestNeighbourMembersPerView:
    def test_the_cached_list_equals_a_fresh_walk_at_every_tick_under_churn(self):
        cluster = AtumCluster(small_params(), seed=21, antientropy=AntiEntropyConfig())
        cluster.build_static([f"n{i}" for i in range(60)])
        cached = cluster.neighbour_members
        last = {}
        lookups = hits = 0

        def checked(group_id):
            nonlocal lookups, hits
            members = cached(group_id)
            assert list(members) == walked_neighbour_members(cluster, group_id)
            lookups += 1
            hits += members is last.get(group_id)
            last[group_id] = members
            return members

        cluster.neighbour_members = checked

        def probe():
            # Anti-entropy looks a list up at its own (Trickle) pace; this
            # looks up every vgroup's list every second throughout.
            for group_id in sorted(cluster.engine.groups):
                checked(group_id)
            cluster.sim.schedule(1.0, probe)

        cluster.sim.schedule(1.0, probe)
        rng = random.Random(21)
        # Growth splits vgroups, the exodus merges them, and every join and
        # leave installs views.
        for index in range(40):
            cluster.sim.schedule_at(
                1.0 + 2.0 * index, lambda i=index: cluster.join(f"j{i}", contact="n0")
            )
        leavers = rng.sample([f"n{i}" for i in range(1, 60)], 45)
        for index, address in enumerate(leavers):
            cluster.sim.schedule_at(100.0 + 3.0 * index, lambda a=address: cluster.leave(a))
        cluster.run(until=320.0)
        cluster.run_until_membership_quiescent()
        cluster.run_for(10.0)
        counter = cluster.sim.metrics.counter
        assert counter("membership.splits") > 0 and counter("membership.merges") > 0
        # Most lookups were served the tuple the previous one built.
        assert lookups > 5000 and hits > lookups // 2

    def test_a_graph_mutation_alone_drops_the_list(self):
        cluster = AtumCluster(small_params(), seed=4, antientropy=AntiEntropyConfig())
        cluster.build_static([f"n{i}" for i in range(40)])
        graph = cluster.engine.graph
        group_ids = sorted(cluster.engine.groups)
        before = {g: cluster.neighbour_members(g) for g in group_ids}
        moved = group_ids[0]
        graph.remove(moved)
        graph.insert_vertex(moved, [group_ids[1]] * graph.hc)
        after = {g: cluster.neighbour_members(g) for g in group_ids}
        assert after != before
        for group_id in group_ids:
            assert list(after[group_id]) == walked_neighbour_members(cluster, group_id)


# ------------------------------------------------------------ (iv) the shuffle


class TestInlineShuffle:
    def test_send_fanout_draws_what_random_shuffle_draws(self):
        sim = Simulator(seed=0)
        network = Network(sim, latency_model=FixedLatency(0.001))
        orders = []
        network.send_many = lambda sender, receivers, payload, size: orders.append(receivers)
        twin = random.Random()
        for size in range(65):
            for seed in range(50):
                network._rng.seed(seed * 1000 + size)
                twin.setstate(network._rng.getstate())
                receivers = tuple(f"r{i}" for i in range(size))
                expected = list(receivers)
                twin.shuffle(expected)
                network.send_fanout("a", receivers, "x", 64)
                assert orders.pop() == expected
                assert network._rng.getstate() == twin.getstate()
        assert receivers == tuple(f"r{i}" for i in range(64))  # the caller's sequence is not touched
