"""Unit tests for the network substrate."""

import math
import random

import pytest

from repro.core.middleware import Middleware, MiddlewareChain
from repro.faults.injector import LinkFaultInjector
from repro.faults.plan import LinkFault
from repro.group.heartbeat import Heartbeat, HeartbeatClock, HeartbeatMonitor
from repro.net import (
    FixedLatency,
    LanProfile,
    LogNormalLatency,
    Network,
    UniformLatency,
    WanProfile,
)
from repro.net.latency import RegionalLatency, DEFAULT_REGIONS
from repro.net.network import BANDWIDTH_BYTES_PER_S, HEADERS_BYTES
from repro.sim import Simulator
from repro.sim.actor import Actor


class Recorder(Actor):
    """Test actor that records every delivered message with its time."""

    def __init__(self, sim, address):
        super().__init__(sim, address)
        self.received = []

    def on_message(self, payload, sender):
        self.received.append((self.sim.now, payload, sender))


def make_net(seed=0, latency=None):
    sim = Simulator(seed=seed)
    network = Network(sim, latency_model=latency or FixedLatency(0.01))
    return sim, network


class TestDelivery:
    def test_basic_delivery_with_fixed_latency(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.send_one("a", "b", {"hello": 1}, size_bytes=100)
        sim.run()
        assert len(b.received) == 1
        time, payload, sender = b.received[0]
        assert payload == {"hello": 1}
        assert sender == "a"
        # latency 0.01 plus transfer of (100+64)/8e6 seconds
        assert time == pytest.approx(0.01 + 164 / 8_000_000)

    def test_unregistered_receiver_drops_message(self):
        sim, network = make_net()
        a = Recorder(sim, "a")
        network.register(a)
        network.send_one("a", "ghost", "payload")
        sim.run()
        assert sim.metrics.counter("net.messages_undeliverable") == 1

    def test_dead_actor_does_not_receive(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        b.shutdown()
        network.send_one("a", "b", "payload")
        sim.run()
        assert b.received == []

    def test_large_transfer_takes_bandwidth_time(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.send_one("a", "b", "blob", size_bytes=int(BANDWIDTH_BYTES_PER_S))
        sim.run()
        delivery_time = b.received[0][0]
        assert delivery_time >= 1.0  # at least one second of transfer time

    def test_downlink_serialization_of_concurrent_transfers(self):
        # Two one-second messages to the same receiver must be serialized on
        # its downlink: the second arrives roughly one transfer time later.
        sim, network = make_net()
        a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
        for actor in (a, b, c):
            network.register(actor)
        network.send_one("a", "c", "blob1", size_bytes=int(BANDWIDTH_BYTES_PER_S))
        network.send_one("b", "c", "blob2", size_bytes=int(BANDWIDTH_BYTES_PER_S))
        sim.run()
        times = sorted(t for t, _, _ in c.received)
        assert len(times) == 2
        assert times[1] - times[0] >= 0.9

    def test_link_fault_loss_drops_messages(self):
        # Loss is a fault hook's drop verdict: nothing is delivered, the
        # sender learns of it, and the network counts it lost.
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.install_middleware(
            MiddlewareChain(LinkFaultInjector(sim, [LinkFault(loss=1.0)]))
        )
        assert network.send_one("a", "b", "x") is False
        sim.run()
        assert b.received == []
        assert sim.metrics.counter("net.messages_lost") == 1

    def test_partition_blocks_and_heal_restores(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.partition(["b"])
        network.send_one("a", "b", "lost")
        sim.run()
        assert b.received == []
        network.heal(["b"])
        network.send_one("a", "b", "found")
        sim.run()
        assert len(b.received) == 1

    def test_send_many_counts_dispatched(self):
        sim, network = make_net()
        a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
        for actor in (a, b, c):
            network.register(actor)
        count = network.send_many("a", ["b", "c", "ghost"], "x", 10)
        assert count == 3  # an unknown receiver is only discovered on arrival
        assert network.send_many("a", [], "x", 10) == 0
        sim.run()
        assert len(b.received) == 1
        assert len(c.received) == 1

    def test_metrics_track_messages(self):
        sim, network = make_net()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        network.register(a)
        network.register(b)
        network.send_one("a", "b", "x", size_bytes=100)
        sim.run()
        assert sim.metrics.counter("net.messages_sent") == 1
        assert sim.metrics.counter("net.messages_delivered") == 1
        assert sim.metrics.counter("net.bytes_sent") == 100


class TestSidePreservingSplits:
    def _quad(self, seed=2):
        sim, network = make_net(seed=seed)
        actors = {name: Recorder(sim, name) for name in ("a", "b", "c", "d")}
        for actor in actors.values():
            network.register(actor)
        return sim, network, actors

    def test_split_blocks_cross_side_only(self):
        sim, network, actors = self._quad()
        network.split([("a", "b"), ("c", "d")])
        network.send_one("a", "b", "same-side", 64)     # within side 0
        network.send_one("c", "d", "same-side-2", 64)   # within side 1
        network.send_one("a", "c", "cross", 64)         # across -> dropped
        network.send_one("d", "b", "cross-2", 64)       # across -> dropped
        sim.run_until_idle()
        assert [p for _, p, _ in actors["b"].received] == ["same-side"]
        assert [p for _, p, _ in actors["d"].received] == ["same-side-2"]
        assert actors["c"].received == []
        assert sim.metrics.counter("net.messages_partitioned") == 2

    def test_unnamed_addresses_unaffected(self):
        sim, network, actors = self._quad()
        network.split([("a",), ("c",)])
        network.send_one("a", "b", "to-unnamed", 64)
        network.send_one("b", "c", "from-unnamed", 64)
        sim.run_until_idle()
        assert len(actors["b"].received) == 1
        assert len(actors["c"].received) == 1

    def test_merge_restores_connectivity(self):
        sim, network, actors = self._quad()
        split_id = network.split([("a", "b"), ("c", "d")])
        network.send_one("a", "c", "lost", 64)
        network.merge(split_id)
        network.send_one("a", "c", "after-heal", 64)
        sim.run_until_idle()
        assert [p for _, p, _ in actors["c"].received] == ["after-heal"]

    def test_split_respected_on_every_send_entry_point(self):
        sim, network, actors = self._quad()
        network.split([("a", "b"), ("c", "d")])
        network.send_one("a", "c", "x", 64)
        network.send_one("a", "c", "x", 64)
        network.send_many("a", ["c", "d"], "x", 64)
        network.send_fanout("a", ["c", "d"], "x", 64)
        sim.run_until_idle()
        assert actors["c"].received == [] and actors["d"].received == []
        assert sim.metrics.counter("net.messages_partitioned") == 6

    def test_inflight_message_dropped_when_split_forms(self):
        sim, network, actors = self._quad()
        network.send_one("a", "c", "in-flight", 64)  # scheduled before the split
        network.split([("a", "b"), ("c", "d")])
        sim.run_until_idle()
        assert actors["c"].received == []

    def test_overlapping_splits_compose(self):
        sim, network, actors = self._quad()
        first = network.split([("a",), ("c",)])
        network.split([("a",), ("d",)])
        network.merge(first)
        network.send_one("a", "c", "now-ok", 64)   # first split merged
        network.send_one("a", "d", "blocked", 64)  # second still active
        sim.run_until_idle()
        assert len(actors["c"].received) == 1
        assert actors["d"].received == []

    def test_crosses_split_is_symmetric_free_of_state(self):
        sim, network, _ = self._quad()
        network.split([("a", "b"), ("c", "d")])
        assert network.crosses_split("a", "c")
        assert network.crosses_split("c", "a")
        assert not network.crosses_split("a", "b")
        assert not network.crosses_split("a", "unknown")


class TestLatencyModels:
    def test_fixed(self):
        rng = random.Random(0)
        model = FixedLatency(0.005)
        assert model.sample(rng, "a", "b") == 0.005

    def test_uniform_within_bounds(self):
        rng = random.Random(0)
        model = UniformLatency(low=0.001, high=0.002)
        for _ in range(100):
            sample = model.sample(rng, "a", "b")
            assert 0.001 <= sample <= 0.002

    def test_lognormal_positive_and_floored(self):
        rng = random.Random(0)
        model = LogNormalLatency(median=0.001, sigma=0.5, floor=0.0005)
        samples = [model.sample(rng, "a", "b") for _ in range(200)]
        assert all(sample >= 0.0005 for sample in samples)

    def test_lan_profile_is_sub_5ms_typically(self):
        rng = random.Random(0)
        model = LanProfile()
        samples = [model.sample(rng, "a", "b") for _ in range(200)]
        assert sum(samples) / len(samples) < 0.005

    def test_wan_profile_inter_region_slower_than_intra(self):
        addresses = [f"n{i}" for i in range(16)]
        model = WanProfile(addresses)
        rng = random.Random(0)
        # n0 and n8 share a region (round robin over 8 regions); n0 and n1 differ.
        intra = [model.sample(rng, "n0", "n8") for _ in range(50)]
        inter = [model.sample(rng, "n0", "n4") for _ in range(50)]
        assert sum(intra) / len(intra) < sum(inter) / len(inter)

    def test_wan_assign_round_robin(self):
        model = WanProfile()
        regions = [model.assign(f"x{i}") for i in range(len(DEFAULT_REGIONS))]
        assert len(set(regions)) == len(DEFAULT_REGIONS)

    def test_regional_symmetry(self):
        model = RegionalLatency(region_of={"a": "eu-west", "b": "ap-sydney"})
        assert model.base_latency("a", "b") == model.base_latency("b", "a")

    def test_regional_unknown_pair_uses_default(self):
        model = RegionalLatency(region_of={"a": "mars", "b": "venus"})
        assert model.base_latency("a", "b") == model.default_inter_region

    def test_median_latency_is_each_model_draw_free_median(self):
        assert FixedLatency(0.005).median_latency("a", "b") == 0.005
        assert UniformLatency(low=0.001, high=0.003).median_latency("a", "b") == 0.002
        assert LogNormalLatency(median=0.001, floor=0.0005).median_latency("a", "b") == 0.001
        assert LogNormalLatency(median=0.0002, floor=0.0005).median_latency("a", "b") == 0.0005
        assert LanProfile().median_latency("a", "b") == 0.0005
        wan = WanProfile([f"n{i}" for i in range(16)])
        for pair in [("n0", "n8"), ("n0", "n4"), ("n1", "stranger")]:
            assert wan.median_latency(*pair) == wan.base_latency(*pair)

    @pytest.mark.parametrize("floor", [0.0001, 0.0006])
    def test_lognormal_sampler_is_the_stdlib_draw_bit_for_bit(self, floor):
        # The sampler inlines rng.lognormvariate; a twin RNG running the
        # stdlib method must produce the same floats and end in the same
        # state on every supported interpreter.
        model = LogNormalLatency(median=0.0005, sigma=0.25, floor=floor)
        rng, twin = random.Random(42), random.Random(42)
        mu = math.log(0.0005)
        for _ in range(10_000):
            assert model.sample(rng, "a", "b") == max(floor, twin.lognormvariate(mu, 0.25))
        assert rng.getstate() == twin.getstate()

    def test_regional_sampler_is_the_stdlib_draw_bit_for_bit(self):
        model = WanProfile([f"n{i}" for i in range(16)])
        rng, twin = random.Random(43), random.Random(43)
        pairs = [("n0", "n8"), ("n0", "n4"), ("n3", "n5"), ("n1", "stranger")]
        for index in range(10_000):
            sender, receiver = pairs[index % len(pairs)]
            mu = math.log(model.base_latency(sender, receiver))
            expected = twin.lognormvariate(mu, model.jitter_sigma)
            assert model.sample(rng, sender, receiver) == expected
        assert rng.getstate() == twin.getstate()


class TestLatencyBoundary:
    """A latency is outside input to the routing loop: never into the past."""

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf"), float("-inf")])
    def test_fixed_and_uniform_validate_at_construction(self, bad):
        with pytest.raises(ValueError):
            FixedLatency(bad)
        with pytest.raises(ValueError):
            UniformLatency(low=bad, high=1.0)
        with pytest.raises(ValueError):
            UniformLatency(low=0.0, high=bad)

    def test_uniform_rejects_an_empty_range(self):
        with pytest.raises(ValueError):
            UniformLatency(low=0.002, high=0.001)
        assert UniformLatency(low=0.0, high=0.0).sample(random.Random(1), "a", "b") == 0.0
        assert FixedLatency(0.0).latency == 0.0

    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_a_bad_sample_is_taken_as_zero_and_counted(self, bad):
        # With ``FixedLatency(-0.5)`` a message sent at t=1.0 used to reach
        # ``on_message`` with ``sim.now == 0.500008``: ``run()`` moved the
        # clock back, ``step()`` raised "event from the past".
        model = FixedLatency(0.01)
        model.latency = bad  # past the constructor, as any custom model could be
        sim, network = make_net(latency=model)
        receiver = Recorder(sim, "b")
        network.register(receiver)
        sim.schedule(1.0, lambda: network.send_many("a", ["b", "b"], "x", 0))
        sim.run()
        transfer = 64 / 8_000_000.0
        assert [now for now, _, _ in receiver.received] == [1.0 + transfer, 1.0 + 2 * transfer]
        assert sim.now == 1.0 + 2 * transfer
        assert sim.metrics.counter("net.latency_sample_rejected") == 2
        assert list(sim.metrics.histogram("net.delivery_latency").samples) == [
            (1.0 + transfer) - 1.0,
            (1.0 + 2 * transfer) - 1.0,
        ]


class VerdictHook(Middleware):
    """Sets every kind of verdict, keyed on the receiver."""

    def on_send(self, ctx):
        if ctx.receiver == "b":
            ctx.extra_delay = 0.25
        elif ctx.receiver == "c":
            ctx.copies = 3
        elif ctx.receiver == "e":
            ctx.corrupted = True


class TestBatchEqualsSequential:
    """Standing oracle: ``send_many`` is exactly its single sends in a row."""

    RECEIVERS = ["b", "c", "d", "e", "f", "g"]

    HOOKS = {
        "plain": lambda sim: [],
        # Losses come from a fault hook's drop verdict, the one loss path.
        "lossy": lambda sim: [LinkFaultInjector(sim, [LinkFault(loss=0.05)])],
        "hooked": lambda sim: [
            LinkFaultInjector(sim, [LinkFault(loss=0.05)]), VerdictHook()
        ],
    }

    def _run(self, batched, hooks):
        sim = Simulator(seed=1234)
        network = Network(sim, latency_model=LanProfile())
        actors = {name: Recorder(sim, name) for name in ["a", *self.RECEIVERS]}
        for actor in actors.values():
            network.register(actor)
        network.split([("a", "b", "c", "d", "e", "g"), ("f",)])
        network.partition(["g"])
        middleware = self.HOOKS[hooks](sim)
        if middleware:
            network.install_middleware(MiddlewareChain(*middleware))

        def burst(tag):
            if batched:
                network.send_many("a", self.RECEIVERS, tag, 4000)
            else:
                for receiver in self.RECEIVERS:
                    network.send_one("a", receiver, tag, 4000)

        for index in range(60):
            sim.schedule(0.0002 * index, lambda tag=index: burst(tag), tag="burst")
        trace = []
        sim.run(trace=trace)
        deliveries = [
            (name, actor.received) for name, actor in sorted(actors.items())
        ]
        counters = {
            name: value
            for name, value in sim.metrics.counters.items()
            if name.startswith("net.")
        }
        latencies = list(sim.metrics.histogram("net.delivery_latency").samples)
        return trace, deliveries, counters, latencies, network._rng.getstate()

    @pytest.mark.parametrize("hooks", sorted(HOOKS))
    def test_batch_and_single_sends_agree(self, hooks):
        batch = self._run(True, hooks)
        single = self._run(False, hooks)
        assert batch == single
        _, _, counters, latencies, _ = batch
        # The scenario is not vacuous: every outcome occurs.
        assert (counters.get("net.messages_lost", 0) > 0) == (hooks != "plain")
        assert counters["net.messages_partitioned"] == 120
        assert len(latencies) == counters["net.messages_delivered"] > 200


class NestedSendHook(Middleware):
    """An ``on_send`` hook that itself sends, once per message to ``"b"``."""

    def __init__(self, network):
        self.network = network
        self.nested = 0

    def on_send(self, ctx):
        if ctx.receiver == "b" and ctx.payload != "nested":
            self.nested += 1
            self.network.send_one("a", "z", "nested", 100)


def _assigned_wan():
    # "a", "b", "z" and the n* addresses have regions; "stranger" never does.
    model = WanProfile([f"n{i}" for i in range(16)])
    for address in ("a", "b", "z"):
        model.assign(address)
    return model


INLINE_DRAW_RECEIVERS = ["b", "n1", "n4", "stranger", "n9", "n4"]


def _warm_wan():
    model = _assigned_wan()
    rng = random.Random(0)
    for receiver in INLINE_DRAW_RECEIVERS + ["z"]:
        model.sample(rng, "a", receiver)
    return model


INLINE_DRAW_MODELS = {
    "lan": (LanProfile, "median", 0.002),
    "lognormal_high_floor": (
        lambda: LogNormalLatency(median=0.0005, sigma=0.25, floor=0.0006), "floor", 0.0002,
    ),
    "wan_cold": (_assigned_wan, "intra_region_median", 0.004),
    "wan_warm": (_warm_wan, "default_inter_region", 0.2),
    "wan_unassigned_sender": (
        lambda: WanProfile([f"n{i}" for i in range(16)]), "jitter_sigma", 0.4,
    ),
    "fixed": (lambda: FixedLatency(0.003), "latency", 0.001),
    "uniform": (lambda: UniformLatency(0.001, 0.004), "high", 0.002),
}


class TestInlineDrawEqualsSample:
    """Oracle for the draw ``send_many`` runs itself: n x ``model.sample``.

    The reference below is the routing arithmetic written out around the
    public per-pair API.  After every burst the network must have consumed
    the RNG identically, pushed the same ``(time, priority, seq)`` heap keys
    and left the same downlink state — with a fault hook's loss draw before
    each latency draw, with a hook that re-entrantly sends between two
    draws, and across a public model field reassigned mid-run.
    """

    def _reference_burst(self, twin, sender, receivers, size, nested):
        keys = []
        rng, model, now, downlink = twin["rng"], twin["model"], twin["now"], twin["downlink"]
        loss, lose = twin["loss"], twin["faults"].random
        transfer = (size + HEADERS_BYTES) / BANDWIDTH_BYTES_PER_S
        for receiver in receivers:
            # A dropped message ends the hook chain and draws no latency.
            if loss > 0.0 and lose() < loss:
                continue
            if nested and receiver == "b":
                keys += self._reference_burst(twin, "a", ["z"], 100, nested=False)
            propagation = model.sample(rng, sender, receiver)
            arrival_start = now + propagation
            free_at = downlink.get(receiver, 0.0)
            if free_at > arrival_start:
                arrival_start = free_at
            delivery_time = arrival_start + transfer
            downlink[receiver] = delivery_time
            keys.append((now + (delivery_time - now), 0, twin["seq"]))
            twin["seq"] += 1
        return keys

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "reentrant_hook"])
    @pytest.mark.parametrize("loss", [0.0, 0.05], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("name", sorted(INLINE_DRAW_MODELS))
    def test_send_many_is_n_samples(self, name, loss, hooked):
        factory, field, new_value = INLINE_DRAW_MODELS[name]
        sim = Simulator(seed=99)
        network = Network(sim, latency_model=factory())
        hooks = []
        if loss:
            # Loss is a fault hook's drop verdict, drawn from its own stream.
            hooks.append(LinkFaultInjector(sim, [LinkFault(loss=loss)]))
        hook = None
        if hooked:
            hook = NestedSendHook(network)
            hooks.append(hook)
        if hooks:
            network.install_middleware(MiddlewareChain(*hooks))
        twin = {
            "model": factory(), "downlink": {}, "seq": sim.queue._seq,
            "rng": random.Random(), "now": 0.0, "loss": loss, "faults": random.Random(),
        }
        twin["rng"].setstate(network._rng.getstate())
        twin["faults"].setstate(sim.rng.stream("faults.network").getstate())
        bursts = 0
        for step in range(40):
            if step == 20:
                # A public field reassigned mid-run reaches both paths.
                setattr(network.latency_model, field, new_value)
                setattr(twin["model"], field, new_value)
            sim.run(until=0.0004 * step)  # nobody is registered: pops only
            twin["now"] = sim.now
            before = {entry[:3] for entry in sim.queue._heap}
            turn = step % len(INLINE_DRAW_RECEIVERS)
            receivers = INLINE_DRAW_RECEIVERS[turn:] + INLINE_DRAW_RECEIVERS[:turn]
            network.send_many("a", receivers, step, 3000)
            pushed = sorted({entry[:3] for entry in sim.queue._heap} - before)
            expected = self._reference_burst(twin, "a", receivers, 3000, nested=hooked)
            assert pushed == sorted(expected)
            assert network._rng.getstate() == twin["rng"].getstate()
            assert network._downlink_free_at == twin["downlink"]
            bursts += len(pushed)
        assert sim.queue._seq == twin["seq"]
        assert bursts > 150
        if hooked:
            assert hook.nested > 30
        if loss:
            assert sim.metrics.counter("net.messages_lost") > 0
            assert twin["faults"].getstate() == sim.rng.stream("faults.network").getstate()

    def test_wan_rows_cache_only_assigned_pairs_and_stay_bounded(self, monkeypatch):
        from repro.net import latency

        model = _assigned_wan()
        rng = random.Random(5)
        model.sample(rng, "a", "stranger")
        model.sample(rng, "stranger", "a")
        assert model._mu_rows == {}
        model.sample(rng, "a", "b")
        model.sample(rng, "a", "n3")
        assert set(model._mu_rows) == {"a"} and set(model._mu_rows["a"]) == {"b", "n3"}
        monkeypatch.setattr(latency, "_MU_CACHE_LIMIT", 3)
        model.sample(rng, "b", "a")
        model.sample(rng, "b", "n1")  # the fourth pair resets the cache first
        assert model._mu_rows == {"b": {"n1": math.log(model.base_latency("b", "n1"))}}
        model.region_of = dict(model.region_of, b=model.region_of["n1"])
        assert model._mu_rows == {}  # reassigning a public field invalidates


class TestDeliveryObject:
    def _three_sends(self):
        sim, network = make_net()
        receiver = Recorder(sim, "b")
        network.register(receiver)
        for index in range(3):
            sim.schedule(0.5 * index, lambda i=index: network.send_one("a", "b", i, 936))
        return sim, receiver

    def test_step_and_traced_run_report_the_same_delivery_rows(self):
        sim, receiver = self._three_sends()
        trace = []
        sim.run(trace=trace)
        stepped, stepping_receiver = self._three_sends()
        rows = []
        while stepped.queue._heap:
            tag = stepped.queue._heap[0][3].tag
            assert stepped.step()
            rows.append((stepped.now, tag))
        assert not stepped.step()
        assert rows == trace
        transfer = (936 + 64) / 8_000_000.0
        assert [row for row in trace if row[1] == "net.deliver"] == [
            (0.5 * index + (0.01 + transfer), "net.deliver") for index in range(3)
        ]
        assert receiver.received == stepping_receiver.received
        assert stepped.processed_events == sim.processed_events == 6

    def test_a_delivery_cannot_be_cancelled(self):
        sim, network = make_net()
        receiver = Recorder(sim, "b")
        network.register(receiver)
        network.send_one("a", "b", "payload", 100)
        (entry,) = sim.queue._heap
        event = entry[3]
        transfer = (100 + 64) / 8_000_000.0
        assert entry == (0.01 + transfer, 0, 0, event, "a", "b", "payload", 0.0)
        assert type(entry) is tuple
        with pytest.raises(TypeError, match="cannot be cancelled"):
            sim.cancel(event)
        with pytest.raises(AttributeError):
            event.cancelled = True
        assert len(sim.queue) == 1
        sim.run()
        assert [payload for _, payload, _ in receiver.received] == ["payload"]


class TestFourWaysToDrainAgree:
    """Standing differential for the kernel's one firing protocol.

    ``run()`` (the fast loop), ``run(trace=[])`` and ``run(max_events=...)``
    (the general loop) and ``step()`` each pop an entry and call
    ``entry[3].fire(entry)``.  One schedule -- timers, one of them cancelled
    before it surfaces, a hooked burst with a delayed, a triplicated and a
    corrupted copy, a receiver that dies while its copy is in flight -- must
    look the same through all four, slice by slice.
    """

    def _build(self):
        sim = Simulator(seed=99)
        network = Network(sim, latency_model=LanProfile())
        network.install_middleware(MiddlewareChain(VerdictHook()))
        actors = {name: Recorder(sim, name) for name in "abcdef"}
        for actor in actors.values():
            network.register(actor)
        timers = []
        for index in range(4):
            sim.schedule(
                0.0007 * index, lambda i=index: timers.append((sim.now, i)), tag=f"tick{index}"
            )
        sim.schedule(
            0.001, lambda: network.send_many("a", list("bcdef"), "burst", 2000), tag="burst"
        )
        sim.schedule(0.0011, actors["d"].shutdown, tag="d.dies")
        doomed = sim.schedule(0.0016, lambda: timers.append("never"), tag="doomed")
        sim.schedule(0.0012, lambda: sim.cancel(doomed), tag="cancel")
        sim.schedule(0.3, lambda: network.send_one("f", "a", "late", 100), tag="late")

        def observe():
            return (
                timers,
                {name: actor.received for name, actor in actors.items()},
                {n: v for n, v in sim.metrics.counters.items() if n.startswith("net.")},
                sim.metrics.histogram("net.delivery_latency").samples,
            )

        return sim, observe

    def test_run_traced_run_sliced_run_and_step_agree(self):
        # step(): the reference -- one (now, tag) row and one
        # (processed_events, len(queue)) reading per event.
        sim, observe = self._build()
        rows, readings = [], []
        while sim.queue.peek_time() is not None:  # drops a cancelled root
            tag = sim.queue._heap[0][3].tag
            assert sim.step()
            rows.append((sim.now, tag))
            readings.append((sim.processed_events, len(sim.queue)))
        assert not sim.step()
        reference = observe()
        timers, received, counters, latencies = reference
        # The schedule is not vacuous.
        tags = [tag for _, tag in rows]
        assert "doomed" not in tags and "never" not in timers and len(timers) == 4
        assert tags.count("net.deliver") == 1 + 3 + 1 + 1 + 1 + 1  # b, 3 x c, d, e, f; late
        assert counters["net.messages_undeliverable"] == 1 and received["d"] == []
        assert len(received["c"]) == 3 and len(latencies) == 7
        assert [t for t, _ in rows] == sorted(t for t, _ in rows)

        # run(trace=[]) in one go.
        sim, observe = self._build()
        trace = []
        sim.run(trace=trace)
        assert trace == rows
        assert (sim.processed_events, len(sim.queue)) == readings[-1]
        assert observe() == reference

        # run(max_events=2, trace=...) in slices of two events.
        sim, observe = self._build()
        trace = []
        while len(sim.queue):
            sim.run(max_events=2, trace=trace)
            assert (sim.processed_events, len(sim.queue)) == readings[len(trace) - 1]
            assert sim.now == rows[len(trace) - 1][0]
        assert trace == rows
        assert observe() == reference

        # run(): the fast loop has no trace, so slice it by horizon -- one
        # slice per distinct event time -- and read the counters after each.
        sim, observe = self._build()
        for index, (time, _) in enumerate(rows):
            if index + 1 < len(rows) and rows[index + 1][0] == time:
                continue
            assert sim.run(until=time) == time
            assert (sim.processed_events, len(sim.queue)) == readings[index]
        assert observe() == reference
        sim, observe = self._build()
        sim.run()
        assert (sim.now, sim.processed_events) == (rows[-1][0], len(rows))
        assert observe() == reference


class BurstHook(Middleware):
    """Drops the copy to "b", delays the one to "c" and corrupts the one to "e"."""

    def on_send(self, ctx):
        if ctx.receiver == "b":
            ctx.drop = True
        elif ctx.receiver == "c":
            ctx.extra_delay = 0.25
        elif ctx.receiver == "e":
            ctx.corrupted = True


class TestHeartbeatBursts:
    """A heartbeat send is one burst under its sender, heard at ``sent_at`` +
    the pair's median latency + the transfer time + a hook's extra delay,
    with its fate decided at send (:meth:`Network.heard`)."""

    TRANSFER = (64 + HEADERS_BYTES) / BANDWIDTH_BYTES_PER_S

    def _beat(self, network, receivers, sender="a"):
        return network.send_many(sender, receivers, Heartbeat(sender), 64)

    def _monitor(self, sim, network, reports, address="b", peers=("a", "b"), period=1.0):
        return HeartbeatMonitor(
            sim=sim,
            address=address,
            peers_fn=lambda: peers,
            send_fn=lambda peers, heartbeat: None,
            heard_fn=network.heard,
            suspect_fn=lambda peer: reports.append((sim.now, peer)),
            clock=HeartbeatClock(sim, period, network),
        )

    def test_a_burst_is_no_event_no_draw_and_no_downlink(self):
        sim, network = make_net(latency=LanProfile())
        state = network._rng.getstate()
        others = ("b", "c", "d")
        assert self._beat(network, others) == 3
        # With nothing active the sender's tuple itself is the burst.
        ((sent_at, receivers, delays, _),) = network._bursts["a"]
        assert (sent_at, delays) == (0.0, None) and receivers is others
        assert len(sim.queue) == 0 and sim.queue._seq == 0
        assert network._rng.getstate() == state
        assert network._downlink_free_at == {}
        counter = sim.metrics.counter
        assert counter("net.messages_sent") == counter("net.messages_delivered") == 3
        assert list(sim.metrics.histogram("net.delivery_latency").samples) == []
        median = network.latency_model.median_latency("a", "b")
        assert network.heard("a", "b", 1.0) == 0.0 + median + self.TRANSFER

    def test_an_arrival_at_exactly_a_tick_counts(self):
        sim, network = make_net(latency=FixedLatency(1.0))
        arrival = 10.0 + 1.0 + self.TRANSFER
        assert network.heard("a", "b", arrival) == -math.inf
        sim.schedule_at(10.0, lambda: self._beat(network, ("b",)))
        reports = []
        # Started on the grid at 0, the monitor ticks at 0, P and P + P ==
        # arrival (doubling is exact).
        period = arrival / 2
        assert period + period == arrival
        monitor = self._monitor(sim, network, reports, period=period)
        monitor.start()
        sim.run(until=arrival)
        assert monitor.last_seen["a"] == arrival
        assert network.heard("a", "b", arrival) == arrival
        assert network.heard("a", "b", math.nextafter(arrival, 0.0)) == -math.inf

    @pytest.mark.parametrize("cut", ["partition", "split"])
    @pytest.mark.parametrize("cut_first", [False, True])
    def test_a_cut_excludes_the_receiver_iff_it_formed_before_the_send(self, cut, cut_first):
        sim, network = make_net(latency=FixedLatency(1.0))

        def form():
            if cut == "partition":
                network.partition(["b"])
            else:
                network.split([["a", "c"], ["b"]])

        if cut_first:
            form()
        self._beat(network, ("b", "c"))
        if not cut_first:
            form()
        # Healing before the arrival does not bring a cut copy back.
        network.heal()
        network.merge()
        arrival = 0.0 + 1.0 + self.TRANSFER
        assert network.heard("a", "c", 5.0) == arrival
        assert network.heard("a", "b", 5.0) == (-math.inf if cut_first else arrival)
        counter = sim.metrics.counter
        assert counter("net.messages_partitioned") == (1 if cut_first else 0)
        assert counter("net.messages_delivered") == (1 if cut_first else 2)

    def test_a_hook_drops_delays_and_corrupts_per_receiver(self):
        sim, network = make_net(latency=FixedLatency(1.0))
        network.install_middleware(MiddlewareChain(BurstHook()))
        assert self._beat(network, ("b", "c", "d", "e")) == 2
        arrival = 0.0 + 1.0 + self.TRANSFER
        assert network.heard("a", "b", 5.0) == -math.inf
        assert network.heard("a", "c", arrival) == -math.inf
        assert network.heard("a", "c", 5.0) == arrival + 0.25
        assert network.heard("a", "d", arrival) == arrival
        # A corrupted heartbeat fails authentication: it is not heard.
        assert network.heard("a", "e", 5.0) == -math.inf
        counter = sim.metrics.counter
        assert counter("net.messages_lost") == 1
        assert counter("net.corrupted_discarded") == 1
        assert counter("net.messages_delivered") == 2
        assert len(sim.queue) == 0

    def test_the_previous_burst_is_read_while_the_latest_is_in_flight(self):
        sim, network = make_net(latency=FixedLatency(1.0))
        sim.schedule_at(0.0, lambda: self._beat(network, ("b",)))
        sim.schedule_at(0.5, lambda: self._beat(network, ("b",)))
        sim.run()
        first, second = (at + 1.0 + self.TRANSFER for at in (0.0, 0.5))
        assert network.heard("a", "b", 0.9) == -math.inf
        assert network.heard("a", "b", 1.2) == first
        assert network.heard("a", "b", 1.6) == second

    def test_only_the_latest_two_bursts_are_kept(self):
        sim, network = make_net(latency=FixedLatency(1.0))
        for at in (0.0, 0.5, 1.0):
            sim.schedule_at(at, lambda: self._beat(network, ("b",)))
        sim.schedule_at(1.5, lambda: self._beat(network, ("c",)))
        sim.run()
        assert [burst[0] for burst in network._bursts["a"]] == [1.5, 1.0]
        # The latest does not name "b"; the one before is in flight until
        # 2.000016, and the burst sent at 0.5 is gone.
        assert network.heard("a", "b", 1.9) == -math.inf
        assert network.heard("a", "b", 2.1) == 1.0 + 1.0 + self.TRANSFER

    def test_a_burst_is_keyed_by_the_transport_sender(self):
        sim, network = make_net(latency=FixedLatency(1.0))
        network.send_many("x", ("b",), Heartbeat("a"), 64)
        assert network.heard("a", "b", 5.0) == -math.inf
        assert network.heard("x", "b", 5.0) == 1.0 + self.TRANSFER

    def test_a_restarted_monitor_ignores_earlier_bursts(self):
        sim, network = make_net(latency=FixedLatency(0.001))
        reports = []
        monitor = self._monitor(sim, network, reports)
        for at in (0.0, 1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(at, lambda: self._beat(network, ("b",)))
        monitor.start()
        sim.schedule_at(3.5, monitor.stop)
        sim.schedule_at(5.5, monitor.start)
        sim.run(until=5.6)
        # The burst sent at 4.0 landed before the restart at 5.5: not heard.
        assert network.heard("a", "b", 5.5) == 4.0 + 0.001 + self.TRANSFER
        assert monitor.last_seen["a"] == 5.5
        sim.run(until=9.5)
        # Silent since, "a" is late at the first tick past 5.5 + 3 (9.0), not
        # at the first past 4.001 + 3 (8.0).
        assert reports == [(9.0, "a")]
