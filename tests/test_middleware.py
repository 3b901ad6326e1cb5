"""Tests for the message-path middleware pipeline (repro.core.middleware).

Covers the chain semantics (ordering, short-circuit, loud double install),
per-hook exception propagation, exactly-once eviction notification across
the three eviction paths, and the determinism contract: installing an empty
chain (or adding a pure-observer middleware) leaves the stored golden
traces byte-identical.
"""

import json

import pytest

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import (
    HOOK_NAMES,
    MetricsTap,
    Middleware,
    MiddlewareChain,
    MiddlewareContext,
    MiddlewareError,
    run_hooks,
)
from repro.net.latency import FixedLatency
from repro.net.message import CorruptedPayload
from repro.net.network import Network
from repro.overlay.membership import MembershipError
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator


def small_params(**overrides):
    defaults = dict(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)
    defaults.update(overrides)
    return AtumParameters(**defaults)


def build_cluster(seed=9, nodes=16, **cluster_kwargs):
    cluster = AtumCluster(small_params(), seed=seed, **cluster_kwargs)
    cluster.build_static([f"n{i}" for i in range(nodes)])
    return cluster


class Recorder(Middleware):
    """Records every hook invocation as (hook, detail) tuples."""

    def __init__(self, name="recorder"):
        self.name = name
        self.events = []

    def on_send(self, ctx):
        self.events.append(("on_send", self.name, ctx.receiver))

    def on_deliver(self, ctx):
        self.events.append(("on_deliver", self.name, ctx.channel, ctx.address))

    def on_view_change(self, ctx):
        self.events.append(("on_view_change", self.name, ctx.view.group_id))

    def on_eviction(self, ctx):
        self.events.append(("on_eviction", self.name, ctx.address))

    def on_node_added(self, ctx):
        self.events.append(("on_node_added", self.name, ctx.address))

    def on_node_left(self, ctx):
        self.events.append(("on_node_left", self.name, ctx.address))


# ------------------------------------------------------------ chain semantics


class TestChainSemantics:
    def test_empty_chain_compiles_every_hook_to_none(self):
        chain = MiddlewareChain()
        for name in HOOK_NAMES:
            assert chain.hooks(name) is None

    def test_only_overridden_hooks_enter_the_pipeline(self):
        class DeliverOnly(Middleware):
            def on_deliver(self, ctx):
                pass

        chain = MiddlewareChain(DeliverOnly())
        assert chain.hooks("on_deliver") is not None
        assert chain.hooks("on_send") is None
        assert chain.hooks("on_eviction") is None

    def test_middleware_run_in_insertion_order(self):
        order = []

        class Tagged(Middleware):
            def __init__(self, tag):
                self.tag = tag

            def on_deliver(self, ctx):
                order.append(self.tag)

        chain = MiddlewareChain(Tagged("first"), Tagged("second"), Tagged("third"))
        run_hooks(chain.hooks("on_deliver"), MiddlewareContext("on_deliver"))
        assert order == ["first", "second", "third"]

    def test_stop_short_circuits_the_remaining_middleware(self):
        order = []

        class Stopper(Middleware):
            def on_deliver(self, ctx):
                order.append("stopper")
                ctx.stop = True

        class Never(Middleware):
            def on_deliver(self, ctx):
                order.append("never")

        chain = MiddlewareChain(Stopper(), Never())
        run_hooks(chain.hooks("on_deliver"), MiddlewareContext("on_deliver"))
        assert order == ["stopper"]

    def test_duplicate_add_raises(self):
        middleware = Recorder()
        chain = MiddlewareChain(middleware)
        with pytest.raises(MiddlewareError, match="already in the chain"):
            chain.add(middleware)

    def test_late_add_recompiles_subscribed_installers(self):
        chain = MiddlewareChain()
        recompiles = []
        chain.subscribe(lambda: recompiles.append(len(chain)))
        chain.add(Recorder())
        chain.add(Recorder())
        assert recompiles == [1, 2]

    def test_metrics_tap_send_counting_is_an_instance_level_opt_in(self):
        plain, counting = MetricsTap(), MetricsTap(count_sends=True)
        assert MiddlewareChain(plain).hooks("on_send") is None
        assert MiddlewareChain(counting).hooks("on_send") is not None


# ------------------------------------------------------------- double install


class TestDoubleInstallIsLoud:
    def test_second_cluster_chain_raises(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain())
        with pytest.raises(MiddlewareError, match="already installed"):
            cluster.install_middleware(MiddlewareChain())

    def test_second_network_chain_raises(self):
        network = Network(Simulator(seed=3), latency_model=FixedLatency(0.01))
        network.install_middleware(MiddlewareChain())
        with pytest.raises(MiddlewareError, match="already installed"):
            network.install_middleware(MiddlewareChain())

    def test_second_monitor_raises(self):
        from repro.faults.invariants import InvariantMonitor

        cluster = build_cluster()
        cluster.attach_monitor(InvariantMonitor())
        with pytest.raises(MiddlewareError, match="already attached"):
            cluster.attach_monitor(InvariantMonitor())


# ------------------------------------------------------ dispatch integration


class TestDispatchIntegration:
    def test_broadcast_feeds_deliver_and_send_hooks(self):
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        cluster.broadcast("n0", {"payload": 1})
        cluster.run_for(20.0)
        hooks_seen = {event[0] for event in recorder.events}
        assert "on_send" in hooks_seen
        assert "on_deliver" in hooks_seen
        channels = {event[2] for event in recorder.events if event[0] == "on_deliver"}
        assert "broadcast" in channels

    def test_membership_events_feed_view_and_node_hooks(self):
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        cluster.join("late-1", contact="n0")
        cluster.run_for(30.0)
        cluster.leave("late-1")
        cluster.run_for(30.0)
        hooks_seen = {event[0] for event in recorder.events}
        assert "on_node_added" in hooks_seen
        assert "on_view_change" in hooks_seen
        assert "on_node_left" in hooks_seen

    def test_on_send_drop_verdict_loses_the_message(self):
        class DropBroadcasts(Middleware):
            def on_send(self, ctx):
                ctx.drop = True

        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(DropBroadcasts()))
        before = cluster.sim.metrics.counter("net.messages_lost")
        cluster.broadcast("n0", {"payload": 1})
        cluster.run_for(10.0)
        assert cluster.sim.metrics.counter("net.messages_lost") > before
        assert cluster.sim.metrics.counter("net.messages_delivered") == 0

    def test_metrics_tap_counts_pipeline_events(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(MetricsTap(count_sends=True)))
        cluster.broadcast("n0", {"payload": 1})
        cluster.run_for(20.0)
        metrics = cluster.sim.metrics
        assert metrics.counter("mw.sends") > 0
        assert metrics.counter("mw.delivers") > 0

    def test_timer_ticks_until_stop_disarms(self):
        class ThreeTicks(Middleware):
            timer_period = 1.0

            def __init__(self):
                self.ticks = 0

            def on_timer(self, ctx):
                self.ticks += 1
                if self.ticks >= 3:
                    ctx.stop = True

        cluster = build_cluster()
        ticker = ThreeTicks()
        cluster.install_middleware(MiddlewareChain(ticker))
        cluster.run_for(10.0)
        assert ticker.ticks == 3


# ------------------------------------------- on_send verdicts and the context


class _Sink(Actor):
    def __init__(self, sim, address):
        super().__init__(sim, address)
        self.received = []

    def on_message(self, payload, sender):
        self.received.append((self.sim.now, payload))


def hooked_network(hook, receivers=("b", "c", "d", "e")):
    """A bare network (constant 1 ms latency) with ``hook`` as its on_send."""
    sim = Simulator(seed=21)
    network = Network(sim, latency_model=FixedLatency(0.001))
    sinks = {name: _Sink(sim, name) for name in ("a", *receivers)}
    for sink in sinks.values():
        network.register(sink)
    middleware = Middleware()
    middleware.on_send = hook
    network.install_middleware(MiddlewareChain(middleware))
    return sim, network, sinks


def accounted(metrics):
    return sum(
        metrics.counter(f"net.messages_{outcome}")
        for outcome in ("delivered", "lost", "partitioned", "undeliverable")
    )


class TestMalformedSendVerdicts:
    """A hook's verdict is outside input to the network: rejected, counted,
    and never allowed to corrupt the run."""

    @pytest.mark.parametrize("delay", [-5.0, float("nan"), float("inf"), "soon"])
    def test_bad_extra_delay_never_moves_the_clock_backwards(self, delay):
        def hook(ctx):
            ctx.extra_delay = delay

        sim, network, sinks = hooked_network(hook)
        sim.schedule(10.0, lambda: network.send_one("a", "b", "x", 0))
        sim.run_until_idle()
        (arrived_at, _), = sinks["b"].received
        assert arrived_at == pytest.approx(10.001, abs=1e-4)
        assert sim.now >= 10.0
        assert sim.metrics.counter("net.send_verdict_rejected") == 1

    @pytest.mark.parametrize("copies", [0, -3])
    def test_non_positive_copies_is_a_counted_drop(self, copies):
        def hook(ctx):
            ctx.copies = copies

        sim, network, sinks = hooked_network(hook)
        assert network.send_one("a", "b", "x", 64) is False
        sim.run_until_idle()
        assert sinks["b"].received == []
        metrics = sim.metrics
        assert metrics.counter("net.messages_lost") == 1
        assert metrics.counter("net.messages_sent") == accounted(metrics) == 1

    @pytest.mark.parametrize("copies", [2.0, None, "3"])
    def test_non_int_copies_falls_back_to_one(self, copies):
        def hook(ctx):
            ctx.copies = copies

        sim, network, sinks = hooked_network(hook)
        assert network.send_one("a", "b", "x", 64) is True
        sim.run_until_idle()
        assert len(sinks["b"].received) == 1
        assert sim.metrics.counter("net.send_verdict_rejected") == 1


class TestOneContextPerBurst:
    def test_verdicts_do_not_leak_between_receivers(self):
        seen = []

        def hook(ctx):
            # Every receiver starts from the no-perturbation verdict and the
            # burst's own payload, whatever the previous receiver's hooks did.
            seen.append(
                (ctx.receiver, ctx.payload, ctx.drop, ctx.extra_delay,
                 ctx.copies, ctx.corrupted, ctx.stop)
            )
            if ctx.receiver == "c":
                ctx.drop = True
                ctx.stop = True
            elif ctx.receiver == "d":
                ctx.copies = 2
                ctx.payload = "replaced"
            elif ctx.receiver == "e":
                ctx.corrupted = True

        sim, network, sinks = hooked_network(hook)
        assert network.send_many("a", ["b", "c", "d", "e"], "p", 64) == 3
        sim.run_until_idle()
        assert seen == [
            (name, "p", False, 0.0, 1, False, False) for name in "bcde"
        ]
        assert [payload for _, payload in sinks["b"].received] == ["p"]
        assert sinks["c"].received == []
        assert [payload for _, payload in sinks["d"].received] == ["replaced"] * 2
        (_, wrapped), = sinks["e"].received
        assert isinstance(wrapped, CorruptedPayload) and wrapped.inner == "p"
        assert sim.metrics.counter("net.messages_lost") == 1

    def test_stop_is_cleared_per_receiver(self):
        calls = []

        def first(ctx):
            calls.append(("first", ctx.receiver))
            ctx.stop = ctx.receiver == "b"

        second = Middleware()
        second.on_send = lambda ctx: calls.append(("second", ctx.receiver))
        sim, network, _ = hooked_network(first)
        network._middleware.add(second)
        network.send_many("a", ["b", "c"], "p", 64)
        assert calls == [("first", "b"), ("first", "c"), ("second", "c")]

    def test_one_context_constructed_per_burst_one_hook_call_per_message(
        self, monkeypatch
    ):
        contexts = []
        hook_calls = []

        class Counted(MiddlewareContext):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                contexts.append(self)

        monkeypatch.setattr("repro.net.network.MiddlewareContext", Counted)
        sim, network, _ = hooked_network(lambda ctx: hook_calls.append(id(ctx)))
        network.send_many("a", ["b", "c", "d", "e"], "p", 64)
        network.send_one("a", "b", "q", 64)
        assert len(contexts) == 2
        assert len(hook_calls) == 5
        assert len(set(hook_calls[:4])) == 1

    def test_a_hook_may_itself_send(self):
        def hook(ctx):
            if ctx.payload == "outer" and ctx.receiver == "c":
                network.send_one("a", "e", "inner", 64)

        sim, network, sinks = hooked_network(hook)
        network.send_many("a", ["b", "c", "d"], "outer", 64)
        sim.run_until_idle()
        assert [len(sinks[name].received) for name in "bcde"] == [1, 1, 1, 1]
        assert sim.metrics.counter("net.messages_delivered") == 4
        assert len(sim.queue) == 0


# ------------------------------------------------------ exception propagation


class Boom(Exception):
    pass


class TestHookExceptionsPropagate:
    """The pipeline never swallows a hook's exception."""

    def _exploding(self, hook_name):
        middleware = Middleware()
        setattr(
            middleware,
            hook_name,
            lambda ctx: (_ for _ in ()).throw(Boom(hook_name)),
        )
        return middleware

    def test_on_send_exception_propagates(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(self._exploding("on_send")))
        cluster.broadcast("n0", {"payload": 1})
        with pytest.raises(Boom):
            cluster.run_for(10.0)

    def test_on_deliver_exception_propagates(self):
        cluster = build_cluster()
        chain = MiddlewareChain()
        cluster.install_middleware(chain)
        chain.add(self._exploding("on_deliver"))
        cluster.broadcast("n0", {"payload": 1})
        with pytest.raises(Boom):
            cluster.run_for(10.0)

    def test_on_view_change_exception_propagates(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(self._exploding("on_view_change")))
        cluster.join("late-1", contact="n0")
        with pytest.raises(Boom):
            cluster.run_for(30.0)

    def test_on_eviction_exception_propagates(self):
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(self._exploding("on_eviction")))
        with pytest.raises(Boom):
            cluster._notify_eviction("n1")

    def test_on_timer_exception_propagates(self):
        exploding = self._exploding("on_timer")
        exploding.timer_period = 1.0
        cluster = build_cluster()
        cluster.install_middleware(MiddlewareChain(exploding))
        with pytest.raises(Boom):
            cluster.run_for(5.0)


# ------------------------------------------------- exactly-once eviction hook


class TestExactlyOnceEviction:
    def _evict_by_majority(self, cluster, victim):
        view = cluster.engine.group_of(victim)
        for member in view.members:
            if member != victim:
                cluster.request_eviction(victim, suspected_by=member)

    def test_majority_eviction_notifies_once(self):
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        victim = sorted(cluster.engine.node_group)[3]
        self._evict_by_majority(cluster, victim)
        evictions = [e for e in recorder.events if e[0] == "on_eviction"]
        assert evictions == [("on_eviction", "recorder", victim)]

    def test_merge_enforcement_duplicate_is_suppressed(self):
        """The split-merge regression: an identity evicted same-side during a
        split used to be re-announced by merge enforcement at heal."""
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        victim = sorted(cluster.engine.node_group)[3]
        self._evict_by_majority(cluster, victim)
        # Merge enforcement announcing the same identity again (the leave
        # may still be in flight at heal) must be suppressed, not re-fired.
        assert cluster._notify_eviction(victim) is False
        evictions = [e for e in recorder.events if e[0] == "on_eviction"]
        assert evictions == [("on_eviction", "recorder", victim)]
        assert cluster.sim.metrics.counter("cluster.eviction_duplicate_suppressed") == 1

    def test_failed_engine_leave_is_counted_and_notifies_once(self):
        cluster = build_cluster()
        recorder = Recorder()
        cluster.install_middleware(MiddlewareChain(recorder))
        victim = sorted(cluster.engine.node_group)[3]

        original_leave = cluster.engine.leave

        def failing_leave(node, eviction=False):
            raise MembershipError(f"injected leave failure for {node}")

        cluster.engine.leave = failing_leave
        try:
            self._evict_by_majority(cluster, victim)
        finally:
            cluster.engine.leave = original_leave
        assert cluster.sim.metrics.counter("cluster.eviction_leave_failed") == 1
        # The failed request is retryable (not wedged in _eviction_requests)...
        assert victim not in cluster._eviction_requests
        # ...but observers were notified exactly once for the identity.
        evictions = [e for e in recorder.events if e[0] == "on_eviction"]
        assert evictions == [("on_eviction", "recorder", victim)]


# --------------------------------------------------- golden-trace neutrality


class NoOp(Middleware):
    """Observes nothing, perturbs nothing — the empty-cost control."""


class TestGoldenTraceNeutrality:
    """Empty chains (and pure no-op middleware) keep goldens byte-identical."""

    def test_empty_chain_keeps_kernel_golden_trace(self):
        from test_golden_trace import GOLDEN_PATH, HORIZON, build_scenario

        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        cluster, _state = build_scenario()
        cluster.install_middleware(MiddlewareChain(NoOp()))
        trace = []
        cluster.sim.run(until=HORIZON, trace=trace)
        assert [[t, tag] for t, tag in trace] == golden["trace"]

    def test_noop_middleware_keeps_checkpointed_reconciliation_trace(self, monkeypatch):
        from test_partition_reconcile import run_reconcile

        _, _, _, baseline_trace = run_reconcile(SmrKind.ASYNC, checkpoint_interval=2)

        original = AtumCluster.attach_monitor

        def attach_and_pad(self, monitor):
            original(self, monitor)
            self.middleware_chain().add(NoOp())

        monkeypatch.setattr(AtumCluster, "attach_monitor", attach_and_pad)
        _, _, _, padded_trace = run_reconcile(SmrKind.ASYNC, checkpoint_interval=2)
        assert padded_trace == baseline_trace
