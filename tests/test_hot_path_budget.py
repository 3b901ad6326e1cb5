"""A deterministic budget for the per-message hot path.

Wall-clock numbers live in ``benchmarks/stack``; they need a quiet host and
ten pairs of runs.  This test guards the same floor with something a unit
test can assert: the number of Python-level function calls one sent message
costs, counted by ``cProfile`` on four tiny runs of the real ``AtumCluster``
(call *counts* only — no time is read, so the result is the same on any host
and under any ``PYTHONHASHSEED``).

* ``heartbeats``: a static 24-node cluster that does nothing but heartbeat
  (the traffic that is 86 % of the ``churn_hb`` benchmark workload's
  messages);
* ``flood``: four broadcasts flooded through a static 40-node cluster;
* ``pbft``: 64 broadcasts, 3 s apart, through one 10-member Async vgroup on
  the default WAN profile with a checkpoint every 8 decisions (the
  ``smr_pbft_1vg`` benchmark workload without its partition);
* ``ae_faults``: four broadcasts through a static 43-node cluster on the
  instrumented path -- link-fault injector, invariant monitor, metrics tap and
  anti-entropy repairing behind a partition, 5 % loss and a duplication
  window (the ``bcast_faults_ae`` benchmark workload at its smoke-test size).

Per sent message hides a protocol that sends fewer, cheaper-on-average
messages, so ``pbft`` is also held per *decided operation*, and ``flood`` and
``ae_faults`` per *delivered broadcast* (``atum.deliveries``) -- the ceilings
that must fall when a change sends less -- and ``pbft``'s checkpoint announces
must stay under 5 % of deliveries over 788 simulated seconds.

What neither ``cProfile`` nor ``timeit`` can see is the cyclic collector: its
pauses are billed to whoever allocated, and they grow with the number of
GC-tracked objects alive.  So the budget has a second line, also a count:
the GC-tracked objects one message in flight keeps alive (``gc.get_objects``
around one 50-receiver ``send_many`` with the collector off) -- exactly one,
its heap entry.

The third line is what a message leaves behind once it has been delivered:
``tracemalloc`` around each scenario at 1x and at 4x its broadcasts (its
horizon, for ``heartbeats``), and the difference in bytes still held divided by
the difference in messages sent -- *marginal* retained bytes per sent message,
so one-off costs (caches, the first resize of a table) cancel -- or, for
``flood`` and ``ae_faults``, in broadcasts delivered.  Bytes, not seconds: the
figure repeats to the tenth under any ``PYTHONHASHSEED`` and moves by under
3 % between CPython 3.10 and 3.13.  Beside it, ungated, the per-node ``len()``
of the structures nothing trims yet (ROADMAP item 7).

The fourth line is a count of kernel events: one ``heartbeats`` period is
one event, the clock's sweep, whatever the number of nodes (the ceiling
allows one more per monitor start, which may re-arm the clock).  The fifth
is a count of reads: once every monitor of a healthy static cluster has
beaten on one sweep, no tick calls ``Network.heard`` again.  Beside it, a
heartbeat-only run makes no ``Network.send_many`` call: a tick's send is
``Network.beat``.

Calls are counted per code object (``cProfile.Profile.getstats()``), never
through ``pstats``, whose ``(filename, line, name)`` keys collide for every
dataclass-generated ``__init__``.

Re-baselining.  Run ``PYTHONPATH=src python tests/test_hot_path_budget.py``:
it prints the measured calls per message, the tracked objects per message and
the retained bytes per message or delivery.  A call ceiling is the measured value plus
~10 %, a byte ceiling plus ~15 %.  Lowering a ceiling after an optimisation is
free; *raising* one means the per-message floor went up, and needs a line in
CHANGES.md saying what the extra calls or bytes buy.
"""

import cProfile
import gc
import tracemalloc

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MetricsTap, Middleware, MiddlewareChain
from repro.crypto.digest import clear_digest_memo
from repro.faults.behaviours import apply_plan
from repro.faults.invariants import InvariantMonitor
from repro.faults.plan import FaultPlan, LinkFault, Partition
from repro.group.antientropy import AntiEntropyConfig
from repro.net import Network
from repro.sim import Simulator
from repro.smr.checkpoint import CheckpointAnnounce

#: Python-level calls per sent message: measured 4.80, 12.11, 9.56 and 15.70
#: (they were 10.40 and 15.94 before the draw moved into ``send_many``, a
#: delivery became a tuple and the heartbeat tick became one scan; 12.13 before
#: PBFT routed a frame once, derived quorums once and hashed a statement once;
#: 12.99 and 22.05 before a fan-out was shuffled inline and the fault path
#: selected its rules once per burst and sent a tick's summaries as one burst;
#: 4.60, 12.03, 9.53 and 15.47 before the loop fired an event with its heap
#: entry -- one ``Event.fire`` frame per *timer* event, which is what lets a
#: message in flight be its entry and nothing else).  ``pbft`` rose from 9.53 to
#: 10.87 when the checkpoint announce became a Trickle timer: total calls fell
#: 29 %, but the 960 announces it no longer sends were its cheapest frames.
#: ``flood`` rose from 11.97 to 12.87 for the same reason when a Sync forward
#: began to skip a later source vgroup whose every member had sent it a share:
#: 11 % fewer messages, and the gossip shares that went were the cheapest to
#: send and receive.  ``ae_faults`` rose from 15.64 to 17.72 with it: 1.5 %
#: fewer messages, and a loss pattern that now leaves one partitioned member
#: to an intra-group repair -- 4 SMR re-proposals, 24 more decisions (over
#: cluster seeds 1-8 the scenario makes 0-8 re-proposals either way).
#: ``flood`` rose again, to 16.51, when a Sync forward began to send to half
#: its targets a few milliseconds after the boundary: 26 % fewer messages,
#: again the cheapest, for 5 % fewer calls (``ae_faults``: 16.58, without the
#: re-proposals).  Per delivered broadcast both fell (below).  ``ae_faults``
#: rose to 18.84 when anti-entropy summaries moved onto a Trickle timer: 35 %
#: fewer messages -- 2,580 summaries became 584 plus 12 replies, again the
#: cheapest frames -- for 26 % fewer calls.  Every figure above was read
#: through ``pstats``, which drops all but one dataclass ``__init__``; summed
#: per code object the same tree reads 4.80, 16.72, 11.20 and 19.08 (pstats:
#: 4.80, 16.51, 10.96 and 18.83), and the ceilings are those plus ~10 %.
#: ``heartbeats`` then fell to 2.61 when a heartbeat copy stopped being a
#: kernel event: no heap entry, ``fire``, ``on_message`` or ``observe`` per
#: copy, one batch read per tick.  It rose to 4.50 when a tick's send became
#: one burst its peers read: the per-copy draw, downlink update, arrival
#: record, sort and bisect ran inline, where ``cProfile`` counts no call, and
#: are gone; what replaced them is one ``Network.heard`` and one
#: ``median_latency`` call per peer a tick reads.  More calls, less time: the
#: scenario's timed region fell from 10.4 to 4.5-6.0 ms (median of 7 runs,
#: CPython 3.11 on 2 cores).  It fell to 3.74 when one clock sweep per period
#: replaced a tick event per node: no ``fire`` and no re-arm per tick.  It fell
#: to 1.13 when a tick whose vgroup all beat regularly on the last sweep
#: stopped reading its peers: no ``heard`` or ``median_latency`` call after
#: the first swept period, and no ``VGroupView.__len__`` in the peer lookup.
#: It fell to 0.54 when a tick's send became ``Network.beat``: no keyword
#: ``partial`` into ``send_many``, no ``_keep_burst`` or burst-listener call
#: and no ``peers_fn`` per tick; the tick tallies the burst ``beat`` returns.
CEILINGS = {"heartbeats": 0.6, "flood": 18.4, "pbft": 12.3, "ae_faults": 21.0}

#: Python-level calls per decided operation (``smr.decided``: one per replica
#: per decision), the ceiling that must fall when a protocol sends fewer
#: messages: measured 241.8 (340.5 while every replica announced its stable
#: checkpoint every 2 s whether or not anything had changed); 249.0 counted
#: per code object.
PBFT_DECIDED_CEILING = 274.0

#: Python-level calls per delivered broadcast (``atum.deliveries``: one per
#: node per broadcast), the gossip scenarios' ceiling that must fall when
#: dissemination sends fewer messages: measured 200.6 and 594.2 (210.3 and
#: 663.0 while a Sync forward sent to every target at the round boundary, and
#: 220.8 and 594.0 while it skipped only the first vgroup it had heard the
#: broadcast from; ``ae_faults`` moves with how many SMR re-proposals its loss
#: pattern happens to need -- 0, 4 and 0 of them in those three runs).
#: ``ae_faults`` fell from 594.2 to 440.7 when its summaries moved onto a
#: Trickle timer.  Counted per code object: 203.1 and 446.4.
DELIVERY_CEILINGS = {"flood": 223.5, "ae_faults": 491.0}

#: Bytes a run still holds per *additional* sent message, between a scenario
#: and the same scenario at ``RETAINED_SCALE`` times the broadcasts (heartbeats:
#: the horizon): measured 0.0 and 21.3 on CPython 3.11 (they were 32.5 and
#: 44.2 while a latency sample was a boxed float in a list; heartbeats were
#: 7.8 while each delivered copy left a latency sample).  A heartbeat keeps
#: nothing once its sender's next two bursts replace it, and 15 % of nothing
#: is no margin, so its ceiling is one byte.
RETAINED_CEILINGS = {"heartbeats": 1.0, "pbft": 23.0}

#: The gossip scenarios' bytes per *additional* delivered broadcast.  Per sent
#: message hides a saving: flood went from 53.0 to 66.8 bytes per message when
#: a Sync forward was staggered, because the messages that went away kept
#: nothing, while what a delivery leaves behind (mostly ``_delivered_gm_ids``)
#: shrank.  Measured 815.7 and 1089.6 (861.9 and 985.4 while a Sync forward
#: sent to every target at the round boundary; ``ae_faults`` moves with its
#: re-proposals -- 4 at 1x and 3 at 4x then, 0 and 4 now -- and keeps the
#: below-majority shares of the broadcasts whose forward ended last).
#: ``ae_faults`` fell to 1030.3 when its summaries moved onto a Trickle timer.
RETAINED_DELIVERY_CEILINGS = {"flood": 938.0, "ae_faults": 1185.0}
RETAINED_SCALE = 4

PBFT_MEMBERS, PBFT_INTERVAL, PBFT_BROADCASTS = 10, 8, 64


def _params(**overrides):
    return AtumParameters(hc=3, rwl=6, gmin=4, gmax=8, round_duration=0.5, **overrides)


def _heartbeats(scale=1):
    cluster = AtumCluster(_params(heartbeat_period=1.0), seed=5, enable_heartbeats=True)
    cluster.build_static([f"n{i}" for i in range(24)])
    return cluster, lambda: cluster.run_for(30.0 * scale)


def _flood(scale=1):
    cluster = AtumCluster(_params(), seed=5)
    cluster.build_static([f"n{i}" for i in range(40)])
    for index in range(4 * scale):
        cluster.sim.schedule_at(
            0.3 + 0.7 * index, lambda i=index: cluster.broadcast(f"n{i}", i)
        )
    return cluster, lambda: cluster.run(until=20.0 + 2.8 * (scale - 1))


def _pbft(scale=1):
    params = AtumParameters(
        hc=2, rwl=4, gmin=5, gmax=26, smr_kind=SmrKind.ASYNC,
        checkpoint_interval=PBFT_INTERVAL,
    )
    cluster = AtumCluster(params, seed=5)
    addresses = [f"n{i}" for i in range(PBFT_MEMBERS)]
    cluster.build_static(addresses)
    for index in range(PBFT_BROADCASTS * scale):
        origin = addresses[index % PBFT_MEMBERS]
        cluster.sim.schedule_at(
            3.0 * index, lambda o=origin, i=index: cluster.broadcast(o, i)
        )
    return cluster, lambda: cluster.run(until=3.0 * PBFT_BROADCASTS * scale + 20.0)


def _ae_faults(scale=1):
    cluster = AtumCluster(_params(), seed=5, antientropy=AntiEntropyConfig())
    monitor = InvariantMonitor()
    cluster.attach_monitor(monitor)
    cluster.middleware_chain().add(MetricsTap())
    addresses = [f"n{i}" for i in range(43)]
    cluster.build_static(addresses)
    plan = FaultPlan(
        partitions=(Partition(tuple(addresses[::15]), start=0.6, heal_at=6.0),),
        links=(LinkFault(loss=0.05), LinkFault(duplicate=0.1, start=2.0, stop=8.0)),
    )
    apply_plan(cluster, plan, monitor=monitor)
    for index in range(4 * scale):
        cluster.sim.schedule_at(
            0.3 + 0.7 * index, lambda i=index: cluster.broadcast(f"n{i + 1}", i)
        )
    return cluster, lambda: cluster.run(until=30.0 + 2.8 * (scale - 1))


SCENARIOS = {"heartbeats": _heartbeats, "flood": _flood, "pbft": _pbft, "ae_faults": _ae_faults}


def measure(name):
    """Profile one scenario: ``(stats, messages sent, messages delivered, cluster)``.

    ``stats`` is ``cProfile.Profile.getstats()``: one entry per code object.
    ``pstats`` would key them by ``(filename, line, name)``, under which every
    dataclass-generated ``__init__`` is ``("<string>", 2, "__init__")`` and
    one class's count overwrites the others'.
    """
    cluster, timed = SCENARIOS[name]()
    counter = cluster.sim.metrics.counter
    sent, delivered = counter("net.messages_sent"), counter("net.messages_delivered")
    profile = cProfile.Profile()
    profile.enable()
    try:
        timed()
    finally:
        profile.disable()
    return (
        profile.getstats(),
        counter("net.messages_sent") - sent,
        counter("net.messages_delivered") - delivered,
        cluster,
    )


def _where(code):
    """``(filename, name)`` of a profiled function; builtins are filed under ``~``."""
    if isinstance(code, str):
        return "~", code
    return code.co_filename, code.co_name


def _is(code, file_suffix, function):
    filename, name = _where(code)
    return name == function and filename.endswith(file_suffix)


def python_calls(stats):
    """Calls of functions written in Python, summed over their code objects."""
    return sum(entry.callcount for entry in stats if not isinstance(entry.code, str))


def calls_of(stats, file_suffix, function):
    return sum(entry.callcount for entry in stats if _is(entry.code, file_suffix, function))


def calls_from(stats, file_suffix, function, caller):
    """Non-recursive calls of ``function`` made directly by a function named ``caller``."""
    return sum(
        sub.callcount - sub.reccallcount
        for entry in stats
        if _where(entry.code)[1] == caller
        for sub in entry.calls or ()
        if _is(sub.code, file_suffix, function)
    )


def retained(name, scale):
    """One traced run: ``(bytes the run kept, cluster)``.

    ``tracemalloc`` is on from before the cluster is built, so a container
    that existed at the start and grew is charged its growth, not its size;
    the digest memo starts empty, so what an earlier run left in it is not.
    """
    clear_digest_memo()
    tracemalloc.start()
    try:
        cluster, timed = SCENARIOS[name](scale)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        timed()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, cluster


def marginal_retained_bytes(name, per="net.messages_sent"):
    """Bytes kept per *additional* count of the counter ``per``, and the two
    clusters."""
    kept_1, cluster_1 = retained(name, 1)
    kept_n, cluster_n = retained(name, RETAINED_SCALE)
    grown = cluster_n.sim.metrics.counter(per) - cluster_1.sim.metrics.counter(per)
    return (kept_n - kept_1) / grown, cluster_1, cluster_n


def still_growing(cluster):
    """Mean per-node ``len()`` of the structures nothing ever trims."""
    nodes = list(cluster.nodes.values())
    sizes = {
        "_delivered_gm_ids": lambda node: len(node.messenger._delivered_gm_ids),
        "delivered": lambda node: len(node.delivered),
        "delivered_order": lambda node: len(node.delivered_order),
        "pending_count()": lambda node: node.messenger.pending_count(),
    }
    return {what: sum(map(size, nodes)) / len(nodes) for what, size in sizes.items()}


def test_python_calls_per_sent_message_stay_under_the_ceiling():
    for name, ceiling in CEILINGS.items():
        stats, sent, _, _ = measure(name)
        assert sent > 1500
        per_message = python_calls(stats) / sent
        assert per_message <= ceiling, (
            f"{name}: {per_message:.2f} Python calls per sent message, ceiling "
            f"{ceiling} -- see this module's docstring before raising it"
        )


def test_python_calls_per_decided_pbft_operation_stay_under_the_ceiling():
    stats, _, _, cluster = measure("pbft")
    decided = cluster.sim.metrics.counter("smr.decided")
    assert decided == PBFT_MEMBERS * PBFT_BROADCASTS
    per_decision = python_calls(stats) / decided
    assert per_decision <= PBFT_DECIDED_CEILING, (
        f"pbft: {per_decision:.1f} Python calls per decided operation, ceiling "
        f"{PBFT_DECIDED_CEILING} -- see this module's docstring before raising it"
    )


def test_python_calls_per_delivered_broadcast_stay_under_the_ceiling():
    for name, ceiling in DELIVERY_CEILINGS.items():
        stats, _, _, cluster = measure(name)
        deliveries = cluster.sim.metrics.counter("atum.deliveries")
        broadcasts = cluster.sim.metrics.counter("atum.broadcasts_started")
        assert deliveries == len(cluster.nodes) * broadcasts
        per_delivery = python_calls(stats) / deliveries
        assert per_delivery <= ceiling, (
            f"{name}: {per_delivery:.1f} Python calls per delivered broadcast, "
            f"ceiling {ceiling} -- see this module's docstring before raising it"
        )


def test_checkpoint_announces_stay_a_small_share_of_pbft_deliveries():
    # The ``pbft`` scenario stretched to 788 simulated seconds: a group that
    # agrees backs its announce interval off to 16 periods, so announces are
    # a few per cent of deliveries instead of the 39 % they were when every
    # replica re-broadcast every period whether or not anything had changed.
    cluster, timed = _pbft(scale=4)
    announces = []
    for node in cluster.nodes.values():
        handlers = node.replica._handlers

        def counted(message, sender, handler=handlers[CheckpointAnnounce]):
            announces.append(sender)
            handler(message, sender)

        handlers[CheckpointAnnounce] = counted
    timed()
    assert cluster.sim.now >= 600.0
    delivered = cluster.sim.metrics.counter("net.messages_delivered")
    assert len(announces) / delivered < 0.05


def test_retained_bytes_per_additional_sent_message_stay_under_the_ceiling():
    for name, ceiling in RETAINED_CEILINGS.items():
        per_message, _, _ = marginal_retained_bytes(name)
        assert per_message <= ceiling, (
            f"{name}: {per_message:.1f} retained bytes per additional sent "
            f"message, ceiling {ceiling} -- something new outlives its message"
        )


def test_retained_bytes_per_additional_delivered_broadcast_stay_under_the_ceiling():
    for name, ceiling in RETAINED_DELIVERY_CEILINGS.items():
        per_delivery, _, _ = marginal_retained_bytes(name, per="atum.deliveries")
        assert per_delivery <= ceiling, (
            f"{name}: {per_delivery:.1f} retained bytes per additional delivered "
            f"broadcast, ceiling {ceiling} -- something new outlives its message"
        )


def test_a_heartbeat_is_no_event_no_draw_and_no_loop():
    cluster, timed = _heartbeats()
    network, sim = cluster.network, cluster.sim
    state = network._rng.getstate()
    processed = sim.processed_events
    profile = cProfile.Profile()
    profile.enable()
    timed()
    profile.disable()
    stats = profile.getstats()
    counter = sim.metrics.counter
    assert counter("net.messages_delivered") == counter("net.messages_sent") > 3600
    # 0 kernel events per heartbeat, and one per period: every event the run
    # fires is the clock's sweep, which ticks all 24 monitors.
    periods = round(30.0 / cluster.params.heartbeat_period)
    assert sim.processed_events - processed == periods
    assert calls_of(stats, "group/heartbeat.py", "_tick") == len(cluster.nodes) * periods
    assert calls_of(stats, "net/network.py", "fire") == 0
    # 0 RNG draws: the network's stream is where it was, and no copy took
    # downlink time or left a latency sample.
    assert network._rng.getstate() == state
    assert network._downlink_free_at == {}
    assert list(sim.metrics.histogram("net.delivery_latency").samples) == []
    # 0 routing-loop iterations: each burst's receivers are its sender's
    # peer tuple itself, not a list the loop built, and no heartbeat went
    # through the message router.
    for address, node in cluster.nodes.items():
        assert network._bursts[address][0][1] is node.heartbeats._others
    assert calls_of(stats, "net/network.py", "send_many") == 0
    # 0 reads after the first swept period: every vgroup beat regularly on
    # the sweep before, so every tick knows what its peers' bursts say.
    first, after = heartbeat_reads()
    assert first == sum(len(node.heartbeats._others) for node in cluster.nodes.values())
    assert after == 0


def heartbeat_reads():
    """``Network.heard`` calls of one ``heartbeats`` run: ``(in the first
    swept period, after it)``."""
    cluster, _ = _heartbeats()
    period = cluster.params.heartbeat_period
    counts = []
    for until in (period, 30.0 * period):
        profile = cProfile.Profile()
        profile.enable()
        cluster.run(until=until)
        profile.disable()
        counts.append(calls_of(profile.getstats(), "net/network.py", "heard"))
    return tuple(counts)


def heartbeat_events():
    """``(kernel events, heartbeat periods, monitor starts)`` of one
    ``heartbeats`` run, counted from before the cluster is built."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        cluster, timed = _heartbeats()
        timed()
    finally:
        profile.disable()
    starts = calls_of(profile.getstats(), "group/heartbeat.py", "start")
    periods = cluster.sim.now / cluster.params.heartbeat_period
    return cluster.sim.processed_events, periods, starts


def test_kernel_events_per_heartbeat_period_stay_under_the_ceiling():
    # One clock sweep per period whatever the number of nodes, plus at most
    # one re-arm per monitor start.
    events, periods, starts = heartbeat_events()
    assert starts == 24
    assert events <= periods + starts, (
        f"heartbeats: {events} kernel events over {periods:.0f} periods and "
        f"{starts} monitor starts -- a heartbeat period is one event"
    )


def test_a_pbft_frame_is_routed_by_type_and_a_statement_is_hashed_once():
    stats, _, delivered, _ = measure("pbft")
    assert delivered > 2000
    # One exact-type table per layer: what is left is the digest walk and the
    # payload check on each decided broadcast (11.3 per decided operation),
    # nothing per delivery (8.5 per delivered message through the three
    # chained routers).
    isinstance_calls = calls_of(stats, "~", "<built-in method builtins.isinstance>")
    assert isinstance_calls <= 12 * PBFT_MEMBERS * PBFT_BROADCASTS
    # Verifying a checkpoint vote or certificate never re-encodes the signed
    # statement per signature (``registry.verify``): each replica hashes each
    # of the 64 // 8 statements once -- one ``digest_object`` call from
    # ``_signs_checkpoint`` -- and every signature over it is one
    # ``verify_digest``.
    assert calls_of(stats, "crypto/keys.py", "verify") == 0
    statements = PBFT_MEMBERS * (PBFT_BROADCASTS // PBFT_INTERVAL)
    hashed = calls_from(stats, "crypto/digest.py", "digest_object", "_signs_checkpoint")
    assert 0 < hashed <= statements
    assert calls_of(stats, "crypto/keys.py", "verify_digest") == (PBFT_MEMBERS - 1) * statements


def test_the_fault_path_decides_per_burst_and_sends_a_tick_as_one_burst():
    stats, sent, delivered, cluster = measure("ae_faults")
    counter = cluster.sim.metrics.counter
    # Enough traffic besides anti-entropy's summaries, whose number follows
    # its Trickle timer: gossip shares, SMR frames, pulls and repairs.
    assert sent - counter("ae.summaries_sent") > 3000
    assert cluster.monitor.violations == []
    # Which rules apply is decided per burst; nothing asks a rule per message,
    # and every message that got past the partition check ran the injector once.
    assert calls_of(stats, "faults/plan.py", "matches") == 0
    fired = calls_of(stats, "net/network.py", "fire")
    cut_in_flight = fired - delivered - counter("net.messages_undeliverable")
    cut_at_send = counter("net.messages_partitioned") - cut_in_flight
    assert cut_at_send > 0
    assert calls_of(stats, "faults/injector.py", "on_send") == sent - cut_at_send
    # A fan-out is shuffled inline and a tick's summaries are one burst: every
    # routing-loop set-up is a gossip fan-out, an SMR multicast or a direct
    # burst, and anti-entropy makes at most one direct burst per tick beyond
    # its replies, single pulls and hint fan-outs.
    assert calls_of(stats, "random.py", "shuffle") == 0
    bursts = calls_of(stats, "net/network.py", "send_fanout") + calls_of(
        stats, "core/node.py", "_send_smr"
    )
    direct = calls_of(stats, "core/node.py", "send_direct_many")
    assert calls_of(stats, "net/network.py", "send_many") <= bursts + direct
    ticks = calls_of(stats, "group/antientropy.py", "_tick")
    repairs = calls_of(stats, "core/node.py", "send_direct") + counter("ae.shares_resent")
    assert 0 < ticks <= direct <= ticks + counter("ae.summary_replies") + repairs


class _Copies(Middleware):
    """An ``on_send`` hook whose verdict is ``copies`` per message (1: pass-through)."""

    def __init__(self, copies):
        self.copies = copies

    def on_send(self, ctx):
        ctx.copies = self.copies


def tracked_objects_in_flight(receivers=50, copies=None):
    """GC-tracked objects one ``send_many`` burst leaves alive, on a bare network."""
    network = Network(Simulator(seed=5))
    if copies is not None:
        network.install_middleware(MiddlewareChain(_Copies(copies)))
    addresses = tuple(f"n{i}" for i in range(receivers))
    network.send_many("origin", addresses, "warm-up", 100)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        network.send_many("origin", addresses, "payload", 100)
        return len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()


def test_a_message_in_flight_is_one_gc_tracked_object():
    # The heap entry, and nothing it points to that the sender did not
    # already hold: 50 copies in flight are 50 tracked objects, hooked or not.
    assert tracked_objects_in_flight(50) == 50
    assert tracked_objects_in_flight(50, copies=1) == 50
    assert tracked_objects_in_flight(50, copies=2) == 100


if __name__ == "__main__":
    for scenario in SCENARIOS:
        scenario_stats, scenario_sent, _, scenario_cluster = measure(scenario)
        print(
            f"{scenario}: {python_calls(scenario_stats) / scenario_sent:.2f} Python calls "
            f"per sent message ({scenario_sent:.0f} sent, ceiling {CEILINGS[scenario]})"
        )
        if scenario == "pbft":
            decisions = scenario_cluster.sim.metrics.counter("smr.decided")
            print(
                f"pbft: {python_calls(scenario_stats) / decisions:.1f} Python calls "
                f"per decided operation (ceiling {PBFT_DECIDED_CEILING})"
            )
        if scenario in DELIVERY_CEILINGS:
            deliveries = scenario_cluster.sim.metrics.counter("atum.deliveries")
            print(
                f"{scenario}: {python_calls(scenario_stats) / deliveries:.1f} Python calls "
                f"per delivered broadcast (ceiling {DELIVERY_CEILINGS[scenario]})"
            )
    events, periods, starts = heartbeat_events()
    print(
        f"heartbeats: {events / periods:.2f} kernel events per heartbeat period "
        f"({events} events, {periods:.0f} periods, {starts} monitor starts; "
        f"ceiling 1 per period plus 1 per start)"
    )
    first, after = heartbeat_reads()
    print(
        f"heartbeats: {after} Network.heard calls after the first swept period "
        f"({first} in it; ceiling 0)"
    )
    heartbeat_stats, _, _, _ = measure("heartbeats")
    print(
        f"heartbeats: {calls_of(heartbeat_stats, 'net/network.py', 'send_many'):.0f} "
        f"Network.send_many calls in a heartbeat-only run "
        f"({calls_of(heartbeat_stats, 'net/network.py', 'beat'):.0f} Network.beat; ceiling 0)"
    )
    print(
        f"in flight: {tracked_objects_in_flight(50) / 50:.2f} GC-tracked objects "
        f"per in-flight message (50-receiver send_many; the heap entry alone is 1)"
    )
    for scenario in SCENARIOS:
        if scenario in RETAINED_DELIVERY_CEILINGS:
            per, what, ceiling = "atum.deliveries", "delivered broadcast", RETAINED_DELIVERY_CEILINGS
        else:
            per, what, ceiling = "net.messages_sent", "sent message", RETAINED_CEILINGS
        per_unit, small, large = marginal_retained_bytes(scenario, per)
        print(
            f"{scenario}: {per_unit:.1f} retained bytes per additional {what} "
            f"(1x -> {RETAINED_SCALE}x, ceiling {ceiling[scenario]})"
        )
        small, large = still_growing(small), still_growing(large)
        print(
            f"{scenario}: still growing, per node at 1x / {RETAINED_SCALE}x: "
            + ", ".join(f"{what} {small[what]:.1f} / {large[what]:.1f}" for what in small)
        )
