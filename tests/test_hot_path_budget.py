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

The sixth is a depth: the mean number of entries in the kernel's near heap
at each network delivery of ``pbft`` and ``ae_faults``, which every
delivery pops from.  A timer due more than ``NEAR_S`` past the next event
belongs in the far heap (:mod:`repro.sim.events`), so a far-future timer
back in the hot heap shows here as a count.

The seventh is a ratio of counts: the gossip forward plans ``flood`` and
``ae_faults`` build per forward.  A vgroup's members share one plan per
broadcast (:class:`repro.core.forward.ForwardPlan`), so it is about one over the
vgroup size.

The eighth is a count that must read 0: the forward state ``flood`` and
``ae_faults`` leave alive once they drain -- Sync forwards that never
settled and late-share sets the messengers still count into.  A settled
forward (:class:`repro.core.node.SyncForward`) keeps three fields until a
later boundary of its node retires it, and is not counted.

The ninth is the membership engine's count: Python calls per completed
membership operation (joins plus leaves) of ``churn``, a 100-node Sync
cluster without heartbeats re-joining 60 nodes a minute for a minute (the
``churn_hb`` benchmark workload's walks, relay charges, exchanges and view
installs, without its heartbeats).

Calls are counted per code object (``cProfile.Profile.getstats()``), never
through ``pstats``, whose ``(filename, line, name)`` keys collide for every
dataclass-generated ``__init__``.

Re-baselining.  Run ``PYTHONPATH=src python tests/test_hot_path_budget.py``:
it prints the measured calls per message, the hot-heap entries per delivery,
the tracked objects per message and the retained bytes per message or
delivery, and exits 1 if any row of any ceiling table printed no line.  A
call or hot-heap ceiling is the measured value plus ~10 %, a byte ceiling
plus ~15 %.  Lowering a ceiling after an optimisation is
free; *raising* one means the per-message floor went up, and needs a line in
CHANGES.md saying what the extra calls or bytes buy.
"""

import cProfile
import gc
import sys
import tracemalloc

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import MetricsTap, Middleware, MiddlewareChain
from repro.core.forward import ForwardPlan
from repro.crypto import digest as digest_module
from repro.crypto.digest import clear_digest_memo
from repro.faults.behaviours import apply_plan
from repro.faults.invariants import InvariantMonitor
from repro.faults.plan import FaultPlan, LinkFault, Partition
from repro.group.antientropy import AntiEntropyConfig
from repro.net import Network
from repro.net.network import _Deliveries
from repro.sim import Simulator
from repro.smr.checkpoint import CheckpointAnnounce
from repro.workloads.churn import ChurnConfig, ChurnWorkload

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
#: ``flood``, ``pbft`` and ``ae_faults`` fell from 16.56, 11.20 and 18.97 to
#: 11.23, 10.53 and 14.43 when crypto became once per value: a sealed
#: Dolev-Strong value, value-keyed statement digests and a MAC cache in the
#: registry, so a receiver no longer re-encodes and re-HMACs what its sender
#: already did.  ``flood`` and ``ae_faults`` fell to 10.53 and 14.06 when a
#: vgroup's gossip forward became one plan its members share: no per-member
#: target choice, ``sends_first`` or envelope, and no per-share own-view read,
#: digest or full-copy check.  They fell to 9.27 and 13.40 when a member's Sync
#: forward became one record that is its own kernel event: no timer, closure
#: or late-share registration call, and one retirement call per boundary that
#: retires anything.
CEILINGS = {"heartbeats": 0.6, "flood": 10.2, "pbft": 11.6, "ae_faults": 14.7}

#: Python-level calls per decided operation (``smr.decided``: one per replica
#: per decision), the ceiling that must fall when a protocol sends fewer
#: messages: measured 241.8 (340.5 while every replica announced its stable
#: checkpoint every 2 s whether or not anything had changed); 249.0 counted
#: per code object, 234.0 once crypto was paid once per value.
PBFT_DECIDED_CEILING = 257.5

#: Python-level calls per delivered broadcast (``atum.deliveries``: one per
#: node per broadcast), the gossip scenarios' ceiling that must fall when
#: dissemination sends fewer messages: measured 200.6 and 594.2 (210.3 and
#: 663.0 while a Sync forward sent to every target at the round boundary, and
#: 220.8 and 594.0 while it skipped only the first vgroup it had heard the
#: broadcast from; ``ae_faults`` moves with how many SMR re-proposals its loss
#: pattern happens to need -- 0, 4 and 0 of them in those three runs).
#: ``ae_faults`` fell from 594.2 to 440.7 when its summaries moved onto a
#: Trickle timer.  Counted per code object: 203.1 and 446.4; then 136.4 and
#: 337.6 once crypto was paid once per value; 128.0 and 328.8 once a vgroup's
#: members shared one forward plan; 112.7 and 313.5 once a Sync forward was one
#: record.
DELIVERY_CEILINGS = {"flood": 124.0, "ae_faults": 345.0}

#: Gossip forward plans built per forward (``atum.gossip_forwards``: one per
#: member that forwards).  The first member of a vgroup to forward a
#: broadcast builds the plan and its co-members read it, so the figure is
#: about 1/m for vgroups of m members: measured 0.175 (7 vgroups of 5.7
#: members, 4 broadcasts) and 0.221 (under loss and a partition, co-members
#: first accept a broadcast from different source vgroups, and each source
#: is a plan of its own; no plan was rebuilt).  A figure near 1 means every
#: member decides its forward alone again.
PLANS_PER_FORWARD_CEILINGS = {"flood": 0.19, "ae_faults": 0.24}

#: Bytes a run still holds per *additional* sent message, between a scenario
#: and the same scenario at ``RETAINED_SCALE`` times the broadcasts (heartbeats:
#: the horizon): measured 0.0 and 21.3 on CPython 3.11 (they were 32.5 and
#: 44.2 while a latency sample was a boxed float in a list; heartbeats were
#: 7.8 while each delivered copy left a latency sample).  A heartbeat keeps
#: nothing once its sender's next two bursts replace it, and 15 % of nothing
#: is no margin, so its ceiling is one byte.  ``pbft`` fell from 21.3 to 17.0
#: when the per-replica checkpoint-statement digests gave way to one
#: value-keyed memo.
RETAINED_CEILINGS = {"heartbeats": 1.0, "pbft": 19.6}

#: The gossip scenarios' bytes per *additional* delivered broadcast.  Per sent
#: message hides a saving: flood went from 53.0 to 66.8 bytes per message when
#: a Sync forward was staggered, because the messages that went away kept
#: nothing, while what a delivery leaves behind (mostly ``_delivered_gm_ids``)
#: shrank.  Measured 815.7 and 1089.6 (861.9 and 985.4 while a Sync forward
#: sent to every target at the round boundary; ``ae_faults`` moves with its
#: re-proposals -- 4 at 1x and 3 at 4x then, 0 and 4 now -- and keeps the
#: below-majority shares of the broadcasts whose forward ended last).
#: ``ae_faults`` fell to 1030.3 when its summaries moved onto a Trickle timer.
#: Both fell, from 812.7 and 1021.6 to 480.4 and 645.1, when statement tuples
#: stopped entering the identity memo (one entry per replica's copy) and went
#: to the value memo (one entry per statement).
RETAINED_DELIVERY_CEILINGS = {"flood": 552.5, "ae_faults": 742.0}
RETAINED_SCALE = 4

#: The scenarios whose forward state must be gone once they drain.
FORWARD_STATE_SCENARIOS = ("flood", "ae_faults")

#: Mean entries in the kernel's near heap (``EventQueue._heap``) at each
#: network delivery: the heap every delivery pops from, so its depth is what
#: each pop's sift costs.  Timers due more than ``NEAR_S`` past the next
#: event wait in the far heap: measured 55.4 and 131.7 (105.7 and 164.7
#: while every timer shared the one heap).
HOT_HEAP_CEILINGS = {"pbft": 61.0, "ae_faults": 144.8}

#: Python-level calls per completed membership operation of ``churn``:
#: measured 385.5 (659.3 while a walk built a ``BulkRng`` and an outcome and
#: made a ``pick`` call per hop, each relay charge was a ``randrange`` and a
#: ``_reserve_relay`` call, and an exchange built four views for two).
MEMBERSHIP_OP_CEILING = 424.1

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


def _churn():
    cluster = AtumCluster(_params(), seed=7)
    cluster.build_static([f"n{i}" for i in range(100)])
    config = ChurnConfig(rate_per_minute=60.0, duration=60.0)
    churn = ChurnWorkload(cluster.engine, config, join_fn=cluster.join)

    def timed():
        churn.run()
        cluster.run_until_membership_quiescent()

    return cluster, timed


def membership_op_calls():
    """``(Python calls per completed membership operation, operations)`` of ``churn``."""
    cluster, timed = _churn()
    profile = cProfile.Profile()
    profile.enable()
    try:
        timed()
    finally:
        profile.disable()
    counter = cluster.sim.metrics.counter
    operations = counter("membership.joins_completed") + counter("membership.leaves_completed")
    return python_calls(profile.getstats()) / operations, operations


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


def plans_per_forward(stats, cluster):
    """Forward plans built per gossip forward of one measured run."""
    code = ForwardPlan.__init__.__code__
    built = sum(entry.callcount for entry in stats if entry.code is code)
    return built / cluster.sim.metrics.counter("atum.gossip_forwards")


def forward_state_alive(cluster):
    """``(Sync forwards not settled + late-share sets still counted, settled
    forwards waiting for a boundary)`` over all nodes of a drained run."""
    alive = held = 0
    for node in cluster.nodes.values():
        for forward in node._forwards.values():
            if forward.settled is None:
                alive += 1
            else:
                held += 1
        alive += len(node.messenger.late_shares)
    return alive, held


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


def hot_heap_entries(name):
    """Mean ``len(queue._heap)`` at each network delivery of one scenario."""
    cluster, timed = SCENARIOS[name]()
    heap, sizes = cluster.sim.queue._heap, []
    fire = _Deliveries.fire

    def counted(deliveries, entry):
        sizes.append(len(heap))
        fire(deliveries, entry)

    _Deliveries.fire = counted
    try:
        timed()
    finally:
        _Deliveries.fire = fire
    return sum(sizes) / len(sizes)


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


def test_gossip_forward_plans_built_per_forward_stay_under_the_ceiling():
    for name, ceiling in PLANS_PER_FORWARD_CEILINGS.items():
        stats, _, _, cluster = measure(name)
        per_forward = plans_per_forward(stats, cluster)
        assert 0 < per_forward <= ceiling, (
            f"{name}: {per_forward:.3f} gossip forward plans built per forward "
            f"(ceiling {ceiling}) -- members no longer share their vgroup's plan"
        )


def test_no_forward_state_outlives_the_run():
    for name in FORWARD_STATE_SCENARIOS:
        cluster, timed = SCENARIOS[name]()
        timed()
        assert cluster.sim.metrics.counter("atum.forwards_deferred") > 0
        alive, _ = forward_state_alive(cluster)
        assert alive == 0, f"{name}: {alive} Sync forwards or late-share sets outlive the run"


def test_python_calls_per_membership_operation_stay_under_the_ceiling():
    per_operation, operations = membership_op_calls()
    assert operations > 100
    assert per_operation <= MEMBERSHIP_OP_CEILING, (
        f"churn: {per_operation:.1f} Python calls per completed membership operation, "
        f"ceiling {MEMBERSHIP_OP_CEILING} -- see this module's docstring before raising it"
    )


def test_hot_heap_entries_per_delivery_stay_under_the_ceiling():
    for name, ceiling in HOT_HEAP_CEILINGS.items():
        entries = hot_heap_entries(name)
        assert entries <= ceiling, (
            f"{name}: {entries:.1f} near-heap entries per delivery (ceiling {ceiling}) "
            f"-- a far-future timer is back in the hot heap"
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


def test_a_pbft_frame_is_routed_by_type_and_a_statement_is_hashed_once(monkeypatch):
    statements, real = [], digest_module._digest_encoded

    def counting(encoded):
        if encoded.startswith('["pbft-checkpoint"'):
            statements.append(encoded)
        return real(encoded)

    monkeypatch.setattr(digest_module, "_digest_encoded", counting)
    stats, _, delivered, _ = measure("pbft")
    assert delivered > 2000
    # One exact-type table per layer: what is left is the digest walk and the
    # payload check on each decided broadcast (11.3 per decided operation),
    # nothing per delivery (8.5 per delivered message through the three
    # chained routers).
    isinstance_calls = calls_of(stats, "~", "<built-in method builtins.isinstance>")
    assert isinstance_calls <= 12 * PBFT_MEMBERS * PBFT_BROADCASTS
    # Crypto is paid once per deployment, not once per replica: each of the
    # 64 // 8 checkpoint statements is canonically encoded once, though all
    # 10 replicas sign it and check the other 9 signatures over it, and each
    # signature's MAC is computed once, when it is made.
    assert len(statements) == len(set(statements)) == PBFT_BROADCASTS // PBFT_INTERVAL
    signatures = calls_of(stats, "crypto/keys.py", "sign")
    assert signatures == PBFT_MEMBERS * len(statements)
    assert calls_of(stats, "crypto/keys.py", "mac_of") == signatures
    assert calls_of(stats, "crypto/keys.py", "verify_digest") == (PBFT_MEMBERS - 1) * signatures


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


def expected_rows():
    """Every ``(ceiling table, scenario)`` the script must print a line for."""
    tables = {
        "CEILINGS": CEILINGS,
        "PBFT_DECIDED_CEILING": ("pbft",),
        "DELIVERY_CEILINGS": DELIVERY_CEILINGS,
        "PLANS_PER_FORWARD_CEILINGS": PLANS_PER_FORWARD_CEILINGS,
        "FORWARD_STATE_SCENARIOS": FORWARD_STATE_SCENARIOS,
        "HOT_HEAP_CEILINGS": HOT_HEAP_CEILINGS,
        "MEMBERSHIP_OP_CEILING": ("churn",),
        "heartbeat events": ("heartbeats",),
        "heartbeat reads": ("heartbeats",),
        "heartbeat send_many": ("heartbeats",),
        "in flight": ("send_many",),
        "RETAINED_CEILINGS": RETAINED_CEILINGS,
        "RETAINED_DELIVERY_CEILINGS": RETAINED_DELIVERY_CEILINGS,
    }
    return {(table, scenario) for table, scenarios in tables.items() for scenario in scenarios}


if __name__ == "__main__":
    printed = set()

    def row(table, scenario, line):
        print(line)
        printed.add((table, scenario))

    for scenario in SCENARIOS:
        scenario_stats, scenario_sent, _, scenario_cluster = measure(scenario)
        row(
            "CEILINGS", scenario,
            f"{scenario}: {python_calls(scenario_stats) / scenario_sent:.2f} Python calls "
            f"per sent message ({scenario_sent:.0f} sent, ceiling {CEILINGS[scenario]})",
        )
        if scenario == "pbft":
            decisions = scenario_cluster.sim.metrics.counter("smr.decided")
            row(
                "PBFT_DECIDED_CEILING", scenario,
                f"pbft: {python_calls(scenario_stats) / decisions:.1f} Python calls "
                f"per decided operation (ceiling {PBFT_DECIDED_CEILING})",
            )
        if scenario in DELIVERY_CEILINGS:
            deliveries = scenario_cluster.sim.metrics.counter("atum.deliveries")
            row(
                "DELIVERY_CEILINGS", scenario,
                f"{scenario}: {python_calls(scenario_stats) / deliveries:.1f} Python calls "
                f"per delivered broadcast (ceiling {DELIVERY_CEILINGS[scenario]})",
            )
        if scenario in PLANS_PER_FORWARD_CEILINGS:
            row(
                "PLANS_PER_FORWARD_CEILINGS", scenario,
                f"{scenario}: {plans_per_forward(scenario_stats, scenario_cluster):.3f} "
                f"gossip forward plans built per forward "
                f"(ceiling {PLANS_PER_FORWARD_CEILINGS[scenario]})",
            )
    for scenario in FORWARD_STATE_SCENARIOS:
        scenario_cluster, scenario_timed = SCENARIOS[scenario]()
        scenario_timed()
        alive, held = forward_state_alive(scenario_cluster)
        forwards = scenario_cluster.sim.metrics.counter("atum.gossip_forwards")
        row(
            "FORWARD_STATE_SCENARIOS", scenario,
            f"{scenario}: {alive} forward state alive after the run (unsettled Sync "
            f"forwards + counted late-share sets, of {forwards:.0f} forwards; {held} "
            f"settled forwards await a boundary; ceiling 0)",
        )
    for scenario, ceiling in HOT_HEAP_CEILINGS.items():
        row(
            "HOT_HEAP_CEILINGS", scenario,
            f"{scenario}: {hot_heap_entries(scenario):.1f} hot-heap entries per delivery "
            f"(mean len(EventQueue._heap) at each network delivery, ceiling {ceiling})",
        )
    per_operation, operations = membership_op_calls()
    row(
        "MEMBERSHIP_OP_CEILING", "churn",
        f"churn: {per_operation:.1f} Python calls per completed membership operation "
        f"({operations:.0f} joins and leaves, ceiling {MEMBERSHIP_OP_CEILING})",
    )
    events, periods, starts = heartbeat_events()
    row(
        "heartbeat events", "heartbeats",
        f"heartbeats: {events / periods:.2f} kernel events per heartbeat period "
        f"({events} events, {periods:.0f} periods, {starts} monitor starts; "
        f"ceiling 1 per period plus 1 per start)",
    )
    first, after = heartbeat_reads()
    row(
        "heartbeat reads", "heartbeats",
        f"heartbeats: {after} Network.heard calls after the first swept period "
        f"({first} in it; ceiling 0)",
    )
    heartbeat_stats, _, _, _ = measure("heartbeats")
    row(
        "heartbeat send_many", "heartbeats",
        f"heartbeats: {calls_of(heartbeat_stats, 'net/network.py', 'send_many'):.0f} "
        f"Network.send_many calls in a heartbeat-only run "
        f"({calls_of(heartbeat_stats, 'net/network.py', 'beat'):.0f} Network.beat; ceiling 0)",
    )
    row(
        "in flight", "send_many",
        f"in flight: {tracked_objects_in_flight(50) / 50:.2f} GC-tracked objects "
        f"per in-flight message (50-receiver send_many; the heap entry alone is 1)",
    )
    for scenario in SCENARIOS:
        if scenario in RETAINED_DELIVERY_CEILINGS:
            table, ceiling = "RETAINED_DELIVERY_CEILINGS", RETAINED_DELIVERY_CEILINGS
            per, what = "atum.deliveries", "delivered broadcast"
        else:
            table, ceiling = "RETAINED_CEILINGS", RETAINED_CEILINGS
            per, what = "net.messages_sent", "sent message"
        per_unit, small, large = marginal_retained_bytes(scenario, per)
        row(
            table, scenario,
            f"{scenario}: {per_unit:.1f} retained bytes per additional {what} "
            f"(1x -> {RETAINED_SCALE}x, ceiling {ceiling[scenario]})",
        )
        small, large = still_growing(small), still_growing(large)
        print(
            f"{scenario}: still growing, per node at 1x / {RETAINED_SCALE}x: "
            + ", ".join(f"{what} {small[what]:.1f} / {large[what]:.1f}" for what in small)
        )
    missing = sorted(expected_rows() - printed)
    if missing:
        print(f"no line printed for {missing}", file=sys.stderr)
        sys.exit(1)
