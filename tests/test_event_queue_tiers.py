"""Differential check of the kernel's two-tier queue against a sorted list.

:class:`repro.sim.events.EventQueue` keeps events due after its horizon in a
far heap and moves them to the near heap as the horizon passes them (the
module docstring).  Whatever ``NEAR_S`` is, the simulator must fire exactly
what an obviously-right queue fires: a list kept sorted by ``(time,
priority, seq)``.  Hypothesis generates the schedules -- pushes from the
top level and from callbacks, near and far delays, equal times and
priorities, cancellations, pushes straight onto the near heap past the
horizon (as :meth:`repro.net.network.Network.send_many` makes them), and
``run(until)`` slices, ``step``, ``peek_time``, ``max_events`` and
``trace`` -- and each runs on the
reference and on :class:`Simulator` with ``NEAR_S`` at 0, 1e-3, its default
and infinity.
"""

import heapq
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.middleware import Middleware, MiddlewareChain
from repro.net import FixedLatency, Network
from repro.sim import Simulator
from repro.sim import events as events_module
from repro.sim.events import Event
from repro.sim.actor import Actor

NEAR_VALUES = (0.0, 1e-3, events_module.NEAR_S, math.inf)


class ReferenceSim:
    """The obviously-right kernel: a list sorted by ``(time, priority, seq)``."""

    def __init__(self):
        self.now, self.processed_events, self._seq, self.entries = 0.0, 0, 0, []

    def schedule(self, delay, callback, priority=0, tag=None):
        entry = [self.now + delay, priority, self._seq, callback, tag]
        self._seq += 1
        self.entries = sorted(self.entries + [entry], key=lambda e: e[:3])
        return entry

    push_near = schedule

    def cancel(self, entry):
        self.entries.remove(entry)

    def peek_time(self):
        return self.entries[0][0] if self.entries else None

    def size(self):
        return len(self.entries)

    def step(self):
        before = self.processed_events
        self.run(max_events=1)
        return self.processed_events > before

    def run(self, until=None, max_events=None, trace=None):
        fired = 0
        while self.entries and (max_events is None or fired < max_events):
            if until is not None and self.entries[0][0] > until:
                self.now = until
                break
            time, _, _, callback, tag = self.entries.pop(0)
            self.now = time
            if trace is not None:
                trace.append((time, tag))
            callback()
            fired += 1
            self.processed_events += 1
        if until is not None and self.now < until and not self.entries:
            self.now = until
        return self.now


class KernelSim:
    """:class:`Simulator` behind the reference's interface."""

    def __init__(self):
        self.sim = Simulator()

    now = property(lambda self: self.sim.now)
    processed_events = property(lambda self: self.sim.processed_events)

    def schedule(self, delay, callback, priority=0, tag=None):
        return self.sim.schedule(delay, callback, priority, tag)

    def push_near(self, delay, callback, priority=0, tag=None):
        # What Network.send_many does: straight onto the near heap, whatever
        # the horizon, with the queue's counters advanced by hand.
        queue = self.sim.queue
        time, seq = self.sim.now + delay, queue._seq
        event = Event(time, priority, seq, callback, False, tag)
        heapq.heappush(queue._heap, (time, priority, seq, event))
        queue._seq, queue._live = seq + 1, queue._live + 1
        return event

    def cancel(self, event):
        self.sim.cancel(event)

    def size(self):
        return len(self.sim.queue)

    def peek_time(self):
        return self.sim.queue.peek_time()

    def step(self):
        return self.sim.step()

    def run(self, until=None, max_events=None, trace=None):
        return self.sim.run(until=until, max_events=max_events, trace=trace)


# Delays: equal values at one ``now`` give equal times; the spread straddles
# every NEAR_S under test (0, 1e-3, 1.0) so pushes land in both tiers.
delays = st.one_of(
    st.sampled_from([0.0, 1e-4, 1e-3, 0.002, 0.5, 1.0, 1.0005, 2.0, 7.5]),
    st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
)
priorities = st.sampled_from([-1, 0, 0, 1])
cancels = st.lists(st.integers(0, 40), max_size=2)
# (delay, priority, pushed straight onto the near heap, children, cancels)
events = st.recursive(
    st.tuples(delays, priorities, st.booleans(), st.just(()), cancels),
    lambda children: st.tuples(
        delays, priorities, st.booleans(), st.lists(children, max_size=3), cancels
    ),
    max_leaves=12,
)
drives = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=6.0, allow_nan=False)),
        st.tuples(st.just("trace"), st.floats(min_value=0.0, max_value=6.0, allow_nan=False)),
        st.tuples(st.just("max"), st.integers(0, 8)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("peek"), st.none()),
    ),
    max_size=12,
)


def play(sim, roots, program):
    """Run one schedule on ``sim``; return everything the two must agree on."""
    log, handles, done = [], [], set()

    def push(spec):
        delay, priority, near, children, cancels = spec
        index = len(handles)

        def fire():
            done.add(index)
            log.append((sim.now, index))
            for child in children:
                push(child)
            for target in cancels:
                if target < len(handles) and target not in done:
                    done.add(target)
                    sim.cancel(handles[target])

        schedule = sim.push_near if near else sim.schedule
        handles.append(schedule(delay, fire, priority, tag=f"e{index}"))

    for spec in roots:
        push(spec)
    readings = []
    for op, arg in program:
        if op == "run":
            reading = sim.run(until=sim.now + arg)
        elif op == "trace":
            trace = []
            sim.run(until=sim.now + arg, trace=trace)
            reading = trace
        elif op == "max":
            reading = sim.run(max_events=arg)
        elif op == "step":
            reading = sim.step()
        else:
            reading = sim.peek_time()
        readings.append((op, reading, sim.now, sim.size(), sim.processed_events))
    final = []
    sim.run(trace=final)
    return log, readings, final, sim.size(), sim.processed_events


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(roots=st.lists(events, min_size=1, max_size=10), program=drives)
def test_two_tiers_pop_what_a_sorted_list_pops(roots, program):
    expected = play(ReferenceSim(), roots, program)
    real_near = events_module.NEAR_S
    try:
        for near in NEAR_VALUES:
            events_module.NEAR_S = near
            assert play(KernelSim(), roots, program) == expected, f"NEAR_S={near}"
    finally:
        events_module.NEAR_S = real_near


class _Recorder(Actor):
    def __init__(self, sim, address, log):
        super().__init__(sim, address)
        self.log = log

    def on_message(self, payload, sender):
        self.log.append((self.sim.now, payload))


class _LongDelay(Middleware):
    def on_send(self, ctx):
        ctx.extra_delay = 50.0


def test_a_delivery_pushed_past_the_horizon_waits_for_an_earlier_far_timer():
    # Network.send_many pushes onto the near heap whatever the delivery's
    # time: here 50 s ahead, far past the horizon, while a timer due at 30 s
    # waits in the far heap.  The timer must still fire first.
    for traced in (False, True):
        sim = Simulator()
        network = Network(sim, latency_model=FixedLatency(0.01))
        network.install_middleware(MiddlewareChain(_LongDelay()))
        log = []
        network.register(_Recorder(sim, "b", log))
        sim.schedule(30.0, lambda: log.append((sim.now, "timer")))
        network.send_one("a", "b", "late", 100)
        (delivery,) = sim.queue._heap
        (timer,) = sim.queue._far
        assert delivery[0] > 50.0 > timer[0] > sim.queue._horizon
        sim.run(trace=[] if traced else None)
        assert [what for _, what in log] == ["timer", "late"]
        assert log[0][0] == 30.0 and log[1][0] > 50.0


class _Itself:
    """An event that is its own heap entry's event, as a Sync forward is."""

    cancelled = False
    tag = None

    def __init__(self, log):
        self.log = log

    def fire(self, entry):
        self.log.append(entry[0])


def test_an_event_pushed_itself_takes_a_timers_seq_and_tier():
    # The same pushes, once as timers and once as events pushed themselves:
    # the same (time, priority, seq) in the same heap, and the same firings.
    times = (0.5, 0.5, 3.0, 0.25, 3.0)
    runs = []
    for itself in (False, True):
        sim, log = Simulator(), []
        for time in times:
            if itself:
                sim.queue.push_event(time, _Itself(log))
            else:
                sim.schedule(time, lambda: log.append(sim.now))
        queue = sim.queue
        tiers = tuple(sorted(entry[:3] for entry in heap) for heap in (queue._heap, queue._far))
        trace = []
        sim.run(trace=trace)
        runs.append((tiers, trace, log, len(sim.queue)))
    assert runs[0] == runs[1]
    assert runs[0][0][1] == [(3.0, 0, 2), (3.0, 0, 4)]
