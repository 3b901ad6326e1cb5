"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while True:
            entry = queue.pop_entry()
            if entry is None:
                break
            entry[3].fire(entry)
        assert fired == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for name in ["first", "second", "third"]:
            queue.push(1.0, lambda n=name: fired.append(n))
        while (entry := queue.pop_entry()) is not None:
            entry[3].fire(entry)
        assert fired == ["first", "second", "third"]

    def test_priority_beats_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("low"), priority=5)
        queue.push(1.0, lambda: fired.append("high"), priority=0)
        while (entry := queue.pop_entry()) is not None:
            entry[3].fire(entry)
        assert fired == ["high", "low"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append("x"))
        queue.push(2.0, lambda: fired.append("y"))
        event.cancel()
        queue.notify_cancelled()
        while (popped := queue.pop_entry()) is not None:
            popped[3].fire(popped)
        assert fired == ["y"]

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.pop_entry()
        assert len(queue) == 1


class TestSimulator:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nan_times_are_rejected_before_they_corrupt_the_heap_order(self):
        # NaN compares false with everything: ``delay < 0`` let it through and
        # the heap then fired 0.1 after 0.5 -- the clock ran backwards.
        sim = Simulator()
        fired = []
        for delay in (1.0, float("nan"), 0.5, 2.0, 0.1):
            try:
                sim.schedule(delay, lambda d=delay: fired.append((d, sim.now)))
            except SimulationError:
                assert delay != delay
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        sim.run()
        assert fired == [(0.1, 0.1), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]
        assert len(sim.queue) == 0

    def test_run_until_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_a_past_horizon_is_rejected_and_the_clock_stays(self):
        # run(until=5) at now=12 used to set now to 5: a 1 s timer scheduled
        # next fired at 6.0, after the event at 10.0 had already run.
        sim = Simulator()
        fired = []
        for at in (10.0, 20.0):
            sim.schedule_at(at, lambda t=at: fired.append((t, sim.now)))
        sim.run(until=12.0)
        for until in (5.0, float("nan")):
            with pytest.raises(SimulationError):
                sim.run(until=until)
            with pytest.raises(SimulationError):
                sim.run(until=until, trace=[])
        assert sim.now == 12.0
        sim.schedule(1.0, lambda: fired.append(("timer", sim.now)))
        sim.run(until=12.0)  # a horizon at now is no rewind
        sim.run()
        assert fired == [(10.0, 10.0), ("timer", 13.0), (20.0, 20.0)]
        empty = Simulator()
        empty.run(until=3.0)
        with pytest.raises(SimulationError):
            empty.run(until=1.0)
        assert empty.now == 3.0

    def test_nested_scheduling_from_callbacks(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(0.5, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 1.5)]

    def test_cancel_scheduled_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_max_events_limit(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        sim.run(max_events=10)
        assert sim.processed_events == 10

    def test_deterministic_rng_streams(self):
        sim_a = Simulator(seed=42)
        sim_b = Simulator(seed=42)
        values_a = [sim_a.rng.stream("x").random() for _ in range(5)]
        values_b = [sim_b.rng.stream("x").random() for _ in range(5)]
        assert values_a == values_b

    def test_distinct_streams_are_independent(self):
        sim = Simulator(seed=42)
        a = [sim.rng.stream("a").random() for _ in range(3)]
        b = [sim.rng.stream("b").random() for _ in range(3)]
        assert a != b
