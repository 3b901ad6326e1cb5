"""The simulation event loop and clock.

Everything that happens at a simulated time is an event the loop pops
(:mod:`repro.sim.events`), except a heartbeat: its receivers read it when
they tick (:meth:`repro.net.network.Network.heard`).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from math import inf
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RngRegistry


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns the simulated clock, the event queue, the registry of
    random streams and the metrics registry.  All protocol components hold a
    reference to a single ``Simulator`` and interact with simulated time only
    through it.

    Typical usage::

        sim = Simulator(seed=7)
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()
    """

    def __init__(self, seed: int = 0) -> None:
        self.queue = EventQueue()
        self.rng = RngRegistry(seed)
        self.metrics = MetricsRegistry()
        self._now = 0.0
        self._processed = 0
        self._running = False
        self._serials: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events processed so far."""
        return self._processed

    def next_serial(self, name: str) -> int:
        """Next value (1, 2, ...) of this run's counter ``name``.

        Identifiers minted from it depend on this run alone, never on what
        other simulations the process ran before (a module-level counter
        would leak across runs).
        """
        self._serials[name] += 1
        return self._serials[name]

    # -------------------------------------------------------------- scheduling

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # negative or NaN: either would corrupt the heap order
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.queue.push(self._now + delay, callback, priority, tag)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``time``."""
        if not time >= self._now:  # earlier than now, or NaN
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self._now}"
            )
        return self.queue.push(time, callback, priority=priority, tag=tag)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event; one that was cancelled or has
        fired is left as it is."""
        if not event.cancelled:
            event.cancel()
            self.queue.notify_cancelled()

    # ------------------------------------------------------------------- runs

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when the queue is empty."""
        entry = self.queue.pop_entry()
        if entry is None:
            return False
        time = entry[0]
        if time < self._now:
            raise SimulationError("event queue returned an event from the past")
        self._now = time
        entry[3].fire(entry)
        self._processed += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        trace: Optional[List[Tuple[float, Optional[str]]]] = None,
    ) -> float:
        """Run the event loop.

        Args:
            until: Stop once simulated time would exceed this value.  Events at
                exactly ``until`` are processed.
            max_events: Stop after this many events (safety valve in tests).
            trace: When given, ``(time, tag)`` is appended for every processed
                event — the hook used by the golden-trace determinism tests.

        Returns:
            The simulated time at which the run stopped.

        Raises:
            SimulationError: ``until`` is before ``now`` (or NaN): the clock
                never runs backwards.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        if until is not None and not until >= self._now:  # earlier than now, or NaN
            raise SimulationError(f"cannot run until t={until} which is before now={self._now}")
        self._running = True
        processed_this_run = 0
        # Both loops take the next entry from the queue's near heap.  Ordering
        # is identical to pop_entry()/step(): entries are (time, priority,
        # seq, event, *wire) tuples, cancelled events are skipped lazily, and
        # an event -- anything with ``cancelled``, ``tag`` and ``fire`` -- is
        # fired with its entry (see repro.sim.events).  ``self._now`` is only
        # written by these loops.
        queue = self.queue
        heap = queue._heap
        heappop = heapq.heappop
        refill = queue.refill
        stop = inf if until is None else until
        try:
            if max_events is None and trace is None:
                # Specialized hot loop for plain ``run(until=...)`` /
                # ``run()`` calls: one heap-root peek and one compare per
                # event, against ``limit`` -- the earlier of ``until`` and
                # the queue's horizon, before which the near root is the
                # earliest entry of both tiers.  Only a root past it (or an
                # empty near heap) takes the slow path through refill(); the
                # horizon only grows, so a stale ``limit`` is merely early.
                # The processed-event counter accumulates locally (flushed
                # below).
                processed_local = 0
                horizon = queue._horizon
                limit = stop if stop < horizon else horizon
                try:
                    while True:
                        if heap:
                            entry = heap[0]
                            event = entry[3]
                            if event.cancelled:
                                heappop(heap)
                                continue
                            next_time = entry[0]
                            if next_time <= limit:
                                heappop(heap)
                                queue._live -= 1
                                self._now = next_time
                                event.fire(entry)
                                processed_local += 1
                                continue
                        entry = refill()
                        if entry is None:
                            break
                        if entry[0] > stop:
                            self._now = until
                            break
                        horizon = queue._horizon
                        limit = stop if stop < horizon else horizon
                finally:
                    self._processed += processed_local
            else:
                while True:
                    if max_events is not None and processed_this_run >= max_events:
                        break
                    entry = refill()
                    if entry is None:
                        break
                    next_time = entry[0]
                    if next_time > stop:
                        self._now = until
                        break
                    heappop(heap)
                    event = entry[3]
                    queue._live -= 1
                    self._now = next_time
                    if trace is not None:
                        trace.append((next_time, event.tag))
                    event.fire(entry)
                    self._processed += 1
                    processed_this_run += 1
        finally:
            self._running = False
        if until is not None and self._now < until and self.queue.peek_time() is None:
            # Nothing left to do before the horizon; advance the clock so that
            # callers observing ``now`` see the requested horizon.
            self._now = until
        return self._now


__all__ = ["Simulator", "SimulationError"]
