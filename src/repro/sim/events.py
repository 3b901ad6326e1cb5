"""Event and event-queue primitives for the simulation kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
guarantees a deterministic total order even when many events share the same
timestamp, which is essential for reproducible simulations.

The queue is the hottest data structure in the repository: every message
delivery, timer and protocol round passes through it (a heartbeat is no
message event: the network keeps it as a burst its peers' failure detectors
read, see :mod:`repro.net.network`).  Three choices keep it fast while
preserving the exact ordering semantics of the original implementation:

* heap entries are plain ``(time, priority, seq, event, *wire)`` tuples, so
  all sift comparisons run as C tuple comparisons instead of Python-level
  ``__lt__`` calls (``seq`` is unique, so nothing from the event on is ever
  compared);
* :class:`Event` is a ``__slots__`` handle carrying the callback and the
  cancellation flag; cancellation is O(1) and lazy — cancelled entries are
  skipped when they surface at the heap root;
* the queue has two tiers, as a ladder queue keeps its far-future rungs
  apart (Tang, Goh & Thng, ACM TOMACS 15(3), 2005): the near heap
  ``_heap`` every pop comes from, and the far heap ``_far`` where a timer
  due after the horizon ``_horizon`` waits (a view-change timeout, a Trickle
  tick, a workload's pre-scheduled send).  The invariant is weak: every far
  entry is later than the horizon, and a near entry may be too, so the
  network pushes its deliveries straight onto ``_heap``.  While the near
  root is due by the horizon it is the earliest entry of both; past it,
  :meth:`EventQueue.refill` moves the horizon to the next due time plus
  :data:`NEAR_S` and brings the far entries due by then across.  Pop order
  is exactly ``(time, priority, seq)`` whatever ``NEAR_S`` is.

The queue's contract with whoever drains it: an *event* is anything with
``cancelled``, ``tag`` and ``fire``, and a popped entry is fired as
``entry[3].fire(entry)``.  A timer's entry ends at its :class:`Event`, whose
``fire`` runs the callback; a network delivery (:mod:`repro.net.network`) *is*
its entry — the wire fields in ``entry[4:]`` behind one event shared by every
message in flight, so only the entry says when it fires; a Sync gossip forward
(:class:`repro.core.node.SyncForward`) is its own event, queued by
:meth:`EventQueue.push_event`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

#: How far past the next due event the near heap reaches, in simulated
#: seconds.  Any value gives the same pop order; it only sets how often a
#: pop crosses the horizon (the slow path) against how many not-yet-due
#: timers the hot heap carries.  1.0 s keeps ``smr_pbft_1vg``'s near heap at
#: a median of 44 entries (516 in one heap), and 0.25 s was no faster in
#: alternating pairs (1.0 s over 0.25 s: median ratio 1.006, 5 of 8 pairs,
#: noise), so the value that crosses the horizon less often was kept.
NEAR_S = 1.0


class Event:
    """A scheduled callback in simulated time.

    Attributes:
        time: Simulated time at which the event fires.
        priority: Tie-breaker among events at the same time (lower first).
        seq: Monotonic sequence number assigned by the queue; makes ordering
            total and deterministic.
        callback: Zero-argument callable invoked when the event fires.
        cancelled: True once the event can no longer fire: set by
            :meth:`cancel` (the queue then skips it) and by :meth:`fire`.
        tag: Optional human-readable label used in traces and debugging.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "tag")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        cancelled: bool = False,
        tag: Optional[str] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = cancelled
        self.tag = tag

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def fire(self, entry: tuple) -> None:
        """Run the callback; a timer reads nothing from its heap ``entry``.

        The event is spent from here on, so cancelling it later (from its own
        callback, say) takes nothing off the queue's live count.
        """
        self.cancelled = True
        self.callback()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} prio={self.priority} seq={self.seq} tag={self.tag!r}{state}>"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Both heaps hold ``(time, priority, seq, event, *wire)`` tuples; see the
    module docstring for why, and for the two tiers.  ``_heap`` is private,
    but the simulator's run loop pops it directly while its root is due by
    ``_horizon``, and the network pushes deliveries onto it.
    """

    __slots__ = ("_heap", "_far", "_horizon", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._far: list[tuple] = []
        self._horizon = NEAR_S  # as if refilled at t = 0
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        tag: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, False, tag)
        heappush(self._far if time > self._horizon else self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def push_event(self, time: float, event) -> None:
        """Queue ``event`` itself at ``time``, priority 0: the seq and tier
        :meth:`push` gives a timer, with no :class:`Event` in between.

        ``event`` has ``cancelled``, ``tag`` and ``fire``, is fired with its
        entry, and is in the queue at most once at a time; nothing cancels
        it (a :class:`repro.core.node.SyncForward` is one).
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._far if time > self._horizon else self._heap, (time, 0, seq, event))
        self._live += 1

    def refill(self) -> Optional[tuple]:
        """Leave the next non-cancelled entry at the root of ``_heap`` and
        return it (``None`` when the queue is empty).

        A root due by the horizon is returned as it is.  Otherwise the
        horizon moves to the next due time plus :data:`NEAR_S`, and every far
        entry due by then moves to ``_heap`` (a cancelled one is dropped).
        The horizon therefore only grows, so a drain that cached it pops
        nothing out of order.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
            elif entry[0] <= self._horizon:
                return entry
            else:
                break
        far = self._far
        while far and far[0][3].cancelled:
            heappop(far)
        if not far:
            if not heap:
                self._live = 0
                return None
            due = heap[0][0]
        elif heap and heap[0][0] < far[0][0]:
            due = heap[0][0]
        else:
            due = far[0][0]
        horizon = self._horizon = due + NEAR_S
        while far and far[0][0] <= horizon:
            entry = heappop(far)
            if not entry[3].cancelled:
                heappush(heap, entry)
        return heap[0]

    def pop_entry(self) -> Optional[tuple]:
        """Pop the next non-cancelled entry (``None`` when empty), the only
        way out of the queue: an event may need its entry to fire."""
        entry = self.refill()
        if entry is not None:
            heappop(self._heap)
            self._live -= 1
        return entry

    def peek_time(self) -> Optional[float]:
        """Return the time of the next non-cancelled event without popping it."""
        entry = self.refill()
        return None if entry is None else entry[0]

    def notify_cancelled(self) -> None:
        """Account for an externally cancelled event (keeps ``len`` accurate)."""
        if self._live > 0:
            self._live -= 1


__all__ = ["Event", "EventQueue"]
