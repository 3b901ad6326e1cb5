"""Host seconds, rescaled to the speed of one reference host.

The sandbox's cores are shared: the same pure-Python work runs up to 1.8x
slower or faster from one second to the next (neither CPU time nor pinning
sees it, the slow-down is inside the core).  Raw wall time of one workload
child therefore spread 30-35 % (IQR over its median) on one seed, and no
median over the few children a run affords removes a swing that lasts as long
as the run.

So every host time the benchmark reports is measured in *reference-host
seconds*: a fixed kernel (:func:`burst`, ~10 ms) is timed every ``PERIOD_S``
of the measured code, from a ``SIGALRM`` handler that runs between two
bytecodes of the main thread, and each segment's wall time is multiplied by
``REFERENCE_BURST_S`` over the mean of the bursts at its two ends.  The
bursts' own time is left out.  On the same 20 children the rescaled time
spread 3.4 %.

The kernel is a miniature of what the simulator does (heap of tuples, slotted
events, dict membership under string keys, bound-method calls, canonical JSON
into SHA-256) because a host slow-down hits different instruction mixes
differently: an arithmetic loop tracked the simulator to 10 %, this mix to
3-5 % on every workload.  It imports nothing from ``repro``, so no change to
the program can move it, and it must **never change**: every ``setup_s`` and
``ops_per_s`` ever recorded is denominated in it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import signal
import time
from typing import Tuple

#: Seconds one :func:`burst` takes on the reference host (this sandbox, quiet).
REFERENCE_BURST_S = 0.0075
#: Measured code between two bursts.  Host speed drifts over about a second.
PERIOD_S = 0.1


class _Event:
    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, at: float, seq: int, callback) -> None:
        self.time = at
        self.seq = seq
        self.callback = callback
        self.cancelled = False


class _Node:
    def __init__(self, name: str) -> None:
        self.name = name
        self.seen = {}
        self.duplicates = 0

    def handle(self, key: str, now: float) -> bool:
        seen = self.seen
        if key in seen:
            self.duplicates += 1
            return False
        seen[key] = now
        return True


def _kernel() -> int:
    """Fixed work: 2,500 events through a heap, then 600 canonical digests."""
    nodes = [_Node(f"n{index}") for index in range(64)]
    heap: list = []
    seq = 0
    state = 12345
    for index in range(256):
        at = index * 0.001
        heapq.heappush(heap, (at, seq, _Event(at, seq, nodes[index % 64].handle)))
        seq += 1
    for _ in range(2500):
        now, _, event = heapq.heappop(heap)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        if event.callback(f"m{state % 512}", now) or len(heap) < 200:
            for _ in range(2):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                at = now + 0.01 + (state % 1000) * 1e-5
                heapq.heappush(heap, (at, seq, _Event(at, seq, nodes[state % 64].handle)))
                seq += 1
    for index in range(600):
        body = {"seq": index, "origin": "n12", "kind": "bcast", "payload": {"a": index, "b": [1, 2, 3]}}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        state ^= hashlib.sha256(text.encode()).digest()[0]
    return state


def burst() -> float:
    """Host seconds the fixed kernel takes right now.

    The collector is off meanwhile: a collection triggered by the kernel's
    allocations would walk the measured program's heap and charge it here.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Accumulates reference-host seconds (and raw ones) of the main thread.

    ``started_at`` and ``first_burst_s`` may come from another process
    (``CLOCK_MONOTONIC`` is shared), so a child can count its own start-up.
    """

    def __init__(self, started_at: float, first_burst_s: float) -> None:
        self._segment_start = started_at
        self._before = first_burst_s
        self._scaled = 0.0
        self._raw = 0.0
        self._armed = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._arm()

    def lap(self) -> Tuple[float, float]:
        """(reference-host seconds, raw seconds) since the last lap; keeps running."""
        lapped = self.stop()
        self._arm()
        return lapped

    def stop(self) -> Tuple[float, float]:
        """As :meth:`lap`, and no further alarm is raised."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._close_segment()
        lapped = (self._scaled, self._raw)
        self._scaled = self._raw = 0.0
        return lapped

    def _arm(self) -> None:
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:  # an alarm already pending when lap() disarmed is dropped
            self._close_segment()
            self._arm()

    def _close_segment(self) -> None:
        raw = time.perf_counter() - self._segment_start
        after = burst()
        self._raw += raw
        self._scaled += raw * REFERENCE_BURST_S / ((self._before + after) / 2.0)
        self._before = after
        self._segment_start = time.perf_counter()
