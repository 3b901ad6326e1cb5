"""A Trickle timer: send often while peers disagree, rarely while they agree.

Trickle (Levis et al., "Trickle: A Self-Regulating Algorithm for Code
Propagation and Maintenance in Wireless Sensor Networks", NSDI 2004;
RFC 6206) paces a periodic "here is my state" message.  Its interval starts
at one *period*, doubles after every tick at which a peer was heard, up to
:data:`MAX_PERIODS` periods, and falls back to the period -- with the next
tick as soon as one period has passed since the last send -- when the owner
detects an inconsistency.  An owner that hears nothing (cut off, say) keeps
sending every period, so it is heard within a period of the heal, and its
stale state is an inconsistency to every peer that hears it.

Two protocols share this one timer: checkpoint announces
(:class:`~repro.smr.checkpoint.CheckpointManager`) and anti-entropy summaries
(:class:`~repro.group.antientropy.AntiEntropyRepair`).  The timer owns only
the timing; what counts as heard and as inconsistent is the owner's call.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim.events import Event

#: The longest interval, in periods: a group that agrees sends every 16 periods.
MAX_PERIODS = 16


class Trickle:
    """One Trickle timer; ``tick`` sends and returns whether the timer goes on.

    The owner calls :meth:`sent` when a tick actually sent something (the
    reference point of the once-per-period rule), :meth:`hear` when a peer's
    message arrives, and :meth:`reset` on an inconsistency.  ``tick``
    returning ``False`` stops the timer (its owner stopped running);
    :meth:`start` arms it again.
    """

    __slots__ = ("_sim", "period", "interval", "_tick", "_tag", "_event", "_last_sent", "_heard")

    def __init__(self, sim, period: float, tick: Callable[[], bool], tag: str) -> None:
        self._sim = sim
        self.period = period
        self.interval = period
        self._tick = tick
        self._tag = tag
        self._event: Optional[Event] = None
        self._last_sent = -math.inf
        self._heard = False

    @property
    def armed(self) -> bool:
        return self._event is not None

    def start(self, at: float) -> None:
        """Arm the first tick at ``at``, at the shortest interval."""
        self.interval = self.period
        self._heard = False
        self._arm(at)

    def hear(self) -> None:
        """A peer's message arrived: the next tick doubles the interval."""
        self._heard = True

    def sent(self) -> None:
        """The tick in progress sent its message."""
        self._last_sent = self._sim.now

    def reset(self) -> bool:
        """Back to the shortest interval, ticking at once; whether it changed.

        "At once" still means at least one period after the last send, and a
        reset while the interval already is the period changes nothing, so no
        sequence of inconsistencies -- a Byzantine peer's, say -- raises the
        rate above one send per period.
        """
        period = self.period
        if self.interval <= period:
            return False
        self.interval = period
        if self._event is not None:
            self._sim.cancel(self._event)
        self._arm(max(self._sim.now, self._last_sent + period))
        return True

    def _arm(self, at: float) -> None:
        self._event = self._sim.schedule_at(at, self._fire, tag=self._tag)

    def _fire(self) -> None:
        self._event = None
        if not self._tick():
            return
        if self._heard:
            self.interval = min(2.0 * self.interval, MAX_PERIODS * self.period)
        self._heard = False
        self._arm(self._sim.now + self.interval)


__all__ = ["MAX_PERIODS", "Trickle"]
