"""Lightweight metrics collection for simulations.

The benchmark harness and the integration tests inspect protocol behaviour
through these metrics rather than by poking protocol internals.

:class:`Histogram` is on the per-message hot path (every delivery records a
latency sample), so it keeps running accumulators for ``mean``/``minimum``/
``maximum`` and a lazily-maintained sorted view for ``percentile``/``cdf``:
recording invalidates the view, queries re-sort at most once per batch of
records instead of once per query.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


class Histogram:
    """A sample-accumulating histogram with cached percentile queries.

    ``samples`` is a public ``array('d')`` in insertion order: 8 bytes a
    sample (16 once queried — the cached sorted view is packed too) where a
    list of boxed floats costs 32.  Values are stored as doubles: an ``int``
    reads back as the equal ``float``, a non-number is a ``TypeError`` at the
    append.  ``append`` / ``extend`` / ``len`` / index / slice / iteration /
    ``pop`` work as on a list; ``clear()`` is ``del samples[:]`` and comparing
    with a list needs ``list(samples)``.  Appending directly is fully
    supported: the accumulators and the sorted view reconcile lazily on the
    next query, exactly as if the values had gone through :meth:`record`.
    Destructive mutations are detected on a best-effort basis — a shrink or a
    changed last-accumulated element triggers a full recompute, but a
    same-length interior rewrite (or a regrow that coincidentally reproduces
    the last accumulated value at its old index) is not observable in O(1);
    call :meth:`invalidate` after such mutations.
    """

    __slots__ = ("samples", "_sorted", "_sum", "_min", "_max", "_acc_count", "_last_acc")

    def __init__(self, samples: Optional[Iterable[float]] = None) -> None:
        self.samples = array("d", samples or ())
        self._sorted: Optional[array] = None
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._acc_count = 0
        self._last_acc: Optional[float] = None

    def record(self, value: float) -> None:
        # Recording IS appending: all accumulator bookkeeping happens lazily
        # in _reconcile() on the next query, which folds the appended tail in
        # insertion order — so the statistics are bit-identical to eager
        # accumulation, while the per-record hot path is a single append.
        self.samples.append(value)

    def record_many(self, values: Iterable[float]) -> None:
        self.samples.extend(values)

    def invalidate(self) -> None:
        """Force a full recompute after arbitrary mutation of ``samples``."""
        samples = self.samples
        self._sum = sum(samples)
        self._min = min(samples) if samples else math.inf
        self._max = max(samples) if samples else -math.inf
        self._sorted = None
        self._acc_count = len(samples)
        self._last_acc = samples[-1] if samples else None

    def _reconcile(self) -> None:
        """Fold direct mutations of ``samples`` into the accumulators.

        Growth with an untouched last accumulated element folds in the new
        tail; a shrink, or a changed element at the last accumulated index
        (e.g. ``del samples[:]`` followed by new appends), triggers a full
        recompute and drops the cached sorted view.
        """
        count = self._acc_count
        samples = self.samples
        grown_cleanly = count < len(samples) and (
            count == 0 or samples[count - 1] == self._last_acc
        )
        if count == len(samples) and (count == 0 or samples[-1] == self._last_acc):
            return
        if grown_cleanly:
            tail = samples[count:]
            self._sum += sum(tail)
            tail_min = min(tail)
            tail_max = max(tail)
            if tail_min < self._min:
                self._min = tail_min
            if tail_max > self._max:
                self._max = tail_max
        else:
            self._sum = sum(samples)
            self._min = min(samples) if samples else math.inf
            self._max = max(samples) if samples else -math.inf
            self._sorted = None
        self._acc_count = len(samples)
        self._last_acc = samples[-1] if samples else None

    def __len__(self) -> int:
        return len(self.samples)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Histogram):
            return self.samples == other.samples
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={len(self.samples)})"

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return math.nan
        self._reconcile()
        return self._sum / len(self.samples)

    @property
    def minimum(self) -> float:
        if not self.samples:
            return math.nan
        self._reconcile()
        return self._min

    @property
    def maximum(self) -> float:
        if not self.samples:
            return math.nan
        self._reconcile()
        return self._max

    def _sorted_view(self) -> array:
        # Reconcile first: destructive external mutations drop the cached
        # view, so what remains below is first-query or clean growth.
        self._reconcile()
        ordered = self._sorted
        samples = self.samples
        if ordered is None or len(ordered) > len(samples):
            ordered = self._sorted = array("d", sorted(samples))
        elif len(ordered) < len(samples):
            # Merge the (already sorted) view with the newly recorded tail:
            # concatenating two ascending runs lets timsort merge them in
            # O(n) with C-level comparisons, instead of a full re-sort.
            ordered.extend(sorted(samples[len(ordered):]))
            ordered = self._sorted = array("d", sorted(ordered))
        return ordered

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0..100) using nearest-rank."""
        if not self.samples:
            return math.nan
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = self._sorted_view()
        rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    def cdf(self) -> List[Tuple[float, float]]:
        """Return the empirical CDF as ``(value, fraction <= value)`` pairs."""
        ordered = self._sorted_view()
        n = len(ordered)
        return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


@dataclass
class TimeSeries:
    """A time-stamped series of values (e.g. system size over time)."""

    points: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def __len__(self) -> int:
        return len(self.points)

    def values(self) -> List[float]:
        return [value for _, value in self.points]

    def times(self) -> List[float]:
        return [time for time, _ in self.points]

    def last(self) -> Tuple[float, float]:
        if not self.points:
            raise ValueError("time series is empty")
        return self.points[-1]

    def value_at(self, time: float) -> float:
        """Return the last recorded value at or before ``time`` (step function)."""
        best = None
        for point_time, value in self.points:
            if point_time <= time:
                best = value
            else:
                break
        if best is None:
            raise ValueError(f"no sample at or before t={time}")
        return best


class MetricsRegistry:
    """Counters, histograms and time series addressed by name."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)
        self.histograms: Dict[str, Histogram] = defaultdict(Histogram)
        self.series: Dict[str, TimeSeries] = defaultdict(TimeSeries)

    def increment(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def observe(self, name: str, value: float) -> None:
        self.histograms[name].record(value)

    def histogram(self, name: str) -> Histogram:
        return self.histograms[name]

    def record_point(self, name: str, time: float, value: float) -> None:
        self.series[name].record(time, value)

    def timeseries(self, name: str) -> TimeSeries:
        return self.series[name]

    def snapshot(self) -> Dict[str, float]:
        """Return a flat view of counters plus histogram means (for reports)."""
        flat: Dict[str, float] = dict(self.counters)
        for name, histogram in self.histograms.items():
            if histogram.count:
                flat[f"{name}.mean"] = histogram.mean
                flat[f"{name}.count"] = float(histogram.count)
        return flat


__all__ = ["Histogram", "TimeSeries", "MetricsRegistry"]
