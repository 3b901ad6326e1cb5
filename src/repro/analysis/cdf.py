"""Latency percentiles and summaries (used for Figure 8-style results)."""

from __future__ import annotations

import math
from typing import Dict, Sequence


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (p in [0, 100])."""
    if not samples:
        return math.nan
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """A compact latency summary: count, mean, median, p90, p99, max."""
    if not samples:
        return {"count": 0, "mean": math.nan, "median": math.nan, "p90": math.nan,
                "p99": math.nan, "max": math.nan}
    return {
        "count": float(len(samples)),
        "mean": sum(samples) / len(samples),
        "median": percentile(samples, 50),
        "p90": percentile(samples, 90),
        "p99": percentile(samples, 99),
        "max": max(samples),
    }


__all__ = ["percentile", "latency_summary"]
