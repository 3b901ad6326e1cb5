"""Continuous churn workload and the maximal-sustainable-churn search.

The paper's Figure 7 reports, for systems of 50 to 800 nodes, the maximal
churn rate (re-joins per minute) that Atum sustains while nodes keep an
average session time of 5 to 6 minutes.  A churn rate is *sustained* when the
system keeps up with it: membership operations do not accumulate and join
latencies stay bounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.overlay.membership import MembershipEngine


@dataclass
class ChurnConfig:
    """Configuration of the churn driver.

    Attributes:
        rate_per_minute: Requested re-joins per minute (each re-join is one
            leave of a random member plus one join of a fresh node).
        duration: How long to apply the churn, in seconds.
        warmup: Time to wait before measuring (lets the system settle).
        backlog_limit_factor: The rate counts as sustained if the number of
            pending membership operations at the end stays below this multiple
            of the per-minute rate.
    """

    rate_per_minute: float = 60.0
    duration: float = 300.0
    warmup: float = 30.0
    backlog_limit_factor: float = 1.0


@dataclass
class ChurnResult:
    """Outcome of one churn run."""

    requested_rejoins: int
    completed_joins: int
    completed_leaves: int
    pending_at_end: int
    mean_join_latency: float
    sustained: bool

    @property
    def completion_ratio(self) -> float:
        if self.requested_rejoins == 0:
            return 1.0
        return self.completed_joins / self.requested_rejoins


class ChurnWorkload:
    """Applies continuous churn to a grown membership engine.

    ``join_fn`` overrides how newcomers enter the system (default:
    ``engine.join``).  Cluster-level scenarios pass ``cluster.join`` so that
    re-joined nodes get real actors — with heartbeats enabled, an
    engine-only member that never heartbeats would be promptly evicted by
    its vgroup peers.
    """

    def __init__(
        self,
        engine: MembershipEngine,
        config: ChurnConfig,
        join_fn: Optional[Callable[[str], object]] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.sim = engine.sim
        self._join = join_fn or engine.join
        self._rng = self.sim.rng.stream("churn-workload")
        self._counter = itertools.count(0)
        self._requested = 0

    def run(self) -> ChurnResult:
        """Apply churn for the configured duration and report the outcome."""
        interval = 60.0 / self.config.rate_per_minute
        joins_before = self.sim.metrics.counter("membership.joins_completed")
        leaves_before = self.sim.metrics.counter("membership.leaves_completed")
        end_time = self.sim.now + self.config.warmup + self.config.duration
        start_time = self.sim.now + self.config.warmup

        def churn_tick() -> None:
            if self.sim.now >= end_time:
                return
            self._rejoin_one()
            self.sim.schedule(interval, churn_tick, tag="churn.tick")

        self.sim.schedule(self.config.warmup, churn_tick, tag="churn.start")
        self.sim.run(until=end_time)
        # Give in-flight operations a short grace period to finish.
        self.sim.run(until=end_time + 30.0)

        joins_after = self.sim.metrics.counter("membership.joins_completed")
        leaves_after = self.sim.metrics.counter("membership.leaves_completed")
        pending = self.engine.pending_operations()
        join_histogram = self.sim.metrics.histogram("membership.join_latency")
        mean_latency = join_histogram.mean if join_histogram.count else 0.0
        completed_joins = int(joins_after - joins_before)
        sustained = (
            completed_joins >= 0.9 * self._requested
            and pending <= max(5.0, self.config.backlog_limit_factor * self.config.rate_per_minute)
        )
        return ChurnResult(
            requested_rejoins=self._requested,
            completed_joins=completed_joins,
            completed_leaves=int(leaves_after - leaves_before),
            pending_at_end=pending,
            mean_join_latency=mean_latency,
            sustained=sustained,
        )

    def _rejoin_one(self) -> None:
        members = self.engine.addresses
        if not members:
            return
        # A current member: ``engine.leave`` refuses only non-members.
        self.engine.leave(members[self._rng.randrange(len(members))])
        self._requested += 1
        newcomer = f"churn-{next(self._counter)}"
        self._join(newcomer)


def max_sustainable_churn(
    engine_factory: Callable[[], MembershipEngine],
    rates_per_minute: Sequence[float],
    duration: float = 240.0,
) -> float:
    """The highest of the candidate rates that the system sustains.

    A fresh engine is built (via ``engine_factory``) for every candidate rate,
    so runs do not contaminate each other.  Rates are tried in increasing
    order; the highest sustained rate is returned (0.0 if none is sustained).
    """
    best = 0.0
    for rate in sorted(rates_per_minute):
        engine = engine_factory()
        workload = ChurnWorkload(engine, ChurnConfig(rate_per_minute=rate, duration=duration))
        result = workload.run()
        if result.sustained:
            best = rate
        else:
            break
    return best


__all__ = ["ChurnConfig", "ChurnResult", "ChurnWorkload", "max_sustainable_churn"]
