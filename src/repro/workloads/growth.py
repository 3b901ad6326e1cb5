"""Growth workload: join nodes at a rate proportional to system size.

The paper's growth experiments (Figure 6) join nodes at 8% of the current
system size per minute, observing exponential growth; Figure 13 raises the
rate to 20% and 24% and observes the fraction of suppressed shuffle exchanges
increase.  The provisioning delay models the time to create and boot new
EC2 instances (the cause of the plateau the paper observes around t=3000 s).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.overlay.membership import MembershipEngine
from repro.sim.metrics import TimeSeries


@dataclass
class GrowthConfig:
    """Configuration of the growth driver.

    Attributes:
        target_size: Stop issuing joins once this many nodes have been started.
        join_fraction_per_minute: Fraction of the current system size joined
            per minute (0.08, 0.20 or 0.24 in the paper).
        batch_interval: How often the driver computes and issues a join batch.
        provisioning_delay: Delay between deciding to add a node and the node
            actually contacting the system (instance creation + boot).
        max_duration: Safety horizon for the driver.
    """

    target_size: int = 800
    join_fraction_per_minute: float = 0.08
    batch_interval: float = 10.0
    provisioning_delay: float = 30.0
    max_duration: float = 20_000.0


class GrowthWorkload:
    """Drives joins into a membership engine until the target size is reached."""

    def __init__(self, engine: MembershipEngine, config: GrowthConfig) -> None:
        self.engine = engine
        self.config = config
        self.sim = engine.sim
        self._node_counter = itertools.count(0)
        self._started = 0
        self._finished = False

    # -------------------------------------------------------------------- runs

    def start(self, seed_node: str = "seed-0") -> None:
        """Bootstrap the system (if needed) and start the periodic join driver."""
        if self.engine.system_size == 0:
            self.engine.bootstrap(seed_node)
            self._started = 1
        else:
            self._started = self.engine.system_size
        self._tick()

    def run(self, seed_node: str = "seed-0") -> TimeSeries:
        """Run the workload to completion and return the size-over-time series."""
        self.start(seed_node)
        # Advance in slices so the clock stops shortly after the growth (and
        # its trailing shuffles/splits) actually finishes, rather than always
        # running out to the safety horizon.
        while self.sim.now < self.config.max_duration:
            horizon = min(self.config.max_duration, self.sim.now + 60.0)
            self.sim.run(until=horizon)
            if self._finished and self.engine.pending_operations() == 0:
                break
        return self.sim.metrics.timeseries("membership.system_size")

    @property
    def finished(self) -> bool:
        return self._finished

    def time_to_reach(self, size: int) -> Optional[float]:
        """First simulated time at which the system reached ``size`` nodes."""
        for time, value in self.sim.metrics.timeseries("membership.system_size").points:
            if value >= size:
                return time
        return None

    def exchange_completion_rate(self) -> float:
        """Fraction of attempted shuffle exchanges that completed (Figure 13)."""
        attempted = self.sim.metrics.counter("membership.exchanges_attempted")
        completed = self.sim.metrics.counter("membership.exchanges_completed")
        if attempted == 0:
            return 1.0
        return completed / attempted

    # ----------------------------------------------------------------- internals

    def _tick(self) -> None:
        if self._started >= self.config.target_size or self.sim.now >= self.config.max_duration:
            self._finished = True
            return
        per_minute = self.config.join_fraction_per_minute * max(1, self.engine.system_size)
        joins_this_batch = per_minute * self.config.batch_interval / 60.0
        whole = max(1, int(round(joins_this_batch)))
        whole = min(whole, self.config.target_size - self._started)
        for _ in range(whole):
            node = f"grow-{next(self._node_counter)}"
            self._started += 1
            self.sim.schedule(
                self.config.provisioning_delay,
                lambda n=node: self._join(n),
                tag="growth.provision",
            )
        self.sim.schedule(self.config.batch_interval, self._tick, tag="growth.tick")

    def _join(self, node: str) -> None:
        if node in self.engine.node_group:
            return
        self.engine.join(node)


__all__ = ["GrowthConfig", "GrowthWorkload"]
