"""Discrete-event simulation kernel.

The kernel provides a deterministic, seeded event loop on which every Atum
protocol in this repository runs.  The central pieces are:

* :class:`repro.sim.simulator.Simulator` -- the event loop and simulated clock.
* :class:`repro.sim.actor.Actor` -- base class for protocol participants.
* :class:`repro.sim.rng.RngRegistry` -- named, reproducible random streams.
* :class:`repro.sim.metrics.MetricsRegistry` -- counters, samples and series.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.simulator import Simulator, SimulationError
from repro.sim.actor import Actor
from repro.sim.rng import RngRegistry
from repro.sim.metrics import MetricsRegistry, Histogram, TimeSeries

# repro.sim.runpar (sharded parallel scenario runner) is imported by its users
# (the fault matrix), not here, to keep the kernel import graph minimal.

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SimulationError",
    "Actor",
    "RngRegistry",
    "MetricsRegistry",
    "Histogram",
    "TimeSeries",
]
