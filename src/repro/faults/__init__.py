"""Composable fault injection and runtime invariant checking.

Atum's core claims are robustness claims; this package makes adversity a
first-class, composable layer instead of ad-hoc per-experiment code:

* :mod:`repro.faults.plan` — the declarative :class:`FaultPlan` schema
  (partitions with heal times, per-link loss/duplication/delay spikes,
  node-behaviour faults);
* :mod:`repro.faults.injector` — the network-level injector consulted by
  :class:`repro.net.network.Network` per routed message;
* :mod:`repro.faults.behaviours` — the control plane applying a plan to an
  :class:`~repro.core.cluster.AtumCluster` (crash-recover, silent,
  evict-attacking and equivocating nodes);
* :mod:`repro.faults.invariants` — the runtime :class:`InvariantMonitor`
  asserting the paper's safety invariants while a scenario runs;
* :mod:`repro.faults.scenarios` — the plan × workload matrix driver: one
  seeded run per ``(seed, scenario)`` cell fanned out over
  :mod:`repro.sim.runpar`, each scenario's runs folded into one
  ``FAULT_MATRIX.json`` row.

Determinism contract: plans execute off dedicated seeded RNG streams, and an
empty plan installs nothing — golden traces stay byte-identical.
"""

from repro.faults.plan import FaultPlan, LinkFault, NodeFault, Partition, NODE_BEHAVIOURS
from repro.faults.injector import LinkFaultInjector
from repro.faults.behaviours import FaultController, apply_plan
from repro.faults.invariants import (
    InvariantMonitor,
    InvariantViolation,
    check_agreement_logs,
)

__all__ = [
    "FaultPlan",
    "LinkFault",
    "NodeFault",
    "Partition",
    "NODE_BEHAVIOURS",
    "LinkFaultInjector",
    "FaultController",
    "apply_plan",
    "InvariantMonitor",
    "InvariantViolation",
    "check_agreement_logs",
]
