"""Robustness analysis of volatile groups (paper section 3.1).

A vgroup of size ``g`` running the synchronous engine tolerates
``f = (g - 1) // 2`` faults; the asynchronous engine tolerates
``f = (g - 1) // 3``.  If each node is independently faulty with probability
``p``, the number of faults in a vgroup follows a binomial distribution
``B(g, p)`` and the vgroup *fails* when the number of faults exceeds ``f``.

The paper's worked example: with ``p = 0.05``, a 4-node vgroup fails with
probability ~0.014 while a 20-node vgroup fails with probability ~1.1e-8; and
with ``k = 4`` (so ``g = 4 log2 N``), even 6% simultaneous faults leave all
vgroups robust with probability ~0.999.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

from repro.sim.rng import named_stream
from repro.smr.base import async_fault_threshold, sync_fault_threshold


def fault_threshold(group_size: int, synchronous: bool = True) -> int:
    """Faults tolerated by a vgroup of the given size."""
    if synchronous:
        return sync_fault_threshold(group_size)
    return async_fault_threshold(group_size)


def vgroup_failure_probability(
    group_size: int, failure_probability: float, synchronous: bool = True
) -> float:
    """Probability that a vgroup of ``group_size`` exceeds its fault threshold.

    ``Pr[X > f]`` with ``X ~ B(g, p)``.
    """
    if not 0.0 <= failure_probability <= 1.0:
        raise ValueError("failure_probability must be in [0, 1]")
    threshold = fault_threshold(group_size, synchronous)
    # Imported on first use: importing this module must not load scipy.
    from scipy import stats

    return float(stats.binom.sf(threshold, group_size, failure_probability))


def all_vgroups_robust_probability(
    system_size: int,
    group_size: int,
    failure_probability: float,
    synchronous: bool = True,
) -> float:
    """Probability that *every* vgroup of the system stays robust.

    The system has roughly ``system_size / group_size`` vgroups; vgroup
    compositions are independent uniform samples thanks to random walk
    shuffling, so failures are treated as independent across vgroups.
    """
    if group_size < 1 or system_size < 1:
        raise ValueError("sizes must be positive")
    group_count = max(1, round(system_size / group_size))
    per_group_failure = vgroup_failure_probability(
        group_size, failure_probability, synchronous
    )
    return float((1.0 - per_group_failure) ** group_count)


def logarithmic_group_size(system_size: int, k: int = 4) -> int:
    """The logarithmic-grouping target ``g = k * log2(N)``."""
    return max(1, int(round(k * math.log2(max(2, system_size)))))


def monte_carlo_vgroup_failure(
    group_size: int,
    failure_probability: float,
    synchronous: bool = True,
    trials: int = 100_000,
    rng: Optional[random.Random] = None,
) -> float:
    """Monte-Carlo estimate of :func:`vgroup_failure_probability` (cross-check)."""
    rng = rng or named_stream("analysis.robustness.monte_carlo")
    threshold = fault_threshold(group_size, synchronous)
    failures = 0
    for _ in range(trials):
        faulty = sum(1 for _ in range(group_size) if rng.random() < failure_probability)
        if faulty > threshold:
            failures += 1
    return failures / trials


def scenario_robustness_row(
    system_size: int,
    average_group_size: float,
    fault_fraction: float,
    synchronous: bool = True,
) -> Dict[str, float]:
    """Theoretical robustness figures for one adversarial-scenario row.

    Used by :mod:`repro.faults.scenarios` to put the paper's analytical
    failure probabilities (section 3.1) next to each empirical outcome: if a
    scenario's observed invariant violations are zero while the theory says
    all vgroups stay robust with high probability, the run corroborates the
    analysis; a violation in a regime the theory calls safe is a bug.
    """
    group_size = max(1, int(round(average_group_size)))
    return {
        "fault_fraction": float(fault_fraction),
        "fault_threshold": float(fault_threshold(group_size, synchronous)),
        "vgroup_failure_probability": vgroup_failure_probability(
            group_size, fault_fraction, synchronous
        ),
        "all_robust_probability": all_vgroups_robust_probability(
            system_size, group_size, fault_fraction, synchronous
        ),
    }


def catchup_latency_bound(
    group_size: int,
    byzantine_responders: int,
    base_timeout: float,
    backoff_factor: float,
    max_timeout: float,
    jitter: float = 0.0,
) -> Dict[str, float]:
    """Worst-case catch-up latency under adversarial state-transfer servers.

    A recovering replica fetches checkpointed state from the signers of the
    stable certificate, rotating responders on each retry and quarantining
    peers that serve garbage or stale certificates.  With ``b`` adversarial
    responders among ``group_size - 1`` candidate servers, responder
    rotation guarantees a correct server is queried after at most ``b``
    failed attempts, because rotation never re-queries a peer before every
    other candidate had a turn.  Each failed attempt ``i`` costs at most its
    request-layer timeout ``min(max_timeout, base_timeout * factor**i)``
    (a garbage or stale reply costs *less* — it is rejected on arrival and
    rotates immediately — so the all-stonewall adversary is the worst case),
    plus the jitter margin the retry scheduler may add.

    Returns the worst-case number of attempts and the summed latency bound;
    scenario rows put this analytical bound next to the empirically observed
    ``smr.checkpoint.catchup_latency`` so the matrix can fail when an
    adversary pushes recovery past what rotation theory promises.
    """
    if byzantine_responders < 0 or group_size < 2:
        raise ValueError("need a positive candidate set and non-negative adversaries")
    candidates = group_size - 1
    adversaries = min(byzantine_responders, candidates - 1)
    worst_attempts = adversaries + 1
    latency = 0.0
    for attempt in range(adversaries):
        timeout = min(max_timeout, base_timeout * backoff_factor**attempt)
        latency += timeout * (1.0 + jitter)
    return {
        "candidate_servers": float(candidates),
        "byzantine_responders": float(adversaries),
        "worst_case_attempts": float(worst_attempts),
        "worst_case_wait": latency,
    }


def optimal_group_size_table(
    system_size: int,
    failure_probability: float,
    k_values: tuple = (3, 4, 5, 6, 7),
    synchronous: bool = True,
) -> List[Dict[str, float]]:
    """Probability of all vgroups being robust for several values of ``k``.

    Reproduces the trade-off discussion of section 3.1: larger ``k`` (larger
    vgroups) buys robustness at the cost of SMR overhead.
    """
    rows: List[Dict[str, float]] = []
    for k in k_values:
        group_size = logarithmic_group_size(system_size, k)
        rows.append(
            {
                "k": float(k),
                "group_size": float(group_size),
                "all_robust_probability": all_vgroups_robust_probability(
                    system_size, group_size, failure_probability, synchronous
                ),
            }
        )
    return rows


__all__ = [
    "fault_threshold",
    "vgroup_failure_probability",
    "all_vgroups_robust_probability",
    "scenario_robustness_row",
    "catchup_latency_bound",
    "logarithmic_group_size",
    "monte_carlo_vgroup_failure",
    "optimal_group_size_table",
]
