"""Atum system parameters (paper Table 1): the one object every layer reads."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.group.cost import GroupCostModel
from repro.overlay.guideline import recommended_config
from repro.overlay.random_walk import WalkMode
from repro.smr.base import async_fault_threshold, sync_fault_threshold


class SmrKind(enum.Enum):
    """Which SMR engine runs inside every vgroup."""

    SYNC = "sync"      # Dolev-Strong, tolerates f = (g-1)/2, round-based
    ASYNC = "async"    # PBFT-style, tolerates f = (g-1)/3, eventually synchronous


@dataclass(frozen=True)
class AtumParameters:
    """The system parameters of Table 1 plus implementation choices.

    Attributes:
        hc: Number of H-graph cycles (typical values 2..12).
        rwl: Length of random walks (typical values 4..15).
        gmax: Maximum vgroup size before a split (8, 14, 20, ...).
        gmin: Minimum vgroup size before a merge (paper default 0.5 * gmax).
        k: Robustness parameter; vgroup size targets ``k * log2(N)``.  Only
            used for analysis -- the protocols themselves use gmin/gmax.
        smr_kind: Synchronous (Dolev-Strong) or asynchronous (PBFT) engine.
        round_duration: Round length of the synchronous engine in seconds.
        request_timeout: View-change timeout of the asynchronous engine.
        heartbeat_period: Heartbeat interval (coarse, one minute by default).
        checkpoint_interval: Decided operations between PBFT checkpoints
            (:mod:`repro.smr.checkpoint`), at least 1.  Only read by the
            Async engine.
        shuffle_enabled: Whether random walk shuffling runs after joins and
            leaves (disabling it is used in tests and ablations).

    Parameters are fixed per deployment, as in the paper: one frozen
    instance is shared by reference between a cluster, its membership
    engine, and every node and SMR replica, which read the fields they
    need from it.  ``dataclasses.replace`` derives a different deployment.
    """

    hc: int = 5
    rwl: int = 10
    gmax: int = 14
    gmin: int = 7
    k: int = 4
    smr_kind: SmrKind = SmrKind.SYNC
    round_duration: float = 1.0
    request_timeout: float = 2.0
    heartbeat_period: float = 60.0
    checkpoint_interval: int = 8
    shuffle_enabled: bool = True

    def __post_init__(self) -> None:
        if self.gmin < 1:
            raise ValueError("gmin must be at least 1")
        if self.gmin > self.gmax:
            raise ValueError(f"gmin ({self.gmin}) cannot exceed gmax ({self.gmax})")
        if self.hc < 1:
            raise ValueError("hc must be at least 1")
        if self.rwl < 1:
            raise ValueError("rwl must be at least 1")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be at least 1")
        # Each drives a timer: zero re-arms at the same instant forever, a
        # negative or NaN one cannot be scheduled, an infinite one never fires.
        for name in ("round_duration", "request_timeout", "heartbeat_period"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    # --------------------------------------------------------------- factories

    @classmethod
    def for_system_size(
        cls,
        expected_size: int,
        smr_kind: SmrKind = SmrKind.SYNC,
        k: Optional[int] = None,
        round_duration: float = 1.0,
    ) -> "AtumParameters":
        """Derive a configuration for an expected system size.

        Vgroup sizes follow the paper's deployed configurations rather than
        the analytical ``k * log2(N)`` bound: Table 1 lists typical ``gmax``
        values of 8, 14, 20, and the evaluation runs 800 nodes in roughly 120
        vgroups (average size ~7).  ``gmax`` therefore grows logarithmically
        with the expected size but stays within Table 1's typical range; the
        asynchronous engine uses larger vgroups (the paper raises ``k`` from 4
        to 7) to compensate for PBFT's lower fault threshold.  ``hc`` and
        ``rwl`` follow the Figure 4 guideline for the expected number of
        vgroups.  ``k`` itself is kept for robustness analysis only, exactly
        as in the paper (footnote 4).
        """
        if expected_size < 1:
            raise ValueError("expected_size must be positive")
        chosen_k = k if k is not None else (4 if smr_kind is SmrKind.SYNC else 7)
        log_term = max(1.0, math.log2(max(2, expected_size)))
        gmax = int(round(log_term / 2)) * 2
        gmax = max(8, min(20, gmax))
        if smr_kind is SmrKind.ASYNC:
            # Larger vgroups compensate for the (g-1)/3 fault threshold.
            gmax = min(26, int(round(gmax * 1.5 / 2)) * 2)
        gmin = max(2, gmax // 2)
        expected_groups = max(1, expected_size // max(gmin, (gmin + gmax) // 2))
        recommendation = recommended_config(expected_groups)
        return cls(
            hc=recommendation.hc,
            rwl=recommendation.rwl,
            gmax=gmax,
            gmin=gmin,
            k=chosen_k,
            smr_kind=smr_kind,
            round_duration=round_duration,
        )

    # ------------------------------------------------------------ derived views

    @property
    def walk_mode(self) -> WalkMode:
        """Sync uses the backward phase, Async uses certificate chains (§5.1)."""
        if self.smr_kind is SmrKind.SYNC:
            return WalkMode.BACKWARD_PHASE
        return WalkMode.CERTIFICATES

    def fault_threshold(self, group_size: int) -> int:
        """Faults tolerated in a vgroup of the given size under this engine."""
        if self.smr_kind is SmrKind.SYNC:
            return sync_fault_threshold(group_size)
        return async_fault_threshold(group_size)

    def cost_model(self) -> GroupCostModel:
        """The group-level cost model for the vgroup-granularity engine.

        Its one-way latency is the typical one of the engine's default
        network: a LAN (1 ms) for Sync, a WAN (50 ms) for Async.
        """
        synchronous = self.smr_kind is SmrKind.SYNC
        return GroupCostModel(
            synchronous=synchronous,
            round_duration=self.round_duration,
            network_latency=0.001 if synchronous else 0.05,
        )


def parameter_table() -> List[Dict[str, str]]:
    """The contents of the paper's Table 1 (parameter, description, typical values)."""
    return [
        {
            "parameter": "hc",
            "description": "Number of H-graph cycles.",
            "typical_values": "2, ..., 12",
        },
        {
            "parameter": "rwl",
            "description": "Length of random walks.",
            "typical_values": "4, ..., 15",
        },
        {
            "parameter": "gmax",
            "description": "Maximum vgroup size.",
            "typical_values": "8, 14, 20, ...",
        },
        {
            "parameter": "gmin",
            "description": "Minimum vgroup size.",
            "typical_values": "0.5 * gmax",
        },
        {
            "parameter": "k",
            "description": "Robustness parameter.",
            "typical_values": "3, ..., 7",
        },
    ]


__all__ = ["SmrKind", "AtumParameters", "parameter_table"]
