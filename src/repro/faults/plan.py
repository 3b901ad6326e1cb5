"""Composable fault plans: the declarative schema of the fault subsystem.

A :class:`FaultPlan` describes *what goes wrong and when* in one simulated
run, as data rather than per-experiment driver code:

* :class:`Partition` — either a set of addresses isolated from the rest of
  the network between ``start`` and ``heal_at`` (``None`` = never heals),
  or — with ``sides`` — a *side-preserving* split whose sides stay
  internally connected while cross-side traffic is dropped;
* :class:`LinkFault` — a time-windowed per-link perturbation (loss,
  duplication, added delay / jitter spikes, payload corruption) matching a
  sender/receiver pattern (``None`` matches any address);
* :class:`NodeFault` — a node-behaviour change, one of
  :data:`~repro.faults.byzantine.NODE_BEHAVIOURS` (crash with optional
  recovery, silent, evict-proposing, equivocating, ...).

Plans are immutable and validated at construction; they are *applied* by
:class:`repro.faults.behaviours.FaultController` (full cluster), and a bare
network takes link faults from a
:class:`repro.faults.injector.LinkFaultInjector` in a middleware chain of
its own.  All randomness consumed while executing a plan is drawn from
dedicated streams of the simulator's seeded RNG registry (``faults.network``,
``faults.control``), so a given ``(seed, plan)`` pair always produces the
same run — and an **empty plan consumes nothing at all**, keeping golden
traces byte-identical to runs without the fault subsystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.faults.byzantine import NODE_BEHAVIOURS, RESPONDER_BEHAVIOURS


@dataclass(frozen=True)
class Partition:
    """Cut nodes off from (parts of) the network for a time window.

    Two shapes are expressible:

    * **Per-node isolation** (``members`` only): each listed address can
      neither send nor receive — not even to other members of the same
      partition.  This models nodes behind a failed switch/uplink (each
      looks crashed to everyone, including each other), which is also how
      the paper's fault injection treats unreachable nodes.
    * **Side-preserving split** (``sides``): the named sides stay internally
      connected and only *cross-side* traffic is dropped, so each side keeps
      running its own heartbeats and SMR.  This is the paper's hard case —
      divergence on two live sides followed by reconciliation after the
      heal.  Addresses not named by any side are unaffected (they can talk
      to everyone).  ``members`` is derived as the union of the sides.

    Attributes:
        members: Addresses to cut off (derived from ``sides`` when given).
        start: Simulated time at which the partition forms.
        heal_at: Simulated time at which it heals (``None`` = permanent).
        sides: Optional disjoint address groups forming a side-preserving
            split (at least two, each non-empty).
    """

    members: Tuple[str, ...] = ()
    start: float = 0.0
    heal_at: Optional[float] = None
    sides: Optional[Tuple[Tuple[str, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.sides is not None:
            if len(self.sides) < 2:
                raise ValueError("a side-preserving partition needs at least two sides")
            union: set = set()
            for side in self.sides:
                if not side:
                    raise ValueError("every side of a partition must be non-empty")
                overlap = union.intersection(side)
                if overlap:
                    raise ValueError(
                        f"partition sides must be disjoint; {sorted(overlap)} appear twice"
                    )
                union.update(side)
            if self.members and set(self.members) != union:
                raise ValueError(
                    "members of a side-preserving partition must equal the union of its sides"
                )
            if not self.members:
                object.__setattr__(self, "members", tuple(sorted(union)))
        if not self.members:
            raise ValueError("a partition needs at least one member")
        if self.start < 0.0:
            raise ValueError("partition start must be non-negative")
        if self.heal_at is not None and self.heal_at <= self.start:
            raise ValueError("heal_at must be after start")

    @property
    def is_side_preserving(self) -> bool:
        return self.sides is not None


@dataclass(frozen=True)
class LinkFault:
    """A time-windowed perturbation of matching network links.

    ``src``/``dst`` of ``None`` match any sender/receiver, so a single rule
    can degrade the whole network, one node's uplink (``src=addr``) or
    downlink (``dst=addr``), or one directed link.

    Attributes:
        src: Sender address pattern (``None`` = any).
        dst: Receiver address pattern (``None`` = any).
        start: Window start (inclusive).
        stop: Window end (exclusive; ``inf`` = forever).
        loss: Probability a matching message is dropped.
        duplicate: Probability a matching message is delivered twice.
        extra_delay: Deterministic extra propagation delay in seconds.
        jitter: Upper bound of an additional uniform random delay.
        corrupt: Probability a matching message is delivered *bit-flipped*.
            Corrupted group-message shares fail the receiver's payload-digest
            verification and are discarded; corrupted frames of other
            protocols fail transport authentication and are dropped whole.
    """

    src: Optional[str] = None
    dst: Optional[str] = None
    start: float = 0.0
    stop: float = math.inf
    loss: float = 0.0
    duplicate: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        if self.extra_delay < 0.0 or self.jitter < 0.0:
            raise ValueError("extra_delay and jitter must be non-negative")
        if self.stop <= self.start:
            raise ValueError("stop must be after start")

    def matches(self, sender: str, receiver: str, now: float) -> bool:
        """Whether this rule applies to a message on ``sender -> receiver`` at ``now``."""
        if now < self.start or now >= self.stop:
            return False
        if self.src is not None and self.src != sender:
            return False
        if self.dst is not None and self.dst != receiver:
            return False
        return True


@dataclass(frozen=True)
class NodeFault:
    """Switch one node into a faulty behaviour for a time window.

    Attributes:
        address: The node whose behaviour changes.
        behaviour: One of :data:`NODE_BEHAVIOURS`.
        start: Time at which the behaviour begins.
        stop: Time at which the node returns to correct behaviour
            (``None`` = never; for ``"crash"`` a ``stop`` makes it
            crash-recover).
        attack_period: Interval between eviction proposals for
            ``"evict_attack"``, and between strategic leave/re-join moves
            for ``"rejoin_attack"``.
    """

    address: str
    behaviour: str = "crash"
    start: float = 0.0
    stop: Optional[float] = None
    attack_period: float = 30.0

    def __post_init__(self) -> None:
        if self.behaviour not in NODE_BEHAVIOURS:
            raise ValueError(
                f"unknown behaviour {self.behaviour!r}; expected one of {NODE_BEHAVIOURS}"
            )
        if self.start < 0.0:
            raise ValueError("start must be non-negative")
        if self.stop is not None and self.stop <= self.start:
            raise ValueError("stop must be after start")
        if self.attack_period <= 0.0:
            raise ValueError("attack_period must be positive")


@dataclass(frozen=True)
class GroupSlowdown:
    """Straggler vgroups: stretch membership-operation durations.

    Models slow vgroups (overloaded hosts, cross-datacenter members) whose
    agreement and state-transfer steps take ``factor`` times longer than the
    cost model predicts, within a time window.  Installed as the membership
    engine's ``cost_perturbation`` hook by
    :class:`repro.faults.behaviours.FaultController`; the added latency is
    observed as ``membership.slowdown_penalty`` so scenario rows can report
    the straggler-induced operation-latency penalty.

    Attributes:
        groups: Vgroup ids to slow down (empty = every vgroup).
        factor: Duration multiplier (``>= 1``).
        start: Window start (inclusive).
        stop: Window end (exclusive; ``inf`` = forever).
    """

    groups: Tuple[str, ...] = ()
    factor: float = 2.0
    start: float = 0.0
    stop: float = math.inf

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        if self.start < 0.0:
            raise ValueError("start must be non-negative")
        if self.stop <= self.start:
            raise ValueError("stop must be after start")

    def applies(self, group_id: str, now: float) -> bool:
        if now < self.start or now >= self.stop:
            return False
        return not self.groups or group_id in self.groups


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, composable bundle of faults applied to one run.

    An empty plan is the identity: applying it schedules nothing, installs
    nothing and draws no randomness, so runs are byte-identical to runs
    without the fault subsystem (enforced by the golden-trace tests).
    """

    partitions: Tuple[Partition, ...] = ()
    links: Tuple[LinkFault, ...] = ()
    nodes: Tuple[NodeFault, ...] = ()
    slowdowns: Tuple[GroupSlowdown, ...] = ()
    #: Voluntary leaves, ``(time, address)``: the node leaves the system at
    #: ``time``.  A leave reshapes membership; it is not a fault, so its
    #: address is neither faulted nor unavailable.
    leaves: Tuple[Tuple[float, str], ...] = ()

    def is_empty(self) -> bool:
        return not (
            self.partitions or self.links or self.nodes or self.slowdowns or self.leaves
        )

    def faulted_addresses(self) -> FrozenSet[str]:
        """Every address named by a partition or node fault.

        Invariant monitors exempt these from the "correct node evicted"
        check: a partitioned or crashed node missing heartbeats *should* be
        evicted, exactly as the paper treats unresponsive nodes as failed.
        """
        addresses = set()
        for partition in self.partitions:
            addresses.update(partition.members)
        for node_fault in self.nodes:
            addresses.add(node_fault.address)
        return frozenset(addresses)

    def unavailable_addresses(self) -> FrozenSet[str]:
        """Addresses the plan makes *unavailable* (isolated or node-faulted).

        Unlike :meth:`faulted_addresses`, members of a *side-preserving*
        partition are excluded: each side keeps operating, so the paper's
        delivery bound still covers broadcasts those nodes originate —
        post-heal reconciliation is expected to deliver them everywhere.
        """
        addresses = set()
        for partition in self.partitions:
            if not partition.is_side_preserving:
                addresses.update(partition.members)
        for node_fault in self.nodes:
            addresses.add(node_fault.address)
        return frozenset(addresses)

    def compose(self, other: "FaultPlan") -> "FaultPlan":
        """The plan applying both this plan's faults and ``other``'s."""
        return FaultPlan(
            partitions=self.partitions + other.partitions,
            links=self.links + other.links,
            nodes=self.nodes + other.nodes,
            slowdowns=self.slowdowns + other.slowdowns,
            leaves=self.leaves + other.leaves,
        )

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return self.compose(other)


__all__ = [
    "FaultPlan",
    "Partition",
    "LinkFault",
    "NodeFault",
    "GroupSlowdown",
    "NODE_BEHAVIOURS",
    "RESPONDER_BEHAVIOURS",
]
