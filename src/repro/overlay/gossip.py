"""Which H-graph cycles a broadcast travels: the one gossip forward decision.

Atum disseminates a broadcast by gossiping group messages along the H-graph
edges; which neighbouring vgroups a vgroup forwards to is the application's
``forward`` decision (paper section 3.3.4).  The built-in decisions are named
policies, all values of one function, :func:`forward_cycles`:

* ``"flood"`` -- every cycle (lowest latency, most load);
* ``"single"`` / ``"double"`` -- one or two consecutive cycles (AStream's
  throughput-friendly configurations, section 6.2);
* ``"random"`` -- cycle 0 plus one more: classic gossip made deterministic,
  because every vgroup always gossips along one fixed cycle the message
  traverses whole, whatever the other pick is (section 3.2).

Every correct member of a vgroup must pick the same targets (otherwise the
group message never reaches a majority), so nothing here draws from an RNG:
the varying part of a selection derives from :func:`stable_hash` of the
message id.  A vgroup forwards through :func:`forward_targets` once per
broadcast: the first member to forward builds a
:class:`repro.core.forward.ForwardPlan` -- the targets in order, each with its
:func:`sends_first` flag, and the share envelopes -- and its co-members read
it from the cluster, keeping only their own skip test, ``forward_fn`` and
fan-out.  The structural :func:`dissemination_rounds` /
:func:`dissemination_trace` helpers walk an :class:`HGraph` with the same two
functions, so they pick the same cycles and the same neighbour order as a
plan.  They are an upper bound on what it sends, not a replay: a vertex of the
trace excludes nothing, while a node skips the vgroup it first accepted the
broadcast from and, in a Sync deployment, every later one whose whole current
view sent it a share before the vgroup's send along that edge.

A Sync forward is two sends, made by one record per (node, broadcast) that
is its own kernel event (:class:`repro.core.node.SyncForward`).  At the round
boundary a vgroup sends to the targets it :func:`sends_first` to; a few
milliseconds later it sends to the rest, minus every one whose whole current
view sent it a share by then.  Two adjacent vgroups that deliver in the same
round would otherwise send each other the broadcast at the same boundary;
staggered, the edge carries it once.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Collection, List, Sequence, Set, Tuple

from repro.overlay.hgraph import HGraph


@lru_cache(maxsize=4096)
def stable_hash(value: str) -> int:
    """A process-independent hash of a message id (``hash`` is salted).

    Four bytes of SHA-256: the width is part of the behaviour, since changing
    it would reshuffle every single/double/random run.  Ids repeat for every
    hop of a dissemination, then die; the LRU bound keeps long runs flat.
    """
    return int.from_bytes(hashlib.sha256(value.encode("utf-8")).digest()[:4], "big")


def forward_cycles(policy: str, message_id: str, hc: int) -> Sequence[int]:
    """The cycles (indices below ``hc``) a message is forwarded along."""
    if policy == "flood":
        return range(hc)
    if policy == "single":
        count = 1
    elif policy == "double":
        count = 2
    elif policy == "random":
        return (0, stable_hash(message_id) % hc)
    else:
        raise ValueError(f"unknown forward policy {policy!r}")
    start = stable_hash(message_id) % hc
    return [(start + offset) % hc for offset in range(count)]


def forward_targets(
    pairs: Sequence[Tuple[str, str]],
    cycles: Sequence[int],
    own: str,
    exclude: Collection[str] = (),
) -> List[str]:
    """Distinct neighbours on ``cycles``, predecessor first, cycle by cycle.

    ``pairs`` holds one (predecessor, successor) pair per cycle; ``own`` (a
    vertex is its own neighbour on a short cycle) and the group ids in
    ``exclude`` (the vgroups the message arrived from) are never targets.
    ``exclude`` is a collection of ids, never one bare id: ``"g1" in "g10"``.
    """
    targets: List[str] = []
    for cycle in cycles:
        for neighbor in pairs[cycle]:
            if neighbor != own and neighbor not in exclude and neighbor not in targets:
                targets.append(neighbor)
    return targets


def sends_first(message_id: str, own: str, target: str) -> bool:
    """Whether ``own`` sends ``message_id`` along its edge to ``target`` at the
    round boundary, before ``target`` would send it back.

    The two ends are ordered by ``stable_hash(message_id) ^ stable_hash(id)``,
    ties broken by id: both ends and every member of each agree, exactly one
    end goes first, and which one varies with the message.
    """
    salt = stable_hash(message_id)
    return (salt ^ stable_hash(own), own) < (salt ^ stable_hash(target), target)


def dissemination_trace(
    graph: HGraph,
    origin: str,
    policy: str = "flood",
    message_id: str = "m",
    max_rounds: int = 1000,
) -> List[List[Tuple[str, List[str]]]]:
    """Round-by-round forwarding trace: one ``(vertex, targets)`` row per hop.

    Frontier vertices are visited in sorted order, so the trace is
    reproducible across processes — this is what the golden
    dissemination-trace test replays.
    """
    cycles = forward_cycles(policy, message_id, graph.hc)
    reached: Set[str] = {origin}
    frontier: List[str] = [origin]
    rounds: List[List[Tuple[str, List[str]]]] = []
    while frontier and len(reached) < len(graph) and len(rounds) < max_rounds:
        row: List[Tuple[str, List[str]]] = []
        fresh: Set[str] = set()
        for vertex in frontier:
            targets = forward_targets(graph.cycle_pairs(vertex), cycles, vertex)
            row.append((vertex, targets))
            fresh.update(target for target in targets if target not in reached)
        reached |= fresh
        frontier = sorted(fresh)
        rounds.append(row)
    return rounds


def dissemination_rounds(
    graph: HGraph,
    origin: str,
    policy: str = "flood",
    message_id: str = "m",
    max_rounds: int = 1000,
) -> Tuple[int, Set[str]]:
    """How many gossip hops ``policy`` needs, and the vertices it reaches."""
    rounds = dissemination_trace(graph, origin, policy, message_id, max_rounds)
    reached = {origin}
    for row in rounds:
        for _vertex, targets in row:
            reached.update(targets)
    return len(rounds), reached


__all__ = [
    "stable_hash",
    "forward_cycles",
    "forward_targets",
    "sends_first",
    "dissemination_rounds",
    "dissemination_trace",
]
