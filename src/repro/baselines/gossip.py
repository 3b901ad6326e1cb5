"""Classic round-based, crash-tolerant gossip with global membership.

This is the first baseline of the paper's Figure 8: every node has a global
membership view, and in every round exchanges the message with ``fanout``
random nodes.  To make the comparison with Atum fair, the paper sets the
fanout to the size of an Atum node's view (a loose upper bound on Atum's
fanout) and the round duration to the same 1.5 seconds.

The simulation is round-driven and failure-free (the paper's configuration),
and reports the per-node delivery latency of one broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.sim.simulator import Simulator


@dataclass
class GossipConfig:
    """Configuration of the classic gossip baseline.

    Attributes:
        num_nodes: System size (850 in the paper's comparison).
        fanout: Number of random peers contacted per round.
        round_duration: Round length in seconds (1.5 s in the paper).
        max_rounds: Safety bound on the number of rounds simulated.
    """

    num_nodes: int = 850
    fanout: int = 15
    round_duration: float = 1.5
    max_rounds: int = 100


class ClassicGossipSimulation:
    """Round-by-round push gossip over a complete membership view."""

    def __init__(self, config: GossipConfig, seed: int = 0) -> None:
        self.config = config
        self.sim = Simulator(seed=seed)
        self._rng = self.sim.rng.stream("classic-gossip")
        self.delivery_round: Dict[int, int] = {}

    def run_broadcast(self, origin: int = 0) -> Dict[int, float]:
        """Disseminate one message from ``origin``; returns delivery time per node."""
        config = self.config
        infected: Set[int] = {origin}
        self.delivery_round = {origin: 0}
        rounds = 0
        while len(infected) < config.num_nodes and rounds < config.max_rounds:
            rounds += 1
            newly_infected: Set[int] = set()
            for node in infected:
                for _ in range(config.fanout):
                    peer = self._rng.randrange(config.num_nodes)
                    if peer not in infected and peer not in newly_infected:
                        newly_infected.add(peer)
                        self.delivery_round[peer] = rounds
            infected.update(newly_infected)
        return {
            node: round_index * config.round_duration
            for node, round_index in self.delivery_round.items()
        }

    def delivery_latencies(self, origin: int = 0) -> List[float]:
        """Latency samples (seconds) of one broadcast, one entry per node reached."""
        return sorted(self.run_broadcast(origin).values())


__all__ = ["GossipConfig", "ClassicGossipSimulation"]
