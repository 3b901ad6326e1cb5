"""ATL003 fixture: the same set flows, made deterministic or suppressed."""

from typing import List, Set


def flood(peers, transport):
    alive = {peer for peer in peers if peer}
    for peer in sorted(alive):
        transport.send(peer)


def pick(peers, rng):
    candidates = set(peers)
    return rng.sample(sorted(candidates), 2)


def drain(tasks):
    pending = set(tasks)
    # atumlint: allow[ATL003] fixture: drain is order-insensitive, results are re-sorted by the caller
    return pending.pop()


class Graph:
    def neighbors(self, vertex: str) -> Set[str]:
        return set(self.edges[vertex])

    def peers(self, vertex: str) -> Set[str]:
        return set(self.edges[vertex])


class Roster:
    def peers(self, vertex: str) -> List[str]:
        return self.order[vertex]


class Engine:
    def merge(self, group_id, moving):
        neighbors = [g for g in sorted(self.graph.neighbors(group_id)) if g in self.groups]
        fitting = [
            g for g in neighbors if self.groups[g].size + len(moving) <= self.config.gmax
        ]
        if fitting:
            target = self._rng.choice(fitting)
        else:
            target = min(neighbors, key=lambda g: (self.groups[g].size, g))
        return target

    def pick_peer(self, vertex):
        # ``peers`` returns a set in one class and a list in another: a bare
        # name cannot tell them apart, so the rule stays silent.
        return self._rng.choice(list(self.roster.peers(vertex)))
