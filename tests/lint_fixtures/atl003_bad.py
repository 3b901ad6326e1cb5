"""ATL003 fixture: unordered set iteration feeding protocol sinks."""

from typing import Set


def flood(peers, transport):
    alive = {peer for peer in peers if peer}
    for peer in alive:
        transport.send(peer)


def pick(peers, rng):
    candidates = set(peers)
    return rng.sample(candidates, 2)


def drain(tasks):
    pending = set(tasks)
    return pending.pop()


class Graph:
    def neighbors(self, vertex: str) -> Set[str]:
        return set(self.edges[vertex])


class Engine:
    def merge(self, group_id, moving):
        # MembershipEngine._merge as it was until PR 21: the set arrives
        # through a method call and reaches the draw as a twice-filtered list.
        neighbors = [g for g in self.graph.neighbors(group_id) if g in self.groups]
        fitting = [
            g for g in neighbors if self.groups[g].size + len(moving) <= self.config.gmax
        ]
        if fitting:
            target = self._rng.choice(fitting)
        else:
            target = min(neighbors, key=lambda g: (self.groups[g].size, g))
        return target
