"""AStream: a two-tier data streaming system (paper section 4.3).

Tier one is Atum itself: the source broadcasts small authentication metadata
(chunk digests) through the group communication layer, customising the
``forward`` callback to gossip on one (``Single``) or two (``Double``) H-graph
cycles -- the trade-off evaluated in Figure 12.

Tier two is a lightweight multicast over a *spanning forest*:

* a deterministic function picks one H-graph cycle ``w`` and a direction on
  it; every node selects ``f + 1`` parents among the members of the
  neighbouring vgroup in that direction (towards the source), so at least one
  parent is correct;
* nodes whose vgroup is the source's vgroup (or adjacent to it) use the source
  itself as their single parent, rooting the forest;
* data chunks are *pushed* down the forest; a node that received a chunk's
  digest through tier one but not the chunk itself *pulls* it from one of its
  other parents after a timeout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cluster import AtumCluster
from repro.core.config import SmrKind
from repro.core.node import BroadcastMessage
from repro.crypto.digest import digest_object


@dataclass(frozen=True)
class StreamChunk:
    """One chunk of the data stream."""

    stream_id: str
    index: int
    size_bytes: int
    created_at: float

    @property
    def digest(self) -> str:
        return digest_object({"stream": self.stream_id, "index": self.index, "size": self.size_bytes})


@dataclass
class _NodeStreamState:
    """Per-node state of one streaming session."""

    parents: List[str] = field(default_factory=list)
    children: List[str] = field(default_factory=list)
    received_chunks: Dict[int, float] = field(default_factory=dict)
    known_digests: Dict[int, str] = field(default_factory=dict)
    pulls_issued: int = 0


class AStreamSession:
    """One streaming session from a source node over an Atum cluster.

    Args:
        atum: The Atum cluster carrying the stream.
        source: Address of the streaming source.
        forward_policy: Tier-one gossip policy, ``"single"`` or ``"double"``
            (the two configurations of Figure 12).
        chunk_bytes: Size of a data chunk.
        rate_bytes_per_s: Stream data rate (1 MB/s in the paper).
        parents_per_node: Number of parents per node (``f + 1`` by default).
        pull_timeout: Time after which a missing chunk is pulled from an
            alternate parent.
    """

    def __init__(
        self,
        atum: AtumCluster,
        source: str,
        forward_policy: str = "single",
        chunk_bytes: int = 250_000,
        rate_bytes_per_s: float = 1_000_000.0,
        parents_per_node: Optional[int] = None,
        pull_timeout: float = 1.0,
        cycle: int = 0,
    ) -> None:
        self.atum = atum
        self.source = source
        self.forward_policy = forward_policy
        self.chunk_bytes = chunk_bytes
        self.rate_bytes_per_s = rate_bytes_per_s
        self.pull_timeout = pull_timeout
        self.cycle = cycle % max(1, atum.params.hc)
        self.stream_id = f"stream-{source}"
        self._chunk_counter = itertools.count(0)
        self.states: Dict[str, _NodeStreamState] = {}
        self.chunks: Dict[int, StreamChunk] = {}
        source_view = atum.nodes[source].vgroup_view
        if source_view is None:
            raise RuntimeError("the streaming source must be a member of the system")
        group_size = source_view.size
        self.parents_per_node = (
            parents_per_node
            if parents_per_node is not None
            else atum.params.fault_threshold(group_size) + 1
        )
        self._configure_tier1()
        self._build_forest()
        self._register_handlers()

    # ------------------------------------------------------------------- set-up

    def _configure_tier1(self) -> None:
        """Customise the forward callback of every node for this stream."""
        policy = "single" if self.forward_policy == "single" else "double"
        for node in self.atum.nodes.values():
            node.forward_policy = policy

    def _build_forest(self) -> None:
        """Build the spanning forest rooted at the source (section 4.3).

        Nodes of vgroup ``G`` choose their parents among the members of the
        predecessor vgroup of ``G`` on the chosen cycle (the vgroup one hop
        closer to the source when walking the cycle away from the source's
        vgroup); nodes in the source's own vgroup, and in its immediate
        successor vgroup, use the source as their single parent.
        """
        engine = self.atum.engine
        graph = engine.graph
        if graph is None:
            raise RuntimeError("the overlay is empty")
        rng = self.atum.sim.rng.stream("astream-forest")
        source_group = engine.node_group[self.source]

        for address, node in self.atum.nodes.items():
            if not node.is_member or address == self.source:
                continue
            state = self.states.setdefault(address, _NodeStreamState())
            group_id = engine.node_group.get(address)
            if group_id is None:
                continue
            if group_id == source_group:
                state.parents = [self.source]
            else:
                parent_group = graph.predecessor(group_id, self.cycle)
                if parent_group == source_group:
                    state.parents = [self.source]
                else:
                    candidates = [
                        member
                        for member in engine.groups[parent_group].members
                        if member != address
                    ]
                    rng.shuffle(candidates)
                    state.parents = candidates[: max(1, self.parents_per_node)] or [self.source]
                # Shortcut parent from another neighbouring vgroup (used as a
                # pull fallback when the node is far from the source).
                other_neighbors = [
                    g for g in graph.neighbors(group_id) if g not in (parent_group, group_id)
                ]
                if other_neighbors:
                    shortcut_group = sorted(other_neighbors)[0]
                    shortcut_members = list(engine.groups[shortcut_group].members)
                    if shortcut_members:
                        state.parents.append(shortcut_members[0])
        # Derive children lists from the parent lists.
        self.states.setdefault(self.source, _NodeStreamState())
        for address, state in self.states.items():
            for parent in state.parents:
                parent_state = self.states.setdefault(parent, _NodeStreamState())
                if address not in parent_state.children:
                    parent_state.children.append(address)

    def _register_handlers(self) -> None:
        for address, node in self.atum.nodes.items():
            node.register_direct_handler(
                "astream.push", lambda payload, sender, a=address: self._on_push(a, payload)
            )
            node.register_direct_handler(
                "astream.pull", lambda payload, sender, a=address: self._on_pull(a, payload, sender)
            )
            previous = node.deliver_fn
            node.deliver_fn = self._make_tier1_deliver(address, previous)  # atumlint: allow[ATL009] application-tier delivery decoration; observability belongs in repro.core.middleware

    def _make_tier1_deliver(self, address: str, previous):
        def deliver(message: BroadcastMessage) -> None:
            if previous is not None:
                previous(message)
            payload = message.payload
            if isinstance(payload, dict) and payload.get("app") == "astream":
                self._on_digest(address, payload)

        return deliver

    # ---------------------------------------------------------------- streaming

    def stream(self, duration_s: float) -> int:
        """Schedule the emission of ``duration_s`` seconds of stream data.

        Returns the number of chunks that will be emitted.  The caller then
        advances the simulation (``atum.run_for``) to let them propagate.
        """
        interval = self.chunk_bytes / self.rate_bytes_per_s
        count = max(1, int(duration_s / interval))
        for index in range(count):
            self.atum.sim.schedule(index * interval, self._emit_chunk, tag="astream.emit")
        return count

    def _emit_chunk(self) -> None:
        index = next(self._chunk_counter)
        chunk = StreamChunk(
            stream_id=self.stream_id,
            index=index,
            size_bytes=self.chunk_bytes,
            created_at=self.atum.sim.now,
        )
        self.chunks[index] = chunk
        source_state = self.states[self.source]
        source_state.received_chunks[index] = self.atum.sim.now
        # Tier one: broadcast the chunk digest through Atum.
        self.atum.broadcast(
            self.source,
            {"app": "astream", "stream": self.stream_id, "index": index, "digest": chunk.digest},
            size_bytes=96,
        )
        # Tier two: push the chunk to the source's children.
        self._push_to_children(self.source, chunk)

    def _push_to_children(self, address: str, chunk: StreamChunk) -> None:
        node = self.atum.nodes[address]
        if not node.is_correct and address != self.source:
            return  # Byzantine nodes do not forward stream data.
        state = self.states.get(address)
        if state is None:
            return
        for child in state.children:
            node.send_direct(
                child,
                "astream.push",
                {"chunk": chunk},
                size_bytes=chunk.size_bytes,
            )

    def _on_push(self, address: str, payload: Dict) -> None:
        chunk = payload.get("chunk")
        if not isinstance(chunk, StreamChunk):
            return
        self._accept_chunk(address, chunk)

    def _accept_chunk(self, address: str, chunk: StreamChunk) -> None:
        state = self.states.setdefault(address, _NodeStreamState())
        if chunk.index in state.received_chunks:
            return
        known_digest = state.known_digests.get(chunk.index)
        if known_digest is not None and known_digest != chunk.digest:
            self.atum.sim.metrics.increment("astream.invalid_chunks")
            return
        state.received_chunks[chunk.index] = self.atum.sim.now
        self.atum.sim.metrics.observe(
            "astream.tier2_latency", self.atum.sim.now - chunk.created_at
        )
        self._push_to_children(address, chunk)

    # ------------------------------------------------------------------ pulling

    def _on_digest(self, address: str, payload: Dict) -> None:
        """Tier-one delivery of a chunk digest: arm the pull fallback."""
        index = payload.get("index")
        digest = payload.get("digest")
        if index is None or digest is None:
            return
        state = self.states.setdefault(address, _NodeStreamState())
        state.known_digests[index] = digest
        if index in state.received_chunks or address == self.source:
            return

        def maybe_pull() -> None:
            current = self.states.get(address)
            if current is None or index in current.received_chunks:
                return
            current.pulls_issued += 1
            self.atum.sim.metrics.increment("astream.pulls")
            node = self.atum.nodes[address]
            for parent in current.parents:
                node.send_direct(parent, "astream.pull", {"index": index}, size_bytes=64)

        self.atum.sim.schedule(self.pull_timeout, maybe_pull, tag="astream.pull-check")

    def _on_pull(self, address: str, payload: Dict, requester: str) -> None:
        index = payload.get("index")
        state = self.states.get(address)
        node = self.atum.nodes[address]
        if state is None or index not in state.received_chunks or not node.is_correct:
            return
        chunk = self.chunks.get(index)
        if chunk is None:
            return
        node.send_direct(requester, "astream.push", {"chunk": chunk}, size_bytes=chunk.size_bytes)

    # ------------------------------------------------------------------ queries

    def delivery_fraction(self, chunk_index: int) -> float:
        """Fraction of correct member nodes that received the given chunk."""
        members = [
            address
            for address, node in self.atum.nodes.items()
            if node.is_correct and node.is_member
        ]
        if not members:
            return 0.0
        received = sum(
            1
            for address in members
            if chunk_index in self.states.get(address, _NodeStreamState()).received_chunks
        )
        return received / len(members)

    def tier2_latencies(self) -> List[float]:
        """All tier-two chunk delivery latencies observed so far."""
        return list(self.atum.sim.metrics.histogram("astream.tier2_latency").samples)


__all__ = ["StreamChunk", "AStreamSession"]
