"""AShare: a file sharing service on top of Atum (paper section 4.2).

AShare separates *data* (file content, stored as chunked replicas at a random
subset of nodes) from *metadata* (the mapping between files and nodes, sizes,
owners and chunk digests, replicated at every node inside the *metadata
index*).  Atum provides the messaging and membership layer: every metadata
update is an Atum broadcast, so every node keeps a consistent index.

Protection mechanisms (section 4.2.2):

* **Randomized replication with a feedback loop** -- when a file has fewer
  than ``rho`` replicas, every node that does not yet store it replicates it
  with probability ``(rho - c) / n``; completed replications are announced
  with a broadcast, which re-triggers the algorithm until ``rho`` replicas
  exist.
* **Integrity checks** -- files are transferred in chunks; each chunk's SHA-2
  digest is part of the metadata, corrupt chunks are detected and re-pulled
  from another replica.

File content is represented symbolically (sizes and digests, not actual
bytes): the simulation needs transfer times and integrity-check outcomes, not
gigabytes of RAM.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.apps.transfer import TransferModel
from repro.core.cluster import AtumCluster
from repro.core.node import BroadcastMessage
from repro.crypto.digest import digest_object


def chunk_digest(owner: str, name: str, chunk_index: int, corrupted: bool = False) -> str:
    """Digest of one chunk of a file.

    Content is synthetic: the digest is derived from the file identity and the
    chunk index.  A corrupted replica yields a different digest, which is how
    integrity checks detect it.
    """
    marker = "corrupted" if corrupted else "pristine"
    return digest_object({"owner": owner, "name": name, "chunk": chunk_index, "state": marker})


@dataclass
class FileRecord:
    """One entry of the metadata index.

    Attributes:
        owner: Owner of the file (namespaces are per-owner, section 4.2.1).
        name: File name within the owner's namespace.
        size_bytes: Total file size.
        num_chunks: Number of transfer chunks.
        chunk_digests: Digest of every chunk (the ``d`` of a PUT).
        replicas: Addresses of nodes currently announcing a replica.
    """

    owner: str
    name: str
    size_bytes: int
    num_chunks: int
    chunk_digests: Tuple[str, ...]
    replicas: Set[str] = field(default_factory=set)

    @property
    def file_id(self) -> Tuple[str, str]:
        return (self.owner, self.name)

    def chunk_sizes(self) -> List[int]:
        base = self.size_bytes // self.num_chunks
        sizes = [base] * self.num_chunks
        sizes[-1] += self.size_bytes - base * self.num_chunks
        return sizes


class MetadataIndex:
    """The per-node metadata index (soft state, complete copy at every node).

    The paper implements it as a key-value store on SQLite; here it is an
    in-memory structure with the same query surface (lookup, replica tracking,
    substring search over owners and names).
    """

    def __init__(self) -> None:
        self._records: Dict[Tuple[str, str], FileRecord] = {}

    def put(self, record: FileRecord) -> None:
        self._records[record.file_id] = record

    def get(self, owner: str, name: str) -> Optional[FileRecord]:
        return self._records.get((owner, name))

    def delete(self, owner: str, name: str) -> None:
        self._records.pop((owner, name), None)

    def add_replica(self, owner: str, name: str, holder: str) -> None:
        record = self._records.get((owner, name))
        if record is not None:
            record.replicas.add(holder)

    def replica_count(self, owner: str, name: str) -> int:
        record = self._records.get((owner, name))
        return len(record.replicas) if record else 0

    def search(self, term: str) -> List[FileRecord]:
        """Substring search over owner and file names (the SEARCH operation)."""
        needle = term.lower()
        return [
            record
            for record in self._records.values()
            if needle in record.owner.lower() or needle in record.name.lower()
        ]


@dataclass
class _StoredReplica:
    """A replica held by a node; Byzantine holders corrupt their replicas."""

    owner: str
    name: str
    corrupted: bool = False


class AShareCluster:
    """AShare deployed over an existing Atum cluster.

    Args:
        atum: The underlying Atum cluster (its nodes become AShare nodes).
        rho: Target replica count per file (a fraction of system size in the
            paper, e.g. 0.1 to 0.3 of N).
        transfer: Bulk-transfer cost model (shared with the NFS baseline).
        byzantine_corrupt_replicas: Whether Byzantine nodes corrupt every
            replica they store (the attack of Figures 10-11).
    """

    def __init__(
        self,
        atum: AtumCluster,
        rho: int = 8,
        transfer: Optional[TransferModel] = None,
        byzantine_corrupt_replicas: bool = True,
        replication_feedback: bool = True,
    ) -> None:
        self.atum = atum
        self.rho = rho
        self.transfer = transfer or TransferModel()
        self.byzantine_corrupt_replicas = byzantine_corrupt_replicas
        self.replication_feedback = replication_feedback
        self.indexes: Dict[str, MetadataIndex] = {}
        self.stored: Dict[str, Dict[Tuple[str, str], _StoredReplica]] = {}
        self._get_counter = itertools.count(1)
        self._rng = atum.sim.rng.stream("ashare")
        for address, node in atum.nodes.items():
            self.indexes[address] = MetadataIndex()
            self.stored[address] = {}
            node.deliver_fn = self._make_deliver(address, node.deliver_fn)  # atumlint: allow[ATL009] application-tier delivery decoration; observability belongs in repro.core.middleware

    # ------------------------------------------------------------------ helpers

    @property
    def sim(self):
        return self.atum.sim

    def is_byzantine(self, address: str) -> bool:
        node = self.atum.nodes.get(address)
        return node is not None and not node.is_correct

    def _make_deliver(
        self, address: str, previous: Optional[Callable[[BroadcastMessage], None]]
    ) -> Callable[[BroadcastMessage], None]:
        def deliver(message: BroadcastMessage) -> None:
            if previous is not None:
                previous(message)
            payload = message.payload
            if isinstance(payload, dict) and payload.get("app") == "ashare":
                self._apply_metadata_update(address, payload)

        return deliver

    # ----------------------------------------------------------------- interface

    def put(
        self,
        owner: str,
        name: str,
        size_bytes: int,
        num_chunks: int = 10,
    ) -> FileRecord:
        """PUT: register a file and start replicating it (section 4.2.2)."""
        digests = tuple(chunk_digest(owner, name, index) for index in range(num_chunks))
        record = FileRecord(
            owner=owner,
            name=name,
            size_bytes=size_bytes,
            num_chunks=num_chunks,
            chunk_digests=digests,
            replicas={owner},
        )
        # The owner stores the original copy (possibly corrupted if Byzantine).
        self.stored[owner][record.file_id] = _StoredReplica(
            owner=owner, name=name, corrupted=self._corrupts(owner)
        )
        self.atum.broadcast(
            owner,
            {
                "app": "ashare",
                "op": "put",
                "owner": owner,
                "name": name,
                "size_bytes": size_bytes,
                "num_chunks": num_chunks,
                "chunk_digests": list(digests),
            },
            size_bytes=256 + 32 * num_chunks,
        )
        return record

    def delete(self, owner: str, name: str) -> None:
        """DELETE: remove the file and all its replicas."""
        self.atum.broadcast(
            owner,
            {"app": "ashare", "op": "delete", "owner": owner, "name": name},
            size_bytes=128,
        )

    def search(self, requester: str, term: str) -> List[FileRecord]:
        """SEARCH: query the requester's local index."""
        return self.indexes[requester].search(term)

    def get(
        self,
        reader: str,
        owner: str,
        name: str,
        replicate: bool = False,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> Optional[float]:
        """GET: read a file via parallel chunked pulls with integrity checks.

        Returns the read latency in seconds (also recorded in the metric
        ``ashare.get_latency``), or ``None`` if the file is unknown or has no
        reachable replica.  Completion is also scheduled on the simulator, so
        replication announcements happen at the right simulated time.
        """
        index = self.indexes[reader]
        record = index.get(owner, name)
        if record is None:
            self.sim.metrics.increment("ashare.get_missing")
            return None
        sources = [address for address in sorted(record.replicas) if address != reader]
        if not sources:
            self.sim.metrics.increment("ashare.get_no_replica")
            return None
        latency = self._read_latency(reader, record, sources)
        self.sim.metrics.observe("ashare.get_latency", latency)
        self.sim.metrics.observe(
            "ashare.get_latency_per_mb", self.transfer.latency_per_mb(latency, record.size_bytes)
        )

        def complete() -> None:
            if replicate:
                self.stored[reader][record.file_id] = _StoredReplica(
                    owner=owner, name=name, corrupted=self._corrupts(reader)
                )
                node = self.atum.nodes.get(reader)
                if node is not None and node.is_member:
                    self.atum.broadcast(
                        reader,
                        {
                            "app": "ashare",
                            "op": "replica",
                            "owner": owner,
                            "name": name,
                            "holder": reader,
                        },
                        size_bytes=128,
                    )
            if on_complete is not None:
                on_complete(latency)

        self.sim.schedule(latency, complete, tag="ashare.get")
        return latency

    # ----------------------------------------------------------------- internals

    def _corrupts(self, address: str) -> bool:
        return self.byzantine_corrupt_replicas and self.is_byzantine(address)

    def _read_latency(self, reader: str, record: FileRecord, sources: Sequence[str]) -> float:
        """Latency of a chunked parallel read from the given replica holders."""
        chunk_sizes = record.chunk_sizes()
        connections = max(1, min(len(sources), record.num_chunks))
        chosen = list(sources)[:connections]
        corrupted_chunks = 0
        for chunk_index in range(record.num_chunks):
            holder = chosen[chunk_index % len(chosen)]
            stored = self.stored.get(holder, {}).get(record.file_id)
            holder_corrupted = stored.corrupted if stored is not None else self._corrupts(holder)
            if holder_corrupted:
                corrupted_chunks += 1
        return self.transfer.chunked_read_time(
            chunk_sizes, parallel_connections=connections, corrupted_chunks=corrupted_chunks
        )

    def _apply_metadata_update(self, address: str, payload: Dict[str, Any]) -> None:
        index = self.indexes[address]
        operation = payload.get("op")
        if operation == "put":
            record = FileRecord(
                owner=payload["owner"],
                name=payload["name"],
                size_bytes=payload["size_bytes"],
                num_chunks=payload["num_chunks"],
                chunk_digests=tuple(payload["chunk_digests"]),
                replicas={payload["owner"]},
            )
            index.put(record)
            self._maybe_replicate(address, record.owner, record.name)
        elif operation == "replica":
            index.add_replica(payload["owner"], payload["name"], payload["holder"])
            self._maybe_replicate(address, payload["owner"], payload["name"])
        elif operation == "delete":
            index.delete(payload["owner"], payload["name"])
            self.stored[address].pop((payload["owner"], payload["name"]), None)

    def _maybe_replicate(self, address: str, owner: str, name: str) -> None:
        """The randomized replication feedback loop (Figure 5)."""
        if not self.replication_feedback:
            return
        if self.is_byzantine(address):
            return
        index = self.indexes[address]
        record = index.get(owner, name)
        if record is None or address in record.replicas:
            return
        if (owner, name) in self.stored[address]:
            return
        count = index.replica_count(owner, name)
        if count >= self.rho:
            return
        system_size = max(1, self.atum.system_size)
        probability = (self.rho - count) / system_size
        if self._rng.random() < probability:
            self.sim.metrics.increment("ashare.replications_started")
            self.get(address, owner, name, replicate=True)

    # ------------------------------------------------------------------ queries

    def replica_count(self, owner: str, name: str, as_seen_by: Optional[str] = None) -> int:
        viewer = as_seen_by or owner
        return self.indexes[viewer].replica_count(owner, name)

    def seed_replicas(self, owner: str, name: str, holders: Sequence[str]) -> None:
        """Directly install replicas and index entries (experiment setup helper).

        Used by benchmarks that need a pre-replicated corpus (e.g. 500 files at
        8-20 replicas each) without replaying the replication feedback loop.
        """
        record_template = None
        for address, index in self.indexes.items():
            record = index.get(owner, name)
            if record is not None:
                record_template = record
                break
        if record_template is None:
            raise KeyError(f"file ({owner}, {name}) is not in any index; PUT it first")
        for holder in holders:
            self.stored.setdefault(holder, {})[(owner, name)] = _StoredReplica(
                owner=owner, name=name, corrupted=self._corrupts(holder)
            )
            for index in self.indexes.values():
                index.add_replica(owner, name, holder)


__all__ = [
    "chunk_digest",
    "FileRecord",
    "MetadataIndex",
    "AShareCluster",
]
