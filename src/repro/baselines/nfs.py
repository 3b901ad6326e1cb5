"""NFS-like single-server file service (the baseline of Figure 9).

NFS4 is the paper's baseline for AShare's GET: a client reads the whole file
from one server over one connection, with no fault-tolerance and no integrity
verification.  The same :class:`~repro.apps.transfer.TransferModel` is used as
for AShare, so the comparison isolates the transfer strategy (single stream
versus parallel chunked pulls) rather than differences in the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.transfer import TransferModel


@dataclass
class NfsConfig:
    """Configuration of the NFS-like baseline."""

    transfer: TransferModel = field(
        default_factory=lambda: TransferModel(verify_digests=False)
    )


class NfsServerModel:
    """A single file server; clients read files over one connection."""

    def __init__(self, config: Optional[NfsConfig] = None) -> None:
        self.config = config or NfsConfig()
        self._files: dict[str, int] = {}

    def store(self, name: str, size_bytes: int) -> None:
        """Register a file of the given size on the server."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        self._files[name] = size_bytes

    def read_latency(self, name: str) -> float:
        """Time for a client to read the whole file (seconds)."""
        if name not in self._files:
            raise KeyError(f"unknown file {name!r}")
        return self.config.transfer.single_stream_time(self._files[name])

    def read_latency_per_mb(self, name: str) -> float:
        """Normalised read latency (seconds per MB), as plotted in Figure 9."""
        size = self._files[name]
        return self.config.transfer.latency_per_mb(self.read_latency(name), size)


__all__ = ["NfsConfig", "NfsServerModel"]
