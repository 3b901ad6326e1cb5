"""Reproducible, named random streams.

Every stochastic component of the simulation (network latency, gossip fan-out
choices, random walks, workload drivers, Byzantine strategies, ...) draws from
its own named stream derived from a single master seed.  This keeps runs
reproducible while decoupling the randomness consumed by unrelated components:
adding an extra latency sample does not perturb, say, the H-graph structure.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream ``name``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def named_stream(name: str, master_seed: int = 0) -> random.Random:
    """A standalone named stream: ``random.Random(derive_seed(master_seed, name))``.

    The one-off counterpart of :meth:`RngRegistry.stream` for components
    that need a single deterministic stream without carrying a registry —
    default-RNG fallbacks, per-broadcast group-consistent draws, scenario
    fault selection.  atumlint rule ATL001 forbids constructing
    ``random.Random`` anywhere else, so every draw in the system is
    attributable to a ``(master_seed, name)`` pair.
    """
    return random.Random(derive_seed(master_seed, name))


class RngRegistry:
    """A registry of named :class:`random.Random` streams.

    Streams are created lazily on first access and are stable across runs for
    a given ``(master_seed, name)`` pair.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it if needed."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]


__all__ = ["RngRegistry", "derive_seed", "named_stream"]
