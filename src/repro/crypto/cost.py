"""Simulated CPU cost of cryptographic operations.

EC2 micro instances (the paper's node type) have weak CPUs; signature
verification in long certificate chains is expensive enough that the paper's
synchronous implementation avoids certificates altogether.  The cost model
lets protocols charge that CPU time to the simulated clock so the trade-off
is visible in experiments.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CryptoCostModel:
    """Per-operation CPU costs in seconds of simulated time.

    Defaults approximate a low-end VM: ~0.25 ms per signature
    verification, ~5 microseconds per hashed KB.
    """

    verify_seconds: float = 0.00025
    hash_seconds_per_kb: float = 0.000005

    def verify_cost(self, count: int = 1) -> float:
        return self.verify_seconds * count

    def hash_cost(self, size_bytes: int, threads: int = 1) -> float:
        """Hashing cost for ``size_bytes``; multithreading divides the cost.

        AShare exploits chunked transfers to hash chunks in parallel
        (paper section 4.2.2); ``threads`` models that speed-up.
        """
        effective_threads = max(1, threads)
        kb = size_bytes / 1024.0
        return self.hash_seconds_per_kb * kb / effective_threads

    def certificate_chain_verify_cost(self, chain_length: int, quorum: int) -> float:
        """Cost of verifying a random-walk certificate chain."""
        return self.verify_cost(chain_length * quorum)


__all__ = ["CryptoCostModel"]
