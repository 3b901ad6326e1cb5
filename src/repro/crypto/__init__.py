"""Cryptographic substrate.

The paper assumes public-key signatures, MACs and a collision-resistant hash
(SHA-2).  Inside the simulation we use real SHA-256 for digests and a keyed
HMAC construction, mediated by a :class:`KeyRegistry`, to stand in for
public-key signatures: only the key registry can produce a node's signature,
and any holder of the registry can verify it.  This preserves the property the
protocols rely on (a Byzantine node cannot forge another node's signature)
without the cost of real asymmetric cryptography, whose CPU cost is instead
charged to simulated time via :class:`CryptoCostModel`.
"""

from repro.crypto.digest import Digest, digest_object
from repro.crypto.keys import KeyPair, KeyRegistry, Signature
from repro.crypto.certificates import WalkCertificate, CertificateChain
from repro.crypto.cost import CryptoCostModel

__all__ = [
    "digest_object",
    "Digest",
    "KeyPair",
    "KeyRegistry",
    "Signature",
    "WalkCertificate",
    "CertificateChain",
    "CryptoCostModel",
]
