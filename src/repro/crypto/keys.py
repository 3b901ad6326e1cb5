"""Simulated public-key signatures.

A :class:`KeyRegistry` plays the role of the PKI assumed by the paper: every
node owns a :class:`KeyPair` registered under its address, signatures are
HMAC-SHA256 values keyed by the node's secret, and verification consults the
registry.  Because protocol code only ever holds the *registry* (never another
node's secret), a Byzantine node implemented on top of this library cannot
fabricate signatures of correct nodes -- the property Dolev-Strong and PBFT
need.

The registry computes each MAC once per simulated value: it keeps the MAC of
every ``(signer, digest)`` it has signed or checked in an LRU bounded by the
digest memo's ``_MEMO_LIMIT``, keyed by value (no ``id()``).  A signature is
HMACed when it is made; verifying it at each of the ``n - 1`` receivers is
then the signer and digest checks, a lookup and ``hmac.compare_digest``
against the MAC the signer's key produces -- never against the MAC the
signature carries.  The trust model is unchanged: the cache holds only what
the registry itself computed from its secrets, an evicted entry recomputes
the same MAC, and protocol code still holds only the registry.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.crypto.digest import _MEMO_LIMIT, digest_object


@dataclass(frozen=True)
class Signature:
    """A signature over an object digest by a named signer."""

    signer: str
    digest: str
    mac: str


@dataclass(frozen=True)
class KeyPair:
    """A (simulated) key pair: the secret is only known to the registry."""

    owner: str
    secret: bytes

    def mac_of(self, digest: str) -> str:
        """The MAC this key produces over a digest (single source of truth)."""
        return hmac.new(self.secret, digest.encode("utf-8"), hashlib.sha256).hexdigest()


class KeyRegistry:
    """Creates and verifies signatures for a population of nodes."""

    def __init__(self, domain: str = "atum") -> None:
        self.domain = domain
        self._keys: Dict[str, KeyPair] = {}
        # (signer, digest) -> that signer's MAC over the digest; an LRU.
        self._macs: Dict[Tuple[str, str], str] = {}

    def generate(self, owner: str) -> KeyPair:
        """Create (or return the existing) key pair for ``owner``."""
        if owner not in self._keys:
            secret = hashlib.sha256(f"{self.domain}:{owner}".encode("utf-8")).digest()
            self._keys[owner] = KeyPair(owner=owner, secret=secret)
        return self._keys[owner]

    def _mac(self, key: KeyPair, digest: str) -> str:
        """``key.mac_of(digest)``, computed once per ``(owner, digest)`` while cached."""
        entry = (key.owner, digest)
        mac = self._macs.pop(entry, None)
        if mac is None:
            mac = key.mac_of(digest)
            if len(self._macs) >= _MEMO_LIMIT:
                self._macs.pop(next(iter(self._macs)))
        self._macs[entry] = mac
        return mac

    def sign(self, owner: str, obj: Any) -> Signature:
        """Sign ``obj`` on behalf of ``owner`` (creating a key if necessary)."""
        digest = digest_object(obj)
        return Signature(signer=owner, digest=digest, mac=self._mac(self.generate(owner), digest))

    def verify(self, signature: Signature, obj: Any) -> bool:
        """Return ``True`` iff ``signature`` is a valid signature of ``obj``."""
        return self.verify_digest(signature, digest_object(obj))

    def verify_digest(self, signature: Signature, digest: str) -> bool:
        """Verify against a precomputed digest of the signed object.

        Lets callers that check many signatures over the same statement (e.g.
        certificate chains) canonicalise and digest the statement once instead
        of twice per signature.
        """
        key = self._keys.get(signature.signer)
        if key is None:
            return False
        if signature.digest != digest:
            return False
        return hmac.compare_digest(self._mac(key, digest), signature.mac)


__all__ = ["KeyPair", "KeyRegistry", "Signature"]
