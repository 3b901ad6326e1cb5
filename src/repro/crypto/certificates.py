"""Random-walk certificates (paper section 5.1, "Random walk communication").

When a random walk is carried out with certificates, each forwarding vgroup
appends a :class:`WalkCertificate` attesting to the identity of the next hop.
The selected vgroup can then reply directly to the originator, which verifies
the whole :class:`CertificateChain`.  The chain grows linearly in the walk
length -- the trade-off the paper discusses against the backward-phase scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.crypto.digest import digest_object
from repro.crypto.keys import KeyRegistry, Signature


@dataclass(frozen=True)
class WalkCertificate:
    """One hop of a certified random walk.

    The certificate states: vgroup ``issuer`` (identified by its group id)
    forwarded walk ``walk_id`` to vgroup ``next_hop`` at hop index ``hop``.
    ``signatures`` contains one signature per issuer-group member that signed
    the statement; a certificate is valid when a majority of the issuer's
    membership signed it.
    """

    walk_id: str
    hop: int
    issuer: str
    issuer_members: tuple
    next_hop: str
    signatures: tuple

    def statement(self) -> dict:
        """The signed statement (excludes the signatures themselves)."""
        return {
            "walk_id": self.walk_id,
            "hop": self.hop,
            "issuer": self.issuer,
            "issuer_members": list(self.issuer_members),
            "next_hop": self.next_hop,
        }


def make_certificate(
    registry: KeyRegistry,
    walk_id: str,
    hop: int,
    issuer: str,
    issuer_members: Sequence[str],
    next_hop: str,
    signers: Sequence[str],
) -> WalkCertificate:
    """Build a certificate signed by ``signers`` (members of the issuer vgroup)."""
    certificate = WalkCertificate(
        walk_id=walk_id,
        hop=hop,
        issuer=issuer,
        issuer_members=tuple(issuer_members),
        next_hop=next_hop,
        signatures=(),
    )
    statement = certificate.statement()
    signatures = tuple(registry.sign(signer, statement) for signer in signers)
    return WalkCertificate(
        walk_id=walk_id,
        hop=hop,
        issuer=issuer,
        issuer_members=tuple(issuer_members),
        next_hop=next_hop,
        signatures=signatures,
    )


@dataclass
class CertificateChain:
    """An ordered chain of walk certificates, one per hop."""

    walk_id: str
    certificates: List[WalkCertificate] = field(default_factory=list)

    def append(self, certificate: WalkCertificate) -> None:
        self.certificates.append(certificate)

    def size_bytes(self, per_certificate_bytes: int = 512) -> int:
        """Approximate serialized size; linear in the walk length."""
        return per_certificate_bytes * len(self.certificates)

    def verify(self, registry: KeyRegistry, origin_group: str) -> bool:
        """Verify the chain: signatures, majority quorums and hop linkage.

        The statement of each certificate is canonicalised and digested once,
        then every signature is checked against that digest.  A quorum counts
        *distinct* signers: duplicated signatures from one member do not add
        up to a majority.

        Args:
            registry: Key registry used to check signatures.
            origin_group: Group id that started the walk; the first certificate
                must be issued by it.
        """
        previous_next = origin_group
        for index, certificate in enumerate(self.certificates):
            if certificate.walk_id != self.walk_id:
                return False
            if certificate.hop != index:
                return False
            if certificate.issuer != previous_next:
                return False
            expected = digest_object(certificate.statement())
            members = certificate.issuer_members
            valid_signers = set()
            for signature in certificate.signatures:
                if not isinstance(signature, Signature):
                    continue
                if signature.signer not in members:
                    continue
                if registry.verify_digest(signature, expected):
                    valid_signers.add(signature.signer)
            required = len(members) // 2 + 1
            if len(valid_signers) < required:
                return False
            previous_next = certificate.next_hop
        return True


__all__ = ["WalkCertificate", "CertificateChain", "make_certificate"]
