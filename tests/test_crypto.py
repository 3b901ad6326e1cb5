"""Unit tests for the crypto substrate."""

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any

import pytest

from repro.crypto import (
    CertificateChain,
    CryptoCostModel,
    KeyRegistry,
    digest_object,
)
from repro.crypto.certificates import make_certificate
from repro.crypto.keys import Signature
from repro.crypto import digest as digest_module
from repro.crypto.digest import (
    _canonical,
    audit_digest_memo,
    canonical_encode,
    clear_digest_memo,
    seal,
)


class TestDigests:
    def test_digest_object_is_order_insensitive_for_dicts(self):
        assert digest_object({"a": 1, "b": 2}) == digest_object({"b": 2, "a": 1})

    def test_digest_object_differs_for_different_content(self):
        assert digest_object({"a": 1}) != digest_object({"a": 2})

    def test_digest_handles_nested_structures(self):
        obj = {"list": [1, 2, {"x": (3, 4)}], "set": {"b", "a"}, "bytes": b"\x00\x01"}
        assert isinstance(digest_object(obj), str)
        assert digest_object(obj) == digest_object(obj)

    def test_digest_dataclass(self):
        from dataclasses import dataclass

        @dataclass
        class Point:
            x: int
            y: int

        assert digest_object(Point(1, 2)) == digest_object(Point(1, 2))
        assert digest_object(Point(1, 2)) != digest_object(Point(2, 1))

    def test_mixed_type_set_does_not_raise(self):
        """Regression: sorting a canonicalised mixed-type set used to raise
        TypeError (e.g. int vs str).  It must digest deterministically now."""
        obj = {"set": {1, "one", (2, 3), frozenset({"x"})}}
        first = digest_object(obj)
        second = digest_object({"set": {frozenset({"x"}), (2, 3), "one", 1}})
        assert first == second
        # The reference canonicaliser tolerates mixed sets too.
        assert _canonical(obj) == _canonical(obj)

    def test_fast_encoder_matches_reference_canonical(self):
        """canonical_encode must equal json.dumps over the reference transform."""
        from dataclasses import dataclass, field

        @dataclass
        class Inner:
            values: tuple
            blob: bytes

        @dataclass
        class Outer:
            name: str
            inner: Inner
            table: dict = field(default_factory=dict)

        @dataclass(frozen=True)
        class Tag:
            name: str

        @dataclass(frozen=True)
        class Tagged:
            tags: frozenset

        samples = [
            {"b": 2, "a": {1, 2, 3}, "c": [None, True, 1.5, b"\xff"]},
            Outer("x", Inner((1, "two"), b"\x00"), {"k": Inner((0,), b"")}),
            [Outer("y", Inner((), b"z"), {})],
            {"nested": {"deep": [{"set": {"a", "b"}}]}},
            # Dataclasses inside a set under a dataclass keep their __dc__
            # marker (asdict never recursed into sets).
            Tagged(frozenset({Tag("a"), Tag("b")})),
            {"top": {Tag("c")}},
        ]
        for obj in samples:
            reference = json.dumps(_canonical(obj), sort_keys=True, default=str)
            assert canonical_encode(obj) == reference

        @dataclass(frozen=True)
        class OtherTag:
            name: str

        # Distinct dataclass types with equal fields must not collide, even
        # nested in sets beneath a dataclass.
        assert digest_object(Tagged(frozenset({Tag("a")}))) != digest_object(
            Tagged(frozenset({OtherTag("a")}))
        )

    def test_identity_memo_returns_stable_digests(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Frozen:
            a: int
            b: str

        clear_digest_memo()
        payload = Frozen(1, "x")
        first = digest_object(payload)
        assert digest_object(payload) == first  # memo hit
        assert digest_object(Frozen(1, "x")) == first  # equal value, fresh object
        assert digest_object(Frozen(2, "x")) != first

    def test_memo_skips_outer_immutables_with_mutable_interiors(self):
        """Regression: a frozen dataclass or tuple holding a mutable value
        must not be memoised by identity — mutating the interior must change
        the digest."""
        from dataclasses import dataclass
        from typing import Any

        @dataclass(frozen=True)
        class Operation:
            kind: str
            body: Any

        clear_digest_memo()
        op = Operation("broadcast", {"k": 1})
        before = digest_object(op)
        op.body["k"] = 999
        after = digest_object(op)
        assert before != after
        assert after == digest_object(Operation("broadcast", {"k": 999}))

        boxed = ([1, 2],)
        first = digest_object(boxed)
        boxed[0].append(3)
        assert digest_object(boxed) != first

    def test_frozen_dataclass_with_initvar_digests(self):
        """Regression: InitVar pseudo-fields have no instance attribute and
        must not be touched by the memo-eligibility walk."""
        from dataclasses import InitVar, dataclass, field

        @dataclass(frozen=True)
        class WithInit:
            a: int
            b: InitVar[int]
            total: int = field(default=0)

            def __post_init__(self, b):
                object.__setattr__(self, "total", self.a + b)

        clear_digest_memo()
        first = digest_object(WithInit(1, 2))
        assert first == digest_object(WithInit(1, 2))
        assert first != digest_object(WithInit(1, 3))


def cm_token(obj):
    """The canonical encoding with a ``cm:`` prefix: never a digest."""
    return "cm:" + canonical_encode(obj)


class TestOneDigest:
    """Every digest is SHA-256 of the canonical encoding, via one seam."""

    def test_digest_is_sha256_of_the_canonical_encoding(self):
        a = digest_object({"op": "transfer", "amount": 7})
        b = digest_object({"amount": 7, "op": "transfer"})
        c = digest_object({"op": "transfer", "amount": 8})
        expected = hashlib.sha256(
            canonical_encode({"op": "transfer", "amount": 7}).encode("utf-8")
        ).hexdigest()
        assert a == b == expected
        assert a != c

    def test_a_cm_token_is_never_a_digest(self):
        hex_digits = set("0123456789abcdef")
        digest, token = digest_object({"x": 1}), cm_token({"x": 1})
        assert len(digest) == 64 and set(digest) <= hex_digits
        assert token != digest
        assert not set(token) <= hex_digits

    def test_every_miss_goes_through_the_one_seam(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            digest_module, "_digest_encoded", lambda encoded: seen.append(encoded) or "seam"
        )
        payload = {"k": [1, 2]}  # mutable: never memoised
        assert digest_object(payload) == "seam"
        assert digest_object(payload) == "seam"
        assert seen == [canonical_encode(payload)] * 2

    def test_cm_token_signature_fails_verify(self):
        registry = KeyRegistry()
        digest = cm_token({"msg": "hello"})
        forged = Signature(
            signer="alice", digest=digest, mac=registry.generate("alice").mac_of(digest)
        )
        assert not registry.verify(forged, {"msg": "hello"})
        assert registry.verify(registry.sign("alice", {"msg": "hello"}), {"msg": "hello"})

    def test_signatures_survive_a_memo_clear(self):
        registry = KeyRegistry()
        statement = ("signed", ("frozen", 1))  # str/int tuple: memoised by value on sign
        signature = registry.sign("alice", statement)
        assert statement in digest_module._value_memo
        clear_digest_memo()
        assert registry.verify(signature, statement)
        assert registry.verify(signature, ("signed", ("frozen", 1)))
        assert not registry.verify(signature, ("signed", ("frozen", 2)))


@dataclass(frozen=True)
class _Message:
    """Shaped like ``BroadcastMessage``: frozen outside, caller's payload inside."""

    bcast_id: str
    payload: Any


@dataclass(frozen=True)
class _Wrapper:
    """Shaped like ``Operation(body=message)``."""

    kind: str
    body: Any


@pytest.fixture
def encodings(monkeypatch):
    """Every canonical encoding turned into a digest token, in call order."""
    seen = []
    real = digest_module._digest_encoded

    def counting(encoded):
        seen.append(encoded)
        return real(encoded)

    monkeypatch.setattr(digest_module, "_digest_encoded", counting)
    return seen


class TestSeal:
    """The seal contract: digest once, hit by identity until evicted."""

    def test_sealed_object_hits_and_matches_an_equal_fresh_object(self, encodings):
        message = _Message("b1", {"k": [1, 2]})
        sealed = seal(message)
        assert len(encodings) == 1
        assert digest_object(message) == sealed
        assert seal(message) == sealed  # re-sealing is a hit too
        assert len(encodings) == 1
        clear_digest_memo()
        assert digest_object(_Message("b1", {"k": [1, 2]})) == sealed

    def test_wrapper_is_memoised_around_a_sealed_object_only(self, encodings):
        message = _Message("b1", {"k": 1})
        seal(message)
        wrapped = _Wrapper("broadcast", message)
        first = digest_object(wrapped)
        before = len(encodings)
        assert digest_object(wrapped) == first
        assert digest_object((wrapped, "signed")) == digest_object((wrapped, "signed"))
        assert len(encodings) == before + 2  # two fresh tuples; the wrapper hit

        unsealed = _Wrapper("broadcast", {"k": 1})
        before = len(encodings)
        digest_object(unsealed)
        digest_object(unsealed)
        assert len(encodings) == before + 2  # mutable interior: never memoised
        unsealed.body["k"] = 2
        assert digest_object(unsealed) == digest_object(_Wrapper("broadcast", {"k": 2}))

    def test_memo_clear_drops_seals(self, encodings):
        message = _Message("b1", {"k": 1})
        sealed = seal(message)
        clear_digest_memo()
        before = len(encodings)
        assert digest_object(message) == sealed
        assert len(encodings) == before + 1  # recomputed, not served stale
        assert encodings[-1] == canonical_encode(message)

    def test_evicted_seal_recomputes_the_same_digest(self, encodings, monkeypatch):
        monkeypatch.setattr(digest_module, "_MEMO_LIMIT", 8)
        message = _Message("b1", {"k": 1})
        sealed = seal(message)
        # Frozen and deeply immutable, so identity-memoised (a str/int tuple
        # would go to the value memo and evict nothing here).
        fillers = [_Message(f"filler-{index}", index) for index in range(8)]
        for filler in fillers:
            digest_object(filler)
        before = len(encodings)
        assert digest_object(message) == sealed
        assert len(encodings) == before + 1  # the seal was evicted: a plain miss

    def test_replaced_copy_never_inherits_the_original_digest(self):
        message = _Message("b1", {"k": 1})
        sealed = seal(message)
        forged = replace(message, payload=("equivocated", message.payload))
        assert digest_object(forged) != sealed
        assert digest_object(forged) == digest_object(
            _Message("b1", ("equivocated", {"k": 1}))
        )
        assert digest_object(message) == sealed

    def test_audit_reports_a_post_seal_mutation(self):
        message = _Message("b1", {"k": 1})
        sealed = seal(message)
        assert audit_digest_memo() == []
        message.payload["k"] = 2  # the broken promise
        assert digest_object(message) == sealed  # served stale...
        [(culprit, memoised, actual)] = audit_digest_memo()  # ...and caught
        assert culprit is message and memoised == sealed
        assert actual == digest_object(_Message("b1", {"k": 2}))
        clear_digest_memo()  # the autouse audit must not see it


class TestStatementCaches:
    """The value-keyed statement memo and the registry's MAC cache are caches,
    not trust: type-exact, recomputed on eviction, audited, and never a
    reason to accept a MAC the signer's key does not produce."""

    def test_equal_but_differently_typed_statements_never_share_an_entry(self):
        statements = [(1,), (True,), (1.0,), ("1",), ((1,),), ((True,),)]
        digests = [digest_object(statement) for statement in statements]
        assert len(set(digests)) == len(statements)
        for statement, digest in zip(statements, digests):
            assert digest == hashlib.sha256(canonical_encode(statement).encode()).hexdigest()
        # Only the exact str/int tuples enter; each keeps its own entry.
        assert list(digest_module._value_memo) == [(1,), ("1",), ((1,),)]
        assert [type(item) for item in next(iter(digest_module._value_memo))] == [int]

    def test_a_cached_mac_never_vouches_for_another_mac(self):
        registry = KeyRegistry()
        statement = ("pbft-checkpoint", 0, 8, "d" * 64)
        genuine = registry.sign("alice", statement)
        bobs = registry.sign("bob", statement)
        assert registry.verify(genuine, statement)  # the cache is warm
        assert not registry.verify(replace(genuine, mac="0" * 64), statement)
        assert not registry.verify(replace(genuine, mac=bobs.mac), statement)
        assert not registry.verify(replace(bobs, signer="alice"), statement)
        assert not registry.verify(replace(genuine, signer="bob"), statement)
        assert registry.verify(genuine, statement) and registry.verify(bobs, statement)

    def test_an_evicted_entry_recomputes_the_same_value(self, monkeypatch, encodings):
        from repro.crypto import keys as keys_module

        macs = []
        real_mac_of = keys_module.KeyPair.mac_of
        monkeypatch.setattr(
            keys_module.KeyPair, "mac_of", lambda key, digest: macs.append(digest) or real_mac_of(key, digest)
        )
        monkeypatch.setattr(digest_module, "_MEMO_LIMIT", 4)
        monkeypatch.setattr(keys_module, "_MEMO_LIMIT", 4)
        registry = KeyRegistry()
        statement = ("statement", 0)
        signature = registry.sign("alice", statement)
        assert registry.verify(signature, statement)
        assert (len(encodings), len(macs)) == (1, 1)  # both served from the caches
        for index in range(1, 5):
            registry.sign("alice", ("statement", index))
        assert statement not in digest_module._value_memo
        assert ("alice", signature.digest) not in registry._macs
        assert len(digest_module._value_memo) == len(registry._macs) == 4
        assert digest_object(statement) == signature.digest
        assert registry.verify(signature, statement)
        assert (len(encodings), len(macs)) == (6, 6)  # recomputed, same values

    def test_audit_recomputes_value_memo_entries(self):
        statement = ("pbft-checkpoint", 0, 8, "d" * 64)
        digest = digest_object(statement)
        assert audit_digest_memo() == []
        digest_module._value_memo[statement] = "0" * 64  # a corrupted entry
        assert audit_digest_memo() == [(statement, "0" * 64, digest)]
        clear_digest_memo()  # the autouse audit must not see it


class TestSignatures:
    def test_sign_and_verify(self):
        registry = KeyRegistry()
        signature = registry.sign("alice", {"msg": "hello"})
        assert registry.verify(signature, {"msg": "hello"})

    def test_verify_fails_on_tampered_content(self):
        registry = KeyRegistry()
        signature = registry.sign("alice", {"msg": "hello"})
        assert not registry.verify(signature, {"msg": "bye"})

    def test_verify_fails_for_unknown_signer(self):
        registry_a = KeyRegistry("domain-a")
        registry_b = KeyRegistry("domain-b")
        signature = registry_a.sign("alice", "payload")
        assert not registry_b.verify(signature, "payload")

    def test_forged_signer_name_rejected(self):
        registry = KeyRegistry()
        registry.generate("alice")
        registry.generate("mallory")
        # Mallory signs but claims to be alice by swapping the signer field.
        mallory_signature = registry.sign("mallory", "payload")
        forged = type(mallory_signature)(
            signer="alice", digest=mallory_signature.digest, mac=mallory_signature.mac
        )
        assert not registry.verify(forged, "payload")

    def test_signature_fails_verify_over_another_object(self):
        registry = KeyRegistry()
        signature = registry.sign("alice", "x")
        assert registry.verify(signature, "x")
        assert not registry.verify(signature, "y")


class TestCertificateChains:
    def _chain(self, registry, hops, quorum_per_hop=3, walk_id="walk-1"):
        chain = CertificateChain(walk_id=walk_id)
        previous = "G0"
        for hop in range(hops):
            issuer = previous
            next_hop = f"G{hop + 1}"
            members = [f"{issuer}-member-{i}" for i in range(quorum_per_hop + 1)]
            for member in members:
                registry.generate(member)
            chain.append(
                make_certificate(
                    registry,
                    walk_id=walk_id,
                    hop=hop,
                    issuer=issuer,
                    issuer_members=members,
                    next_hop=next_hop,
                    signers=members[:quorum_per_hop],
                )
            )
            previous = next_hop
        return chain

    def test_valid_chain_verifies(self):
        registry = KeyRegistry()
        chain = self._chain(registry, hops=5)
        assert chain.verify(registry, origin_group="G0")
        assert chain.certificates[-1].next_hop == "G5"

    def test_chain_with_broken_linkage_fails(self):
        registry = KeyRegistry()
        chain = self._chain(registry, hops=3)
        # Remove the middle certificate: linkage broken.
        del chain.certificates[1]
        assert not chain.verify(registry, origin_group="G0")

    def test_corrupted_certificate_statement_fails_verification(self):
        # Wire corruption of a certificate: any bit-flip in the signed
        # statement changes its canonical digest, so every signature check
        # against the tampered statement fails and the chain is rejected.
        from dataclasses import replace

        registry = KeyRegistry()
        chain = self._chain(registry, hops=3)
        original = chain.certificates[1]
        chain.certificates[1] = replace(
            original, issuer_members=tuple(original.issuer_members) + ("bitflip",)
        )
        assert not chain.verify(registry, origin_group="G0")
        # Restoring the original statement restores verification.
        chain.certificates[1] = original
        assert chain.verify(registry, origin_group="G0")

    def test_corrupted_signature_bytes_fail_verification(self):
        from dataclasses import replace

        registry = KeyRegistry()
        chain = self._chain(registry, hops=1, quorum_per_hop=2)
        certificate = chain.certificates[0]
        # Flip the digest carried inside every signature: no quorum remains.
        tampered = tuple(
            replace(signature, digest="00" + signature.digest[2:])
            for signature in certificate.signatures
        )
        chain.certificates[0] = replace(certificate, signatures=tampered)
        assert not chain.verify(registry, origin_group="G0")

    def test_chain_without_majority_fails(self):
        registry = KeyRegistry()
        chain = CertificateChain(walk_id="w")
        members = ["m0", "m1", "m2", "m3"]
        for member in members:
            registry.generate(member)
        chain.append(
            make_certificate(
                registry,
                walk_id="w",
                hop=0,
                issuer="G0",
                issuer_members=members,
                next_hop="G1",
                signers=members[:2],  # only 2 of 4: not a majority
            )
        )
        assert not chain.verify(registry, origin_group="G0")

    def test_chain_verifies_after_a_memo_clear(self):
        registry = KeyRegistry()
        chain = self._chain(registry, hops=4)
        clear_digest_memo()
        assert chain.verify(registry, origin_group="G0")
        # Structural checks still run on recomputed digests.
        del chain.certificates[1]
        assert not chain.verify(registry, origin_group="G0")

    def test_forged_signature_rejected(self):
        """A fabricated signature (correct digest, no valid MAC) fails
        verification: the MAC check always runs."""
        registry = KeyRegistry()
        chain = CertificateChain(walk_id="w")
        members = ["m0", "m1", "m2"]
        for member in members:
            registry.generate(member)
        chain.append(
            make_certificate(
                registry,
                walk_id="w",
                hop=0,
                issuer="G0",
                issuer_members=members,
                next_hop="G1",
                signers=[],
            )
        )
        statement = chain.certificates[0].statement()
        forged = tuple(
            Signature(signer=m, digest=digest_object(statement), mac="")
            for m in members
        )
        chain.certificates[0] = type(chain.certificates[0])(
            walk_id="w",
            hop=0,
            issuer="G0",
            issuer_members=tuple(members),
            next_hop="G1",
            signatures=forged,
        )
        assert not chain.verify(registry, origin_group="G0")

    def test_duplicate_signatures_do_not_form_a_quorum(self):
        """A majority requires distinct signers: the same valid signature
        repeated must count once."""
        registry = KeyRegistry()
        members = ["m0", "m1", "m2"]
        for member in members:
            registry.generate(member)
        certificate = make_certificate(
            registry,
            walk_id="w",
            hop=0,
            issuer="G0",
            issuer_members=members,
            next_hop="G1",
            signers=["m0"],
        )
        duplicated = type(certificate)(
            walk_id="w",
            hop=0,
            issuer="G0",
            issuer_members=tuple(members),
            next_hop="G1",
            signatures=certificate.signatures * 3,
        )
        chain = CertificateChain(walk_id="w")
        chain.append(duplicated)
        assert not chain.verify(registry, origin_group="G0")

    def test_chain_size_grows_linearly(self):
        registry = KeyRegistry()
        short = self._chain(registry, hops=2, walk_id="short")
        long = self._chain(registry, hops=10, walk_id="long")
        assert long.size_bytes() == 5 * short.size_bytes()


class TestCostModel:
    def test_hash_cost_scales_with_size(self):
        model = CryptoCostModel()
        assert model.hash_cost(2048) == pytest.approx(2 * model.hash_cost(1024))

    def test_hash_cost_parallelism(self):
        model = CryptoCostModel()
        assert model.hash_cost(1 << 20, threads=4) == pytest.approx(
            model.hash_cost(1 << 20) / 4
        )

    def test_certificate_chain_cost(self):
        model = CryptoCostModel()
        assert model.certificate_chain_verify_cost(10, 3) == pytest.approx(
            model.verify_cost(30)
        )
