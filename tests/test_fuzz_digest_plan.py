"""Seeded property/fuzz tests for the canonical digest encoder and the
FaultPlan validation logic.

Both test families are generator-based but fully deterministic (fixed seeds,
no time or environment dependence), so they are CI-stable: a failure always
reproduces with the printed case.
"""

import copy
import math
import random
from dataclasses import dataclass

import pytest

from repro.crypto.digest import canonical_encode, clear_digest_memo, digest_object
from repro.faults.plan import LinkFault, NodeFault, Partition, NODE_BEHAVIOURS


# ------------------------------------------------------------ payload fuzzer


@dataclass(frozen=True)
class FrozenLeaf:
    name: str
    value: int


@dataclass
class MutableLeaf:
    items: list
    tag: str


_SCALARS = (
    lambda rng: rng.randrange(-1_000_000, 1_000_000),
    lambda rng: round(rng.uniform(-1e6, 1e6), 6),
    lambda rng: "".join(rng.choice("abcdefgh é中") for _ in range(rng.randrange(0, 12))),
    lambda rng: rng.random() < 0.5,
    lambda rng: None,
    lambda rng: bytes(rng.randrange(256) for _ in range(rng.randrange(0, 8))),
)


def random_payload(rng: random.Random, depth: int = 0):
    """A random nested payload covering every canonical-encoder branch."""
    if depth >= 4 or rng.random() < 0.35:
        return rng.choice(_SCALARS)(rng)
    shape = rng.randrange(6)
    if shape == 0:
        return [random_payload(rng, depth + 1) for _ in range(rng.randrange(0, 4))]
    if shape == 1:
        return tuple(random_payload(rng, depth + 1) for _ in range(rng.randrange(0, 4)))
    if shape == 2:
        return {
            f"k{index}": random_payload(rng, depth + 1)
            for index in range(rng.randrange(0, 4))
        }
    if shape == 3:
        # Sets of possibly mixed scalar types exercise the sort fallback.
        return {
            rng.choice(_SCALARS[:3])(rng) for _ in range(rng.randrange(0, 4))
        }
    if shape == 4:
        return FrozenLeaf(name=f"f{rng.randrange(10)}", value=rng.randrange(100))
    return MutableLeaf(
        items=[random_payload(rng, depth + 1) for _ in range(rng.randrange(0, 3))],
        tag=f"t{rng.randrange(10)}",
    )


CASES = 150


class TestCanonicalEncoderProperties:
    def test_encode_is_deterministic_per_object(self):
        rng = random.Random(0xA11CE)
        for case in range(CASES):
            payload = random_payload(rng)
            assert canonical_encode(payload) == canonical_encode(payload), payload

    def test_encode_agrees_on_structural_copies(self):
        # A deep copy shares no identity with the original (so the identity
        # memo cannot help) yet must encode and digest identically.
        rng = random.Random(0xB0B)
        for case in range(CASES):
            payload = random_payload(rng)
            clone = copy.deepcopy(payload)
            assert canonical_encode(payload) == canonical_encode(clone), payload
            assert digest_object(payload) == digest_object(clone), payload

    def test_digests_are_equal_iff_canonical_encodings_are(self):
        rng = random.Random(0xC0FFEE)
        for case in range(CASES):
            left = random_payload(rng)
            right = copy.deepcopy(left) if rng.random() < 0.5 else random_payload(rng)
            encodings_equal = canonical_encode(left) == canonical_encode(right)
            digests_equal = digest_object(left) == digest_object(right)
            assert digests_equal == encodings_equal, (left, right)

    def test_memo_clear_round_trip_is_stable(self):
        rng = random.Random(0xD1CE)
        payloads = [random_payload(rng) for _ in range(30)]
        before = [digest_object(p) for p in payloads]
        clear_digest_memo()
        assert [digest_object(p) for p in payloads] == before

    def test_mutation_changes_the_digest(self):
        rng = random.Random(0xFACE)
        for case in range(50):
            payload = {"fixed": "frame", "blob": random_payload(rng)}
            tampered = copy.deepcopy(payload)
            tampered["fixed"] = "frame-flipped"
            assert digest_object(payload) != digest_object(tampered)


# ------------------------------------------------------------ plan fuzzer


def _random_window(rng):
    start = rng.choice([-1.0, 0.0, rng.uniform(0.0, 100.0)])
    stop = rng.choice([None, start, start - 1.0, start + rng.uniform(0.001, 50.0), math.inf])
    return start, stop


class TestFaultPlanValidationProperties:
    def test_link_fault_accepts_exactly_the_valid_region(self):
        rng = random.Random(0x5EED)
        for case in range(CASES):
            loss = rng.choice([0.0, 1.0, rng.uniform(0, 1), -0.2, 1.5])
            duplicate = rng.choice([0.0, rng.uniform(0, 1), 2.0])
            corrupt = rng.choice([0.0, rng.uniform(0, 1), -1.0])
            extra_delay = rng.choice([0.0, rng.uniform(0, 5), -0.5])
            jitter = rng.choice([0.0, rng.uniform(0, 5), -0.5])
            start, stop = _random_window(rng)
            stop = math.inf if stop is None else stop
            expected_valid = (
                0.0 <= loss <= 1.0
                and 0.0 <= duplicate <= 1.0
                and 0.0 <= corrupt <= 1.0
                and extra_delay >= 0.0
                and jitter >= 0.0
                and stop > start
            )
            try:
                fault = LinkFault(
                    loss=loss,
                    duplicate=duplicate,
                    corrupt=corrupt,
                    extra_delay=extra_delay,
                    jitter=jitter,
                    start=start,
                    stop=stop,
                )
            except ValueError:
                assert not expected_valid, vars()
            else:
                assert expected_valid, vars(fault)

    def test_partition_accepts_exactly_the_valid_region(self):
        rng = random.Random(0xBEEF)
        pool = [f"n{i}" for i in range(8)]
        for case in range(CASES):
            use_sides = rng.random() < 0.5
            start = rng.choice([-1.0, 0.0, rng.uniform(0, 50)])
            heal_at = rng.choice([None, start, start + rng.uniform(0.001, 20), start - 1.0])
            if use_sides:
                sides = tuple(
                    tuple(rng.sample(pool, rng.randrange(0, 4)))
                    for _ in range(rng.randrange(1, 4))
                )
                flat = [a for side in sides for a in side]
                expected_valid = (
                    len(sides) >= 2
                    and all(sides)
                    and len(set(flat)) == len(flat)
                    and start >= 0.0
                    and (heal_at is None or heal_at > start)
                )
                kwargs = dict(sides=sides, start=start, heal_at=heal_at)
            else:
                members = tuple(rng.sample(pool, rng.randrange(0, 4)))
                expected_valid = (
                    bool(members)
                    and start >= 0.0
                    and (heal_at is None or heal_at > start)
                )
                kwargs = dict(members=members, start=start, heal_at=heal_at)
            try:
                partition = Partition(**kwargs)
            except ValueError:
                assert not expected_valid, kwargs
            else:
                assert expected_valid, kwargs
                if use_sides:
                    assert set(partition.members) == {
                        a for side in kwargs["sides"] for a in side
                    }

    def test_node_fault_accepts_exactly_the_valid_region(self):
        rng = random.Random(0xF00D)
        behaviours = list(NODE_BEHAVIOURS) + ["gremlin", ""]
        for case in range(CASES):
            behaviour = rng.choice(behaviours)
            start = rng.choice([-0.5, 0.0, rng.uniform(0, 50)])
            stop = rng.choice([None, start, start + rng.uniform(0.001, 20)])
            attack_period = rng.choice([0.0, -1.0, rng.uniform(0.1, 60)])
            expected_valid = (
                behaviour in NODE_BEHAVIOURS
                and start >= 0.0
                and (stop is None or stop > start)
                and attack_period > 0.0
            )
            try:
                NodeFault(
                    address="n0",
                    behaviour=behaviour,
                    start=start,
                    stop=stop,
                    attack_period=attack_period,
                )
            except ValueError:
                assert not expected_valid, vars()
            else:
                assert expected_valid
