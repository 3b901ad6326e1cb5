"""Tests for the unified request/response layer (repro.net.requests).

Covers the correlated-envelope contract (malformed / replayed /
misaddressed / expired / unsolicited traffic is rejected and counted,
never dispatched), the retry/backoff/rotation machinery, the per-peer
suspicion scoreboard with decay-guaranteed quarantine release, the
seeded fuzz battery the issue calls for, and the JitteredBackoff gate
behind anti-entropy repair spacing.
"""

import random
import zlib

import pytest

from repro.net import requests
from repro.net.requests import (
    BACKOFF_FACTOR,
    BACKOFF_MAX_DELAY,
    JitteredBackoff,
    RequestEnvelope,
    RequestManager,
    ResponseEnvelope,
    Scoreboard,
    timeout_for,
)
from repro.sim.simulator import Simulator


PEERS = ("p0", "p1", "p2", "p3")


class Transport:
    """Records what a manager ships; lets tests answer selectively."""

    def __init__(self):
        self.sent = []  # (peer, payload, size_bytes)

    def __call__(self, peer, payload, size_bytes):
        self.sent.append((peer, payload, size_bytes))

    @property
    def envelopes(self):
        return [
            (peer, payload)
            for peer, payload, _ in self.sent
            if isinstance(payload, RequestEnvelope)
        ]

    def last_envelope(self):
        return self.envelopes[-1]


def build_manager(sim=None, owner="n0"):
    sim = sim or Simulator(seed=5)
    transport = Transport()
    manager = RequestManager(sim, owner, transport)
    return sim, transport, manager


def reply(manager, envelope, payload, sender="whoever"):
    response = ResponseEnvelope(
        request_id=envelope.request_id, kind=envelope.kind, payload=payload
    )
    return manager.on_envelope(response, sender)


@pytest.fixture
def fast_retries(monkeypatch):
    """1 s first deadline and no jitter: retry times are exact."""
    monkeypatch.setattr(requests, "BASE_TIMEOUT", 1.0)
    monkeypatch.setattr(requests, "TIMEOUT_JITTER", 0.0)


@pytest.fixture
def fast_decay(monkeypatch):
    """Quarantine at 4.0 with a 5 s half-life."""
    monkeypatch.setattr(requests, "QUARANTINE_THRESHOLD", 4.0)
    monkeypatch.setattr(requests, "DECAY_HALF_LIFE", 5.0)


# ---------------------------------------------------------------- timeouts


class TestTimeouts:
    def test_timeouts_back_off_exponentially_and_cap(self, monkeypatch):
        monkeypatch.setattr(requests, "BASE_TIMEOUT", 2.0)
        monkeypatch.setattr(requests, "BACKOFF_FACTOR", 2.0)
        monkeypatch.setattr(requests, "MAX_TIMEOUT", 10.0)
        assert timeout_for(0) == 2.0
        assert timeout_for(1) == 4.0
        assert timeout_for(2) == 8.0
        assert timeout_for(3) == 10.0  # capped
        assert timeout_for(9) == 10.0


# -------------------------------------------------------------- scoreboard


class TestScoreboard:
    def test_evidence_weights_accumulate(self):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        board.note("p", "timeout")
        board.note("p", "stale")
        score = board.snapshot()["p"]
        assert score.timeouts == 1 and score.stale == 1
        assert score.suspicion == pytest.approx(1.0 + 2.0)

    def test_suspicion_decays_with_half_life(self, monkeypatch):
        monkeypatch.setattr(requests, "DECAY_HALF_LIFE", 10.0)
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        board.note("p", "garbage")  # weight 3.0
        score = board.snapshot()["p"]
        assert score.decayed(sim.now + 10.0) == pytest.approx(1.5)
        assert score.decayed(sim.now + 20.0) == pytest.approx(0.75)

    def test_quarantine_requires_threshold_and_decay_releases_it(self, fast_decay):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        board.note("p", "garbage")  # 3.0 < 4.0
        assert not board.quarantined("p")
        board.note("p", "stale")  # 5.0 >= 4.0
        assert board.quarantined("p")
        assert sim.metrics.counter("req.quarantined") == 1
        # Decay alone releases: advance past ~half a half-life.
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert not board.quarantined("p")
        assert sim.metrics.counter("req.quarantine_released") == 1

    def test_timeouts_alone_never_quarantine_forever(self, monkeypatch, fast_decay):
        # A merely-slow peer keeps timing out, but as long as evidence
        # arrives slower than it decays the peer is never locked out.
        monkeypatch.setattr(requests, "TIMEOUT_WEIGHT", 1.0)
        sim = Simulator(seed=1)
        board = Scoreboard(sim)

        def tick(remaining):
            board.note("p", "timeout")
            if remaining:
                sim.schedule(10.0, lambda: tick(remaining - 1))

        tick(10)
        sim.run()
        # 10s between timeouts = 2 half-lives: suspicion never reaches 4.
        assert not board.quarantined("p")
        assert sim.metrics.counter("req.quarantined") == 0

    def test_unknown_peer_is_not_quarantined(self):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        assert not board.quarantined("never-seen")


class TestQuarantineUnderStorms:
    """One static threshold: evidence against other peers never moves it."""

    @pytest.fixture(autouse=True)
    def _fast_decay(self, fast_decay):
        pass

    @staticmethod
    def storm(sim, board, events, period=1.0, kind="garbage"):
        def tick(remaining):
            board.note(f"p{remaining % 3}", kind)
            if remaining:
                sim.schedule(period, lambda: tick(remaining - 1))

        tick(events)
        sim.run()

    def test_storm_records_no_scoreboard_histogram(self):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        self.storm(sim, board, events=15)
        assert sim.metrics.counter("req.evidence_garbage") == 16
        assert not [name for name in sim.metrics.histograms if name.startswith("req.")]

    def test_storm_quarantines_exactly_the_peers_at_the_threshold(self):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        self.storm(sim, board, events=15)
        verdicts = {
            peer: score.decayed(sim.now) >= 4.0
            for peer, score in board.snapshot().items()
        }
        assert any(verdicts.values())
        for peer, expected in verdicts.items():
            assert board.quarantined(peer) == expected, peer

    def test_quiet_period_releases_every_storm_quarantine(self):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        self.storm(sim, board, events=15)
        assert sim.metrics.counter("req.quarantined") > 0
        sim.schedule(30.0, lambda: None)
        sim.run()
        assert not [peer for peer in board.snapshot() if board.quarantined(peer)]
        assert sim.metrics.counter("req.quarantine_released") == sim.metrics.counter(
            "req.quarantined"
        )

    def test_a_storm_on_others_never_lowers_a_peers_bar(self):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        self.storm(sim, board, events=40, period=0.25)
        quarantined_before = sim.metrics.counter("req.quarantined")
        board.note("q", "garbage")  # 3.0 < 4.0, however hostile the others
        assert not board.snapshot()["q"].quarantined
        assert sim.metrics.counter("req.quarantined") == quarantined_before
        assert not board.quarantined("q")
        board.note("q", "timeout")  # 4.0 >= 4.0
        assert board.quarantined("q")
        assert sim.metrics.counter("req.quarantined") == quarantined_before + 1

    def test_decay_releases_a_peer_quarantined_during_a_storm(self):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)
        self.storm(sim, board, events=40, period=0.25)
        board.note("q", "garbage")
        board.note("q", "garbage")  # 6.0 >= 4.0
        assert board.quarantined("q")
        released_before = sim.metrics.counter("req.quarantine_released")
        sim.schedule(40.0, lambda: None)
        sim.run()
        assert not board.quarantined("q")
        assert sim.metrics.counter("req.quarantine_released") == released_before + 1

    def test_timeouts_alone_never_quarantine_during_a_storm(self):
        sim = Simulator(seed=1)
        board = Scoreboard(sim)

        def slow(remaining):
            board.note("slow", "timeout")
            if remaining:
                sim.schedule(10.0, lambda: slow(remaining - 1))

        slow(10)
        self.storm(sim, board, events=40, period=0.25)
        # 10s between timeouts = 2 half-lives: the slow peer tops out
        # below the threshold while the storm quarantines its neighbours.
        slow_score = board.snapshot()["slow"]
        assert slow_score.timeouts == 11
        assert not slow_score.quarantined  # never set, not merely released
        assert not board.quarantined("slow")
        assert sim.metrics.counter("req.quarantined") > 0


# ------------------------------------------------------- request lifecycle


class TestRequestLifecycle:
    def test_envelope_carries_correlation_id_and_absolute_deadline(self):
        sim, transport, manager = build_manager()
        manager.request("kind", {"x": 1}, PEERS, max_attempts=1)
        peer, envelope = transport.last_envelope()
        assert peer == "p0"  # bounded: preference order respected
        assert envelope.request_id == "n0:req:0"
        assert envelope.requester == "n0"
        assert envelope.deadline == pytest.approx(sim.now + 3.0)

    def test_ok_response_completes_and_fires_on_done(self):
        sim, transport, manager = build_manager()
        done = []
        manager.request(
            "kind", "q", PEERS, on_response=lambda p, r: "ok", on_done=lambda: done.append(1)
        )
        peer, envelope = transport.last_envelope()
        assert reply(manager, envelope, "a", sender=peer)
        assert done == [1]
        assert manager.pending_count() == 0
        assert sim.metrics.counter("req.completed") == 1

    def test_timeout_retries_with_backoff_and_rotation(self, monkeypatch):
        monkeypatch.setattr(requests, "BASE_TIMEOUT", 2.0)
        monkeypatch.setattr(requests, "BACKOFF_FACTOR", 2.0)
        monkeypatch.setattr(requests, "TIMEOUT_JITTER", 0.0)
        sim, transport, manager = build_manager()
        manager.request("kind", "q", PEERS, max_attempts=len(PEERS))
        sim.run(until=2.5)
        assert sim.metrics.counter("req.timeouts") == 1
        targets = [peer for peer, _ in transport.envelopes]
        assert targets == ["p0", "p1"]  # rotated off the timed-out peer
        # Second attempt, sent at the first deadline, backed off: 2.0 -> 4.0.
        _, second = transport.last_envelope()
        assert second.deadline == pytest.approx(2.0 + 4.0)

    def test_first_attempt_draws_no_randomness(self):
        sim, transport, manager = build_manager()
        manager.request("kind", "q", PEERS, on_response=lambda p, r: "ok")
        peer, envelope = transport.last_envelope()
        reply(manager, envelope, "a", sender=peer)
        assert manager._rng is None  # jitter stream never created

    def test_garbage_reply_adds_suspicion_and_retries_immediately(self):
        sim, transport, manager = build_manager()
        verdicts = iter(["garbage", "ok"])
        manager.request(
            "kind", "q", PEERS, on_response=lambda p, r: next(verdicts), max_attempts=2
        )
        peer0, envelope0 = transport.last_envelope()
        assert reply(manager, envelope0, "junk", sender=peer0)
        # Retried at once (no timer wait), rotated to the next candidate.
        peer1, envelope1 = transport.last_envelope()
        assert peer1 == "p1" and envelope1 is not envelope0
        assert sim.metrics.counter("req.garbage_replies") == 1
        assert manager.scoreboard.snapshot()[peer0].garbage == 1

    def test_quarantined_peers_are_skipped_until_all_are(self):
        sim, transport, manager = build_manager()
        for peer in PEERS[:2]:
            manager.scoreboard.note(peer, "garbage")
            manager.scoreboard.note(peer, "stale")  # 5.0 >= 4.0
        manager.request("kind", "q", PEERS, max_attempts=1)
        peer, _ = transport.last_envelope()
        assert peer == "p2"
        # Everyone quarantined: liveness wins, the rotation peer is used.
        for peer in PEERS[2:]:
            manager.scoreboard.note(peer, "garbage")
            manager.scoreboard.note(peer, "stale")
        manager.request("kind", "q", PEERS, max_attempts=1)
        peer, _ = transport.last_envelope()
        assert peer == "p0"

    def test_max_attempts_gives_up_and_fires_on_done(self, fast_retries):
        sim, transport, manager = build_manager()
        done = []
        manager.request("kind", "q", PEERS, on_done=lambda: done.append(1), max_attempts=2)
        sim.run(until=30.0)
        assert done == [1]
        assert len(transport.envelopes) == 2
        assert sim.metrics.counter("req.gave_up") == 1
        assert manager.pending_count() == 0

    def test_satisfied_resolves_externally_at_timeout(self, fast_retries):
        sim, transport, manager = build_manager()
        state = {"have": False}
        manager.request("kind", "q", PEERS, satisfied=lambda: state["have"])
        state["have"] = True  # side channel delivered the data
        sim.run(until=5.0)
        assert sim.metrics.counter("req.resolved_externally") == 1
        assert len(transport.envelopes) == 1  # no retry was sent
        assert manager.pending_count() == 0

    def test_callable_payload_is_re_evaluated_per_attempt(self, fast_retries):
        sim, transport, manager = build_manager()
        clock = {"n": 0}

        def payload():
            clock["n"] += 1
            return clock["n"]

        manager.request("kind", payload, PEERS)
        sim.run(until=1.5)
        payloads = [env.payload for _, env in transport.envelopes]
        assert payloads == [1, 2]  # retry carried fresh state, not a snapshot

    def test_empty_peer_list_is_a_noop(self):
        sim, transport, manager = build_manager()
        assert manager.request("kind", "q", ()) is None
        assert transport.sent == []


class TestRotationSpread:
    def test_rotation_base_is_derived_from_owner_crc(self):
        for owner in ("n0", "n1", "node-with-long-name"):
            sim, transport, manager = build_manager(owner=owner)
            manager.request("kind", "q", PEERS)
            expected = PEERS[(zlib.crc32(owner.encode()) & 0xFFFF) % len(PEERS)]
            peer, _ = transport.last_envelope()
            assert peer == expected

    @pytest.mark.parametrize("max_attempts", [None, 1, 3])
    def test_successive_first_picks_follow_the_attempt_bound(self, max_attempts):
        # Retrying until it lands: each request starts one candidate further
        # on from the owner-derived offset (2 for "n0").  Bounded: every
        # request starts at the caller's first choice.
        sim, transport, manager = build_manager(owner="n0")
        base = zlib.crc32(b"n0") & 0xFFFF
        assert base % len(PEERS) == 2
        for sequence in range(4):
            manager.request("kind", "q", PEERS, max_attempts=max_attempts)
            peer, _ = transport.last_envelope()
            if max_attempts is None:
                assert peer == PEERS[(base + sequence) % len(PEERS)]
            else:
                assert peer == "p0"


# -------------------------------------------------- response-side rejection


class TestResponseRejection:
    def pending_envelope(self, manager, transport):
        manager.request("kind", "q", PEERS)
        return transport.last_envelope()

    def test_non_envelope_payloads_are_not_consumed(self):
        sim, transport, manager = build_manager()
        assert manager.on_envelope({"not": "an envelope"}, "p0") is False
        assert manager.on_envelope("text", "p0") is False

    def test_malformed_ids_rejected(self):
        sim, transport, manager = build_manager()
        self.pending_envelope(manager, transport)
        bad = ResponseEnvelope(request_id=7, kind="kind", payload="a")
        assert manager.on_envelope(bad, "p0")
        assert sim.metrics.counter("req.rejected_malformed") == 1
        assert manager.pending_count() == 1  # request unharmed

    def test_unknown_and_replayed_ids_counted_separately(self):
        sim, transport, manager = build_manager()
        peer, envelope = self.pending_envelope(manager, transport)
        unknown = ResponseEnvelope(request_id="n0:req:999", kind="kind", payload="a")
        assert manager.on_envelope(unknown, peer)
        assert sim.metrics.counter("req.rejected_unknown") == 1
        # Complete the request, then replay the very same id.
        reply(manager, envelope, "a", sender=peer)
        late = ResponseEnvelope(request_id=envelope.request_id, kind="kind", payload="a")
        assert manager.on_envelope(late, peer)
        assert sim.metrics.counter("req.rejected_replayed") == 1

    def test_wrong_kind_rejected(self):
        sim, transport, manager = build_manager()
        peer, envelope = self.pending_envelope(manager, transport)
        wrong = ResponseEnvelope(request_id=envelope.request_id, kind="other", payload="a")
        assert manager.on_envelope(wrong, peer)
        assert sim.metrics.counter("req.rejected_malformed") == 1
        assert manager.pending_count() == 1

    def test_response_from_unqueried_peer_rejected(self):
        # Only peers the request was actually sent to may answer it: a
        # bystander (or an adversary racing the honest responder) that
        # guesses the id is rejected and counted.
        sim, transport, manager = build_manager()
        _, envelope = self.pending_envelope(manager, transport)
        forged = ResponseEnvelope(request_id=envelope.request_id, kind="kind", payload="evil")
        assert manager.on_envelope(forged, "p3")
        assert sim.metrics.counter("req.rejected_unsolicited") == 1
        assert manager.pending_count() == 1


# ------------------------------------------------- server-side validation


class TestServerValidation:
    def envelope(self, sim, deadline=None, requester="n1", kind="kind"):
        return RequestEnvelope(
            request_id="n1:req:0",
            kind=kind,
            payload="q",
            requester=requester,
            deadline=sim.now + 3.0 if deadline is None else deadline,
        )

    def test_valid_envelope_passes(self):
        sim, transport, manager = build_manager()
        envelope = self.envelope(sim)
        assert manager.validate_request(envelope, "kind", "n1") is envelope

    def test_malformed_and_wrong_kind_rejected(self):
        sim, transport, manager = build_manager()
        assert manager.validate_request("junk", "kind") is None
        assert manager.validate_request(self.envelope(sim, kind="other"), "kind") is None
        assert sim.metrics.counter("req.rejected_malformed") == 2

    def test_misaddressed_envelope_rejected(self):
        # Wire-level sender != claimed requester: answering would ship the
        # response to a third party of the forger's choosing.
        sim, transport, manager = build_manager()
        envelope = self.envelope(sim, requester="victim")
        assert manager.validate_request(envelope, "kind", sender="attacker") is None
        assert sim.metrics.counter("req.rejected_misaddressed") == 1

    def test_expired_envelope_rejected(self):
        sim, transport, manager = build_manager()
        envelope = self.envelope(sim, deadline=1.0)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert manager.validate_request(envelope, "kind", "n1") is None
        assert sim.metrics.counter("req.rejected_expired") == 1

    def test_respond_ships_a_correlated_envelope(self):
        sim, transport, manager = build_manager()
        envelope = self.envelope(sim)
        manager.respond(envelope, "answer", size_bytes=99)
        peer, response, size = transport.sent[-1]
        assert peer == "n1" and size == 99
        assert isinstance(response, ResponseEnvelope)
        assert response.request_id == envelope.request_id
        assert (response.kind, response.payload) == ("kind", "answer")


# ------------------------------------------------------------ fuzz battery


class TestFuzzBattery:
    """Seeded adversarial traffic: nothing crashes, nothing is dispatched."""

    KINDS = ("kind", "other", "", "ae.pull")

    def random_response(self, rng, envelope):
        request_id = rng.choice(
            [envelope.request_id, "n0:req:999", "", 42, None, envelope.request_id * 2]
        )
        kind = rng.choice(list(self.KINDS) + [7, None])
        payload = rng.choice(["x", (), (1, 2), {"a": 1}, None, b"bytes", float("nan")])
        sender = rng.choice(list(PEERS) + ["stranger", ""])
        return ResponseEnvelope(request_id=request_id, kind=kind, payload=payload), sender

    def test_hostile_response_storm_never_completes_a_request(self):
        rng = random.Random(1234)
        sim, transport, manager = build_manager()
        manager.request("kind", "q", PEERS, on_response=lambda p, r: "ok")
        queried_peer, envelope = transport.last_envelope()
        for _ in range(500):
            response, sender = self.random_response(rng, envelope)
            # The only accepting combination is the real id + real kind
            # from the one queried peer; skip it so everything must bounce.
            if (
                response.request_id == envelope.request_id
                and response.kind == envelope.kind
                and sender == queried_peer
            ):
                continue
            assert manager.on_envelope(response, sender) is True
        assert manager.pending_count() == 1  # still pending, never completed
        assert sim.metrics.counter("req.completed") == 0
        rejected = sum(
            sim.metrics.counter(f"req.rejected_{reason}")
            for reason in ("malformed", "unknown", "replayed", "unsolicited")
        )
        assert rejected > 0
        # The honest reply still lands after the storm.
        assert reply(manager, envelope, "real", sender=queried_peer)
        assert sim.metrics.counter("req.completed") == 1

    def test_hostile_request_storm_never_validates(self):
        rng = random.Random(99)
        sim, transport, manager = build_manager()
        accepted = 0
        for _ in range(300):
            shape = rng.randrange(4)
            if shape == 0:
                candidate = rng.choice(["junk", 7, None, (), {"kind": "kind"}])
                sender = "n1"
            else:
                requester = rng.choice(["n1", "forged", ""])
                candidate = RequestEnvelope(
                    request_id=rng.choice(["n1:req:0", 3, ""]),
                    kind=rng.choice(list(self.KINDS)),
                    payload="q",
                    requester=requester,
                    deadline=rng.choice(
                        [sim.now + 3.0, sim.now - 1.0, "x", None, float("nan")]
                    ),
                )
                sender = rng.choice(["n1", "forged"])
            result = manager.validate_request(candidate, "kind", sender)
            if result is not None:
                accepted += 1
                assert isinstance(result, RequestEnvelope)
                assert result.kind == "kind"
                assert result.requester == sender
                assert result.deadline >= sim.now
        rejections = sum(
            sim.metrics.counter(f"req.rejected_{reason}")
            for reason in ("malformed", "misaddressed", "expired")
        )
        assert accepted + rejections == 300

    def test_fuzzed_managers_are_seed_deterministic(self, monkeypatch):
        monkeypatch.setattr(requests, "BASE_TIMEOUT", 1.0)

        def run(seed):
            rng = random.Random(seed)
            sim, transport, manager = build_manager()
            manager.request("kind", "q", PEERS, max_attempts=4)
            for _ in range(100):
                _, envelope = transport.last_envelope()
                response, sender = self.random_response(rng, envelope)
                manager.on_envelope(response, sender)
                sim.run(until=sim.now + rng.random())
            return dict(sim.metrics.counters)

        assert run(7) == run(7)


# ---------------------------------------------------------- jittered backoff


class TestJitteredBackoff:
    def test_attempt_gates_until_delay_elapses(self):
        sim = Simulator(seed=3)
        backoff = JitteredBackoff(sim, "b", base=2.0)
        assert backoff._rng is None  # built lazily: a gate never used draws nothing
        assert backoff.attempt("k")
        assert not backoff.attempt("k")
        sim.schedule_at(backoff._state["k"][0], lambda: None)
        sim.run()
        assert backoff.attempt("k")

    def test_delays_are_jittered_capped_and_never_lockstep(self):
        # The anti-lockstep property, on the armed delays themselves: each one
        # lies in the jitter band around min(cap, base * factor**n), and no two
        # consecutive ones are equal (a fixed cooldown would repeat forever).
        sim = Simulator(seed=3)
        backoff = JitteredBackoff(sim, "b", base=2.0)
        delays = []
        for attempt in range(20):
            assert backoff.attempt("k")
            allowed_at = backoff._state["k"][0]
            delay = allowed_at - sim.now
            nominal = min(BACKOFF_MAX_DELAY, 2.0 * BACKOFF_FACTOR**attempt)
            assert 0.65 * nominal - 1e-9 <= delay <= 1.35 * nominal + 1e-9
            delays.append(delay)
            sim.schedule_at(allowed_at, lambda: None)
            sim.run()
        assert all(a != b for a, b in zip(delays, delays[1:]))

    def test_prune_filters(self):
        sim = Simulator(seed=3)
        backoff = JitteredBackoff(sim, "b", base=2.0)
        backoff.attempt("k")
        backoff.attempt("other")
        backoff.prune(lambda key: key == "other")
        assert "other" not in backoff._state and "k" in backoff._state
