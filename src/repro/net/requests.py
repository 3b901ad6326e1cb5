"""Unified request/response layer: retries, backoff, rotation, scoreboard.

Before this module, every recovery path owned a bespoke retry knob:
checkpoint state transfer re-asked on a fixed ``state_transfer_timeout``,
anti-entropy resends hid behind fixed ``resend_cooldown`` /
``repropose_cooldown`` constants, and checkpoint hints rate-limited on the
announce period.  Fixed timers synchronise: after a heal every starved
replica re-asks in lockstep, and a single adversarial responder can stall
each of them for a full timeout per attempt with no memory of who stalled
whom.  Following the policy-free-middleware framing, this module factors
the whole concern into one swappable policy object plus a small manager:

* **Correlated envelopes** — every request carries a fresh ``request_id``
  and an absolute sim-time ``deadline``; responses echo the id.  Replies
  that are malformed, unsolicited, expired, replayed or from a peer we
  never queried are rejected and counted, never dispatched.
* **Seeded-jitter exponential backoff** — retry ``n`` waits
  ``min(max_timeout, base * factor**n)`` scaled by ``1 + jitter*(2u-1)``
  with ``u`` drawn from a named, lazily created RNG stream, so retries
  desynchronise deterministically.  The *first* timeout is unjittered:
  a run that never retries draws no randomness at all.
* **Responder rotation** — each retry targets the next candidate peer,
  skipping quarantined ones, so one bad responder cannot monopolise a
  recovery.
* **Per-peer scoreboard** — timeouts, garbage replies and stale
  certificates add suspicion weight; suspicion decays exponentially
  (half-life ``decay_half_life``) and a peer whose decayed suspicion
  crosses ``quarantine_threshold`` is quarantined *temporarily*: decay
  alone guarantees release, so timeouts can never permanently evict a
  peer that was merely slow.

The manager is inert by construction: constructing one draws no RNG,
schedules no events and registers nothing — cost appears only when a
request is actually issued.  Runs that never issue a request are
byte-identical to builds without this module.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.simulator import Simulator


# --------------------------------------------------------------------- policy


@dataclass(frozen=True)
class RequestPolicy:
    """Retry/timeout/backoff/quarantine knobs for one request family.

    Attributes:
        base_timeout: Deadline of the first attempt, in sim seconds.
        backoff_factor: Multiplier applied to the timeout per retry.
        max_timeout: Ceiling on the (pre-jitter) per-attempt timeout.
        jitter: Half-width of the relative jitter band applied to retry
            timeouts (``0.25`` → uniform in ``[0.75, 1.25]`` of nominal).
            The first attempt is never jittered.
        max_attempts: Total attempts before giving up (``None`` = retry
            forever — right for transfers that *must* eventually land).
        timeout_weight: Suspicion added when a queried peer times out.
        garbage_weight: Suspicion added for a well-formed but
            wrong-content reply (digest mismatch, tampered body).
        stale_weight: Suspicion added for a genuinely-old-but-useless
            reply (stale certificate, stale base).
        quarantine_threshold: Decayed suspicion at which a peer stops
            being selected for new attempts.
        decay_half_life: Sim seconds for suspicion to halve; guarantees
            quarantine release with no further evidence.
        spread_rotation: When True (default), each request starts its
            responder rotation at an owner- and sequence-derived offset
            so a fleet of requesters spreads load (and trust) across the
            candidate set.  Set False for request families whose caller
            orders candidates by preference — e.g. anti-entropy pulls put
            the summary sender (the one peer *known* to hold the data)
            first, and with bounded ``max_attempts`` a scattered first
            attempt can exhaust the budget on peers that never had it.
    """

    base_timeout: float = 3.0
    backoff_factor: float = 1.6
    max_timeout: float = 20.0
    jitter: float = 0.25
    max_attempts: Optional[int] = None
    timeout_weight: float = 1.0
    garbage_weight: float = 3.0
    stale_weight: float = 2.0
    quarantine_threshold: float = 4.0
    decay_half_life: float = 20.0
    spread_rotation: bool = True

    def timeout_for(self, attempt: int) -> float:
        """Nominal (pre-jitter) timeout of attempt ``attempt`` (0-based)."""
        # Cap the exponent: long-lived requests (max_attempts=None) can
        # accumulate attempt counts large enough that the raw pow
        # overflows a float, and the backoff is saturated at max_timeout
        # well before that anyway.
        scaled = self.base_timeout * self.backoff_factor ** min(attempt, 64)
        return min(self.max_timeout, scaled)


# -------------------------------------------------------------------- frames


@dataclass(frozen=True)
class RequestEnvelope:
    """A correlated request: id, kind, payload, and an absolute deadline.

    ``deadline`` is the sim time after which the requester stops caring;
    honest servers drop expired requests (and count them), and a
    ``slow_drip`` adversary exploits it by answering just inside it.
    """

    request_id: str
    kind: str
    payload: Any
    requester: str
    sent_at: float
    deadline: float


@dataclass(frozen=True)
class ResponseEnvelope:
    """A reply correlated to a :class:`RequestEnvelope` by ``request_id``."""

    request_id: str
    kind: str
    payload: Any
    responder: str


# ----------------------------------------------------------------- scoreboard


@dataclass
class PeerScore:
    """Decaying suspicion for one peer, with quarantine bookkeeping."""

    suspicion: float = 0.0
    last_update: float = 0.0
    timeouts: int = 0
    garbage: int = 0
    stale: int = 0
    quarantined: bool = False

    def decayed(self, now: float, half_life: float) -> float:
        if self.suspicion <= 0.0:
            return 0.0
        if half_life <= 0.0:
            return self.suspicion
        elapsed = max(0.0, now - self.last_update)
        return self.suspicion * 0.5 ** (elapsed / half_life)


class Scoreboard:
    """Per-peer suspicion scores shared by every request a manager issues."""

    def __init__(self, sim: Simulator, policy: RequestPolicy) -> None:
        self._sim = sim
        self._policy = policy
        self._scores: Dict[str, PeerScore] = {}

    def _score(self, peer: str) -> PeerScore:
        if peer not in self._scores:
            self._scores[peer] = PeerScore()
        return self._scores[peer]

    def note(self, peer: str, kind: str) -> None:
        """Record evidence against ``peer`` (``timeout``/``garbage``/``stale``)."""
        policy = self._policy
        weight = {
            "timeout": policy.timeout_weight,
            "garbage": policy.garbage_weight,
            "stale": policy.stale_weight,
        }[kind]
        now = self._sim.now
        score = self._score(peer)
        score.suspicion = score.decayed(now, policy.decay_half_life) + weight
        score.last_update = now
        if kind == "timeout":
            score.timeouts += 1
        elif kind == "garbage":
            score.garbage += 1
        else:
            score.stale += 1
        metrics = self._sim.metrics
        metrics.increment(f"req.evidence_{kind}")
        if not score.quarantined and score.suspicion >= policy.quarantine_threshold:
            score.quarantined = True
            metrics.increment("req.quarantined")

    def quarantined(self, peer: str) -> bool:
        """Whether ``peer`` is currently quarantined (decay may release it)."""
        score = self._scores.get(peer)
        if score is None or not score.quarantined:
            return False
        policy = self._policy
        suspicion = score.decayed(self._sim.now, policy.decay_half_life)
        if suspicion < policy.quarantine_threshold:
            score.quarantined = False
            self._sim.metrics.increment("req.quarantine_released")
            return False
        return True

    def snapshot(self) -> Dict[str, PeerScore]:
        """The raw score map (shared, not copied); empty when never used."""
        return self._scores


# ------------------------------------------------------------------- manager


@dataclass
class _Pending:
    request_id: str
    kind: str
    payload: Any
    peers: Tuple[str, ...]
    policy: RequestPolicy
    on_response: Optional[Callable[[Any, str], Optional[str]]]
    satisfied: Optional[Callable[[], bool]]
    on_give_up: Optional[Callable[[], None]]
    on_done: Optional[Callable[[], None]]
    size_bytes: int
    dedup_key: Optional[str]
    rotation: int = 0
    attempts: int = 0
    queried: set = field(default_factory=set)
    deadline: float = 0.0
    done: bool = False


class RequestManager:
    """Issues correlated requests with rotation, backoff and a scoreboard.

    One manager per protocol endpoint (a checkpoint manager, an
    anti-entropy repairer).  ``send_fn(peer, payload, size_bytes)`` ships
    a :class:`RequestEnvelope`; the owner routes every incoming
    :class:`ResponseEnvelope` to :meth:`on_envelope`.

    Construction is free of side effects: no RNG stream is created, no
    event is scheduled, the scoreboard starts empty.  All of that happens
    lazily on the first :meth:`request`.
    """

    def __init__(
        self,
        sim: Simulator,
        owner: str,
        send_fn: Callable[[str, Any, int], None],
        policy: Optional[RequestPolicy] = None,
        stream_name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.send_fn = send_fn
        self.policy = policy or RequestPolicy()
        self._stream_name = stream_name or f"requests.{owner}"
        self._rng = None
        # Per-instance id counter: managers are built fresh each run, so
        # request ids are deterministic per run (a shared class counter
        # would leak across in-process re-runs and break byte-identity).
        self._next_id = 0
        # Rotation base derived from the owner address (crc32, not hash():
        # stable across interpreter runs) so different requesters start
        # their responder rotation at different candidates instead of all
        # hammering the sorted-first peer.
        self._rotation_base = zlib.crc32(owner.encode("utf-8")) & 0xFFFF
        self.scoreboard = Scoreboard(sim, self.policy)
        self._pending: Dict[str, _Pending] = {}
        self._by_dedup: Dict[str, str] = {}
        # Recently completed/cancelled ids, to reject replayed responses.
        self._recent: List[str] = []
        self._recent_set: set = set()

    # ---------------------------------------------------------------- helpers

    def _jitter(self, policy: RequestPolicy) -> float:
        if policy.jitter <= 0.0:
            return 1.0
        if self._rng is None:
            self._rng = self.sim.rng.stream(self._stream_name)
        return 1.0 + policy.jitter * (2.0 * self._rng.random() - 1.0)

    def _remember(self, request_id: str) -> None:
        self._recent.append(request_id)
        self._recent_set.add(request_id)
        while len(self._recent) > 256:
            self._recent_set.discard(self._recent.pop(0))

    def _finish(self, pending: _Pending) -> None:
        if pending.done:
            return
        pending.done = True
        self._pending.pop(pending.request_id, None)
        if pending.dedup_key is not None:
            if self._by_dedup.get(pending.dedup_key) == pending.request_id:
                del self._by_dedup[pending.dedup_key]
        self._remember(pending.request_id)
        if pending.on_done is not None:
            pending.on_done()

    def _pick_peer(self, pending: _Pending) -> str:
        # The rotation start is offset per request so successive requests
        # spread their first attempts across the candidate set instead of
        # always hammering (and trusting) the sorted-first peer.
        peers = pending.peers
        start = pending.rotation + pending.attempts
        for offset in range(len(peers)):
            peer = peers[(start + offset) % len(peers)]
            if not self.scoreboard.quarantined(peer):
                return peer
        # Every candidate is quarantined: liveness beats suspicion — use
        # the rotation peer anyway (decay will release it soon regardless).
        return peers[start % len(peers)]

    # -------------------------------------------------------------------- API

    def request(
        self,
        kind: str,
        payload: Any,
        peers: Sequence[str],
        *,
        on_response: Optional[Callable[[Any, str], Optional[str]]] = None,
        satisfied: Optional[Callable[[], bool]] = None,
        on_give_up: Optional[Callable[[], None]] = None,
        on_done: Optional[Callable[[], None]] = None,
        size_bytes: int = 256,
        policy: Optional[RequestPolicy] = None,
        dedup_key: Optional[str] = None,
    ) -> Optional[str]:
        """Issue a request; returns its id (``None`` if deduplicated).

        ``on_response(payload, responder)`` classifies each reply:
        ``"ok"`` completes the request, ``"garbage"``/``"stale"`` add the
        matching scoreboard evidence and retry immediately with rotation,
        ``None``/``"ignore"`` leaves the request pending (the reply said
        nothing either way).  ``satisfied()`` is consulted at each timeout
        so externally-resolved requests complete quietly instead of
        retrying forever.

        ``payload`` may be a zero-argument callable, invoked at *each*
        attempt: retried requests then carry fresh state (e.g. the
        requester's current log length) instead of a snapshot frozen at
        issue time.
        """
        if not peers:
            return None
        if dedup_key is not None and dedup_key in self._by_dedup:
            self.sim.metrics.increment("req.deduplicated")
            return None
        sequence = self._next_id
        request_id = f"{self.owner}:req:{sequence}"
        self._next_id += 1
        effective = policy or self.policy
        pending = _Pending(
            request_id=request_id,
            rotation=(self._rotation_base + sequence) if effective.spread_rotation else 0,
            kind=kind,
            payload=payload,
            peers=tuple(peers),
            policy=effective,
            on_response=on_response,
            satisfied=satisfied,
            on_give_up=on_give_up,
            on_done=on_done,
            size_bytes=size_bytes,
            dedup_key=dedup_key,
        )
        self._pending[request_id] = pending
        if dedup_key is not None:
            self._by_dedup[dedup_key] = request_id
        self._attempt(pending)
        return request_id

    def _attempt(self, pending: _Pending) -> None:
        if pending.done:
            return
        policy = pending.policy
        if policy.max_attempts is not None and pending.attempts >= policy.max_attempts:
            self.sim.metrics.increment("req.gave_up")
            self._finish(pending)
            if pending.on_give_up is not None:
                pending.on_give_up()
            return
        timeout = policy.timeout_for(pending.attempts)
        if pending.attempts > 0:
            timeout *= self._jitter(policy)
        peer = self._pick_peer(pending)
        pending.attempts += 1
        pending.queried.add(peer)
        now = self.sim.now
        pending.deadline = now + timeout
        payload = pending.payload() if callable(pending.payload) else pending.payload
        envelope = RequestEnvelope(
            request_id=pending.request_id,
            kind=pending.kind,
            payload=payload,
            requester=self.owner,
            sent_at=now,
            deadline=pending.deadline,
        )
        self.sim.metrics.increment("req.sent")
        self.send_fn(peer, envelope, pending.size_bytes)
        expected = pending.attempts

        def _timeout(pending=pending, peer=peer, expected=expected) -> None:
            self._on_timeout(pending, peer, expected)

        self.sim.schedule(timeout, _timeout, tag=f"{self.owner}:req-timeout")

    def _on_timeout(self, pending: _Pending, peer: str, expected: int) -> None:
        if pending.done or pending.attempts != expected:
            return  # superseded by a response-driven retry
        if pending.satisfied is not None and pending.satisfied():
            self.sim.metrics.increment("req.resolved_externally")
            self._finish(pending)
            return
        self.sim.metrics.increment("req.timeouts")
        self.scoreboard.note(peer, "timeout")
        self._attempt(pending)

    def on_envelope(self, payload: Any, sender: str) -> bool:
        """Validate and dispatch a :class:`ResponseEnvelope`.

        Returns True when the payload was consumed (even if rejected);
        False when it is not a response envelope at all.
        """
        if not isinstance(payload, ResponseEnvelope):
            return False
        metrics = self.sim.metrics
        if not isinstance(payload.request_id, str) or not isinstance(
            payload.kind, str
        ):
            metrics.increment("req.rejected_malformed")
            return True
        pending = self._pending.get(payload.request_id)
        if pending is None:
            if payload.request_id in self._recent_set:
                metrics.increment("req.rejected_replayed")
            else:
                metrics.increment("req.rejected_unknown")
            return True
        if payload.kind != pending.kind:
            metrics.increment("req.rejected_malformed")
            return True
        if sender not in pending.queried:
            metrics.increment("req.rejected_unsolicited")
            return True
        verdict = (
            pending.on_response(payload.payload, sender)
            if pending.on_response is not None
            else "ok"
        )
        if verdict == "ok":
            metrics.increment("req.completed")
            self._finish(pending)
        elif verdict in ("garbage", "stale"):
            metrics.increment(f"req.{verdict}_replies")
            self.scoreboard.note(sender, verdict)
            # Retry immediately with rotation; bump attempts bookkeeping so
            # the outstanding timeout for this attempt lapses harmlessly.
            self._attempt(pending)
        # None / "ignore": the reply proved nothing; keep waiting.
        return True

    def validate_request(
        self, envelope: Any, expected_kind: str, sender: Optional[str] = None
    ) -> Optional[RequestEnvelope]:
        """Server-side envelope check; returns the envelope or ``None``.

        Rejects (and counts) malformed envelopes, misaddressed envelopes
        (the wire-level sender does not match the claimed requester, so a
        reply would go to a third party) and requests whose deadline
        already passed — an honest server never does work the requester
        has stopped waiting for.
        """
        metrics = self.sim.metrics
        if not isinstance(envelope, RequestEnvelope):
            metrics.increment("req.rejected_malformed")
            return None
        if (
            envelope.kind != expected_kind
            or not isinstance(envelope.request_id, str)
            or not isinstance(envelope.requester, str)
        ):
            metrics.increment("req.rejected_malformed")
            return None
        if sender is not None and sender != envelope.requester:
            metrics.increment("req.rejected_misaddressed")
            return None
        if self.sim.now > envelope.deadline:
            metrics.increment("req.rejected_expired")
            return None
        return envelope

    def respond(
        self, envelope: RequestEnvelope, payload: Any, size_bytes: int = 256
    ) -> None:
        """Ship a correlated response back to the envelope's requester."""
        response = ResponseEnvelope(
            request_id=envelope.request_id,
            kind=envelope.kind,
            payload=payload,
            responder=self.owner,
        )
        self.send_fn(envelope.requester, response, size_bytes)

    def cancel(self, request_id: str) -> None:
        pending = self._pending.get(request_id)
        if pending is not None:
            self._finish(pending)

    def cancel_all(self) -> None:
        for pending in list(self._pending.values()):
            self._finish(pending)

    def pending_count(self) -> int:
        return len(self._pending)

    def has_pending(self, dedup_key: str) -> bool:
        return dedup_key in self._by_dedup


# ------------------------------------------------------------------- backoff


#: Repair-spacing growth per repeat of one key, relative jitter half-width
#: (drawn per action, so retries never fall into lockstep after a heal) and
#: the ceiling on the pre-jitter spacing.
BACKOFF_FACTOR = 1.6
BACKOFF_JITTER = 0.35
BACKOFF_MAX_DELAY = 16.0


class JitteredBackoff:
    """Per-key seeded-jitter exponential backoff gate.

    Replaces fixed cooldown constants: :meth:`attempt` answers "may I act on
    ``key`` now?", and acting pushes the next allowance out by
    ``base * BACKOFF_FACTOR**n`` (capped at ``BACKOFF_MAX_DELAY``) scaled by
    ``1 + BACKOFF_JITTER * (2u - 1)``, ``u`` drawn from a lazily created
    named stream.  Keys whose pressure subsides are dropped via
    :meth:`prune`.
    """

    def __init__(self, sim: Simulator, stream_name: str, base: float) -> None:
        self.sim = sim
        self._stream_name = stream_name
        self.base = base
        self._rng = None
        # key -> (next_allowed_time, consecutive_attempts)
        self._state: Dict[Any, Tuple[float, int]] = {}

    def attempt(self, key: Any) -> bool:
        """Gate an action on ``key``: True (and arm the backoff) or False."""
        now = self.sim.now
        state = self._state.get(key)
        if state is not None and now < state[0]:
            return False
        attempts = state[1] if state is not None else 0
        delay = min(BACKOFF_MAX_DELAY, self.base * BACKOFF_FACTOR**attempts)
        if self._rng is None:
            self._rng = self.sim.rng.stream(self._stream_name)
        delay *= 1.0 + BACKOFF_JITTER * (2.0 * self._rng.random() - 1.0)
        self._state[key] = (now + delay, attempts + 1)
        return True

    def prune(self, predicate: Callable[[Any], bool]) -> None:
        """Drop every key for which ``predicate`` holds (GC helper)."""
        for key in [k for k in self._state if predicate(k)]:
            del self._state[key]


__all__ = [
    "RequestPolicy",
    "RequestEnvelope",
    "ResponseEnvelope",
    "PeerScore",
    "Scoreboard",
    "RequestManager",
    "JitteredBackoff",
]
