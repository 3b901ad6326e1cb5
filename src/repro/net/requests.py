"""Unified request/response layer: retries, backoff, rotation, scoreboard.

Checkpoint state transfer and anti-entropy pulls ask peers through one
small manager plus the constants below; a caller chooses only how many
attempts a request gets.  Fixed retry timers would synchronise (after a
heal every starved replica re-asks in lockstep) and let one adversarial
responder stall each requester for a full timeout per attempt, so:

* **Correlated envelopes** — every request carries a fresh ``request_id``
  and an absolute sim-time ``deadline``; responses echo the id.  Replies
  that are malformed, unsolicited, expired, replayed or from a peer we
  never queried are rejected and counted, never dispatched.  The
  responder's identity is the transport sender, never a field of the reply.
* **Seeded-jitter exponential backoff** — retry ``n`` waits
  ``min(MAX_TIMEOUT, BASE_TIMEOUT * BACKOFF_FACTOR**n)`` scaled by
  ``1 + TIMEOUT_JITTER*(2u-1)`` with ``u`` drawn from a named, lazily
  created RNG stream, so retries desynchronise deterministically.  The
  *first* timeout is unjittered: a run that never retries draws no
  randomness at all.
* **Responder rotation** — each retry targets the next candidate peer,
  skipping quarantined ones, so one bad responder cannot monopolise a
  recovery.  A request that retries until it lands (``max_attempts=None``)
  starts at an owner- and sequence-derived offset, so a fleet of
  requesters spreads load and trust across the candidates; a bounded one
  tries its candidates in the caller's preference order, so a scattered
  first pick cannot spend the budget on peers that never had the data.
* **Per-peer scoreboard** — timeouts, garbage replies and stale
  certificates add suspicion weight; suspicion decays exponentially
  (half-life ``DECAY_HALF_LIFE``) and a peer whose decayed suspicion
  crosses ``QUARANTINE_THRESHOLD`` is quarantined *temporarily*: decay
  alone guarantees release, so timeouts can never permanently evict a
  peer that was merely slow.

The manager is inert by construction: constructing one draws no RNG,
schedules no events and registers nothing — cost appears only when a
request is actually issued.  Runs that never issue a request are
byte-identical to builds without this module.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.simulator import Simulator


#: Deadline of a request's first attempt, and the ceiling on the pre-jitter
#: deadline of a retry (each retry multiplies it by :data:`BACKOFF_FACTOR`).
BASE_TIMEOUT = 3.0
MAX_TIMEOUT = 20.0
#: Half-width of the relative jitter band on retry deadlines (``0.25`` →
#: uniform in ``[0.75, 1.25]`` of nominal); the first attempt is never
#: jittered.
TIMEOUT_JITTER = 0.25
#: Suspicion a queried peer earns for a timeout, for a well-formed but
#: wrong-content reply (digest mismatch, tampered body) and for a
#: genuinely-old-but-useless reply (stale certificate, stale base).
TIMEOUT_WEIGHT = 1.0
GARBAGE_WEIGHT = 3.0
STALE_WEIGHT = 2.0
#: Decayed suspicion at which a peer stops being picked for new attempts,
#: and the sim seconds it takes suspicion to halve (which guarantees
#: release with no further evidence).
QUARANTINE_THRESHOLD = 4.0
DECAY_HALF_LIFE = 20.0
#: Growth per retry of a request deadline and per repeat of a
#: :class:`JitteredBackoff` key; that gate's relative jitter half-width
#: (drawn per action, so retries never fall into lockstep after a heal) and
#: the ceiling on its pre-jitter spacing.
BACKOFF_FACTOR = 1.6
BACKOFF_JITTER = 0.35
BACKOFF_MAX_DELAY = 16.0


def timeout_for(attempt: int) -> float:
    """Nominal (pre-jitter) timeout of attempt ``attempt`` (0-based)."""
    # Cap the exponent: requests that retry until they land can accumulate
    # attempt counts large enough that the raw pow overflows a float, and
    # the backoff is saturated at MAX_TIMEOUT well before that anyway.
    return min(MAX_TIMEOUT, BASE_TIMEOUT * BACKOFF_FACTOR ** min(attempt, 64))


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
    deadline: float


@dataclass(frozen=True)
class ResponseEnvelope:
    """A reply correlated to a :class:`RequestEnvelope` by ``request_id``."""

    request_id: str
    kind: str
    payload: Any


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

    def decayed(self, now: float) -> float:
        if self.suspicion <= 0.0:
            return 0.0
        elapsed = max(0.0, now - self.last_update)
        return self.suspicion * 0.5 ** (elapsed / DECAY_HALF_LIFE)


class Scoreboard:
    """Per-peer suspicion scores shared by every request a manager issues."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._scores: Dict[str, PeerScore] = {}

    def _score(self, peer: str) -> PeerScore:
        if peer not in self._scores:
            self._scores[peer] = PeerScore()
        return self._scores[peer]

    def note(self, peer: str, kind: str) -> None:
        """Record evidence against ``peer`` (``timeout``/``garbage``/``stale``)."""
        weight = {
            "timeout": TIMEOUT_WEIGHT,
            "garbage": GARBAGE_WEIGHT,
            "stale": STALE_WEIGHT,
        }[kind]
        now = self._sim.now
        score = self._score(peer)
        score.suspicion = score.decayed(now) + weight
        score.last_update = now
        if kind == "timeout":
            score.timeouts += 1
        elif kind == "garbage":
            score.garbage += 1
        else:
            score.stale += 1
        metrics = self._sim.metrics
        metrics.increment(f"req.evidence_{kind}")
        if not score.quarantined and score.suspicion >= QUARANTINE_THRESHOLD:
            score.quarantined = True
            metrics.increment("req.quarantined")

    def quarantined(self, peer: str) -> bool:
        """Whether ``peer`` is currently quarantined (decay may release it)."""
        score = self._scores.get(peer)
        if score is None or not score.quarantined:
            return False
        if score.decayed(self._sim.now) < QUARANTINE_THRESHOLD:
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
    max_attempts: Optional[int]
    on_response: Optional[Callable[[Any, str], Optional[str]]]
    satisfied: Optional[Callable[[], bool]]
    on_done: Optional[Callable[[], None]]
    size_bytes: int
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
        stream_name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.send_fn = send_fn
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
        self.scoreboard = Scoreboard(sim)
        self._pending: Dict[str, _Pending] = {}
        # Recently completed/cancelled ids, to reject replayed responses.
        self._recent: List[str] = []
        self._recent_set: set = set()

    # ---------------------------------------------------------------- helpers

    def _jitter(self) -> float:
        if self._rng is None:
            self._rng = self.sim.rng.stream(self._stream_name)
        return 1.0 + TIMEOUT_JITTER * (2.0 * self._rng.random() - 1.0)

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
        self._remember(pending.request_id)
        if pending.on_done is not None:
            pending.on_done()

    def _pick_peer(self, pending: _Pending) -> str:
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
        on_done: Optional[Callable[[], None]] = None,
        size_bytes: int = 256,
        max_attempts: Optional[int] = None,
    ) -> Optional[str]:
        """Issue a request; returns its id (``None`` when ``peers`` is empty).

        ``on_response(payload, responder)`` classifies each reply:
        ``"ok"`` completes the request, ``"garbage"``/``"stale"`` add the
        matching scoreboard evidence and retry immediately with rotation,
        ``None``/``"ignore"`` leaves the request pending (the reply said
        nothing either way).  ``satisfied()`` is consulted at each timeout
        so externally-resolved requests complete quietly instead of
        retrying forever.  ``max_attempts`` bounds the attempts (``None``
        retries until the request lands, right for transfers that *must*
        eventually succeed); a bounded request tries ``peers`` in the given
        order, an unbounded one from an owner- and sequence-derived offset.

        ``payload`` may be a zero-argument callable, invoked at *each*
        attempt: retried requests then carry fresh state (e.g. the
        requester's current log length) instead of a snapshot frozen at
        issue time.
        """
        if not peers:
            return None
        sequence = self._next_id
        request_id = f"{self.owner}:req:{sequence}"
        self._next_id += 1
        pending = _Pending(
            request_id=request_id,
            rotation=(self._rotation_base + sequence) if max_attempts is None else 0,
            kind=kind,
            payload=payload,
            peers=tuple(peers),
            max_attempts=max_attempts,
            on_response=on_response,
            satisfied=satisfied,
            on_done=on_done,
            size_bytes=size_bytes,
        )
        self._pending[request_id] = pending
        self._attempt(pending)
        return request_id

    def _attempt(self, pending: _Pending) -> None:
        if pending.done:
            return
        if pending.max_attempts is not None and pending.attempts >= pending.max_attempts:
            self.sim.metrics.increment("req.gave_up")
            self._finish(pending)
            return
        timeout = timeout_for(pending.attempts)
        if pending.attempts > 0:
            timeout *= self._jitter()
        peer = self._pick_peer(pending)
        pending.attempts += 1
        pending.queried.add(peer)
        pending.deadline = self.sim.now + timeout
        payload = pending.payload() if callable(pending.payload) else pending.payload
        envelope = RequestEnvelope(
            request_id=pending.request_id,
            kind=pending.kind,
            payload=payload,
            requester=self.owner,
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

        Rejects (and counts) malformed envelopes (including a deadline that
        is not a finite number), misaddressed envelopes (the wire-level
        sender does not match the claimed requester, so a reply would go to
        a third party) and requests whose deadline already passed — an
        honest server never does work the requester has stopped waiting for.
        """
        metrics = self.sim.metrics
        if not isinstance(envelope, RequestEnvelope):
            metrics.increment("req.rejected_malformed")
            return None
        deadline = envelope.deadline
        if (
            envelope.kind != expected_kind
            or not isinstance(envelope.request_id, str)
            or not isinstance(envelope.requester, str)
            or not isinstance(deadline, (int, float))
            or not math.isfinite(deadline)
        ):
            metrics.increment("req.rejected_malformed")
            return None
        if sender is not None and sender != envelope.requester:
            metrics.increment("req.rejected_misaddressed")
            return None
        if self.sim.now > deadline:
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


# ------------------------------------------------------------------- backoff


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
    "timeout_for",
    "RequestEnvelope",
    "ResponseEnvelope",
    "PeerScore",
    "Scoreboard",
    "RequestManager",
    "JitteredBackoff",
]
