"""PBFT checkpointing and state transfer: liveness-restoring catch-up.

Before this module, a PBFT replica that missed decisions (isolated by a
partition, on the losing side of a split) was *safe but never live* again
unless fresh traffic forced a view change: its decided log stalled at the
gap forever.  Classic PBFT solves this with periodic checkpoints and state
transfer, and that is what :class:`CheckpointManager` adds to
:class:`~repro.smr.pbft.PbftReplica`:

* every ``checkpoint_interval`` executed operations a replica signs and
  broadcasts a :class:`Checkpoint` over the digest of its decided log;
* ``2f + 1`` matching checkpoints form a :class:`CheckpointCertificate`
  (the *stable checkpoint*), at which point the protocol message log below
  it is garbage-collected (executed slots feed no future view change vote:
  laggards catch up through state transfer instead);
* a replica that learns of a certified checkpoint ahead of its own decided
  log — through checkpoint votes, a :class:`CheckpointAnnounce`, or the
  certificate carried by view-change/new-view messages — fetches the missing
  operations plus the certificate from a co-replica
  (:class:`StateTransferRequest` / :class:`StateTransferResponse`, always
  inside a ``ckpt.transfer`` envelope of :mod:`repro.net.requests`),
  verifies the transferred prefix against the certified state digest, and
  installs it.  Installation replays ``decide_fn`` so the host node's
  delivered-broadcast state (the snapshot the paper's state transfer
  ships) is restored too.

Safety of installation never rests on the responder: a certificate needs
``2f + 1`` distinct member signatures over ``(epoch, seq, state digest)``,
and the response is accepted only if the digest of (own log + transferred
operations) equals the certified digest — a forged certificate, a
tampered operation body, a stale low-water-mark or a response that no
longer lines up with the local log is rejected and counted
(``smr.checkpoint.rejected``), never installed.

Everything here is driven by existing protocol events plus one announce
timer per replica: the shared :class:`~repro.sim.trickle.Trickle` timer
(Levis et al., NSDI 2004; RFC 6206), which anti-entropy summaries run on
too.  Its interval starts at :data:`ANNOUNCE_PERIOD`, doubles after every
round in which members were heard, up to :data:`ANNOUNCE_MAX_PERIODS`
periods, and falls back to the period -- with the next announce as soon as
one period has passed since the last -- when a member's announce disagrees
with ours or we enter a new epoch.  A group that agrees announces every
32 s instead of every 2 s.  Every PBFT replica owns one manager:
checkpoints are part of the protocol, as in PBFT, because log garbage
collection and state transfer depend on them.

Two things are hashed once instead of once per use.  A signed statement
(:func:`checkpoint_statement`, :func:`transition_statement`, a chain link)
is a tuple of strings and integers, which the digest memo keys by value:
it is encoded once per deployment, however many replicas rebuild it, and
the registry's MAC of each signature over it is computed once, when it is
signed -- each of the ``n - 1`` votes and each certificate's ``2f + 1``
signatures is a lookup.  And the state chain folds *operation digests*
(:func:`state_digest_of`), which the pre-prepare check already memoised,
instead of re-encoding every decided operation per checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.crypto.digest import digest_object
from repro.crypto.keys import Signature
from repro.net.requests import RequestEnvelope, RequestManager, ResponseEnvelope
from repro.sim.trickle import MAX_PERIODS as ANNOUNCE_MAX_PERIODS, Trickle
from repro.smr.base import MESSAGE_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.smr.base import Operation
    from repro.smr.pbft import PbftReplica


#: Trickle's shortest announce interval (the liveness path for replicas that
#: were cut off while a checkpoint formed); the longest is
#: ``ANNOUNCE_MAX_PERIODS`` (the shared timer's cap) periods: 32 s.
ANNOUNCE_PERIOD = 2.0


# --------------------------------------------------------------------- frames


@dataclass(frozen=True)
class Checkpoint:
    """One replica's signed claim "my first ``seq`` decided ops digest to X".

    ``seq`` counts *decided operations* (the length of the decided log),
    not per-view sequence numbers: view changes and epoch-local sequence
    resets never renumber the decided log, so certificates stay comparable
    across views.
    """

    epoch: int
    seq: int
    state_digest: str
    replica: str
    signature: Signature


@dataclass(frozen=True)
class CheckpointCertificate:
    """``2f + 1`` matching checkpoint signatures: a *stable* checkpoint."""

    epoch: int
    seq: int
    state_digest: str
    signatures: Tuple[Signature, ...]

    @property
    def signers(self) -> Tuple[str, ...]:
        return tuple(signature.signer for signature in self.signatures)


@dataclass(frozen=True)
class CheckpointAnnounce:
    """Trickle-timed re-broadcast of the stable checkpoint (plus the log length).

    This is the liveness path for a healed replica when no new requests
    flow: checkpoint votes were broadcast while it was cut off, so only an
    announce lets it discover the gap at all.  Its own (stale) announce is
    an inconsistency to every peer that hears it, so they answer within a
    period even when the group had backed off to the longest interval.
    ``log_length`` additionally covers the *uncertified tail* — operations
    decided since the last checkpoint (or before the first one forms).  A
    replica whose log stays frozen below an announced length for a full
    grace period starts a view change, whose carried prepared slots
    re-serve exactly that tail; the claim itself is unverified, but a view
    change is always safe and a single Byzantine replica can force one
    anyway by sending a view-change vote, so this adds no new attack
    surface.
    """

    epoch: int
    certificate: Optional[CheckpointCertificate]
    log_length: int = 0
    # The announcer's current PBFT view.  A healed replica may be several
    # views behind its co-replicas (view changes happened while it was cut
    # off); its recovery view change must propose a view *above* theirs or
    # they ignore the vote (``new_view <= self.view``) and the tail stalls
    # forever.  The announce is the only traffic guaranteed to flow to a
    # quiet straggler, so it carries the view.
    view: int = 0
    # Empty for an own-epoch certificate; the re-anchoring transition
    # chain when the certificate was carried across reconfigurations
    # (see EpochTransition below).
    transitions: Tuple["EpochTransition", ...] = ()


@dataclass(frozen=True)
class EpochTransition:
    """A quorum-signed re-anchoring of a certificate into a new epoch.

    Certificates are signed over their epoch, and a reconfiguration may
    replace the very members that signed them — so on entering epoch
    ``new_epoch``, ``2f + 1`` of the *new* membership countersign the best
    certificate carried out of the outgoing epoch.  A contiguous chain of
    these records (one per epoch crossed, no gaps) is what lets a replica
    isolated across several reconfigurations verify an old-epoch
    certificate all the way back to the epoch that minted it: each link's
    ``prev_members`` attests the membership that must have signed the link
    below, and the top link is checked against the verifier's own current
    membership.
    """

    new_epoch: int
    members: Tuple[str, ...]        # new membership (sorted) that signed
    prev_members: Tuple[str, ...]   # outgoing membership (sorted)
    certificate: CheckpointCertificate  # the certificate being re-anchored
    signatures: Tuple[Signature, ...]

    @property
    def signers(self) -> Tuple[str, ...]:
        return tuple(signature.signer for signature in self.signatures)


@dataclass(frozen=True)
class EpochTransitionVote:
    """One new-epoch member's signature toward an :class:`EpochTransition`."""

    new_epoch: int
    members: Tuple[str, ...]
    prev_members: Tuple[str, ...]
    certificate: CheckpointCertificate
    replica: str
    signature: Signature


@dataclass(frozen=True)
class StateTransferRequest:
    """"I have ``have_count`` decided operations; serve me your checkpoint"."""

    epoch: int
    have_count: int


@dataclass(frozen=True)
class StateTransferResponse:
    """The certified prefix ``[base_count, certificate.seq)`` of the log.

    ``transitions`` is empty when the certificate belongs to the current
    epoch; for a cross-epoch certificate it carries the contiguous
    transition chain that re-anchors it into the receiver's epoch.
    """

    epoch: int
    certificate: CheckpointCertificate
    base_count: int
    operations: Tuple["Operation", ...]
    transitions: Tuple[EpochTransition, ...] = ()


def _is_count(value) -> bool:
    """Whether ``value`` is a non-negative ``int`` (an epoch or a log length)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def checkpoint_statement(epoch: int, seq: int, state_digest: str) -> Tuple:
    """The statement a checkpoint signature covers."""
    return ("pbft-checkpoint", epoch, seq, state_digest)


def transition_statement(
    new_epoch: int,
    members: Sequence[str],
    prev_members: Sequence[str],
    certificate: CheckpointCertificate,
) -> Tuple:
    """The statement an epoch-transition signature covers."""
    return (
        "pbft-epoch-transition",
        new_epoch,
        tuple(members),
        tuple(prev_members),
        certificate.epoch,
        certificate.seq,
        certificate.state_digest,
    )


def _quorum_of(members: Sequence[str]) -> int:
    """2f+1 for an arbitrary membership tuple (1 for singletons)."""
    count = len(members)
    if count <= 1:
        return 1
    return 2 * ((count - 1) // 3) + 1


def _fold_chain(digest: str, operations: Sequence["Operation"], interval: int) -> str:
    """Fold ``operations`` onto the chain value ``digest``, chunk by chunk.

    The one definition of the state chain (see :func:`state_digest_of`):
    ``d_i = H(d_{i-1}, (H(op) ...))`` over ``interval``-sized chunks.
    """
    for start in range(0, len(operations), interval):
        chunk = tuple(digest_object(op) for op in operations[start : start + interval])
        digest = digest_object(("pbft-ckpt-chain", digest, chunk))
    return digest


def state_digest_of(operations: Sequence["Operation"], interval: int) -> str:
    """Chained digest of a decided-log prefix (operation *contents*).

    Every link hashes the *digests* of its operations — memoised by
    identity since the pre-prepare check, so a checkpoint re-hashes a few hex
    strings, not every operation body.  An operation's digest covers its
    whole content (kind, body, proposer, op id), so the chain binds
    contents, not just op ids, and a state transfer receiver detects
    tampered operation bodies: a response whose operations do not reproduce
    the certified digest is rejected whole.  (A tampered copy is a different
    object, so the identity memo cannot serve it the original's digest.)

    The digest chains in ``interval``-sized chunks rather than hashing the
    whole prefix flat: emitters fold only the newest chunk onto a cached
    chain value (O(interval) per checkpoint instead of O(log) — see
    :meth:`CheckpointManager._state_digest_at`), while any verifier with
    the full prefix can recompute the chain from genesis.  Chunk
    boundaries are deterministic because every certificate seq is a
    multiple of the group-wide configured interval.
    """
    return _fold_chain("", operations, interval)


# -------------------------------------------------------------------- manager


class CheckpointManager:
    """Checkpoint/state-transfer state of one :class:`PbftReplica`.

    The replica creates and owns the manager (``replica.checkpoints``),
    feeds it every newly committed operation (:meth:`on_committed`), merges
    :meth:`frame_handlers` into its routing table, and consults
    :attr:`transfer_blocking` before executing slots — while a certified checkpoint ahead of the
    local log is known and not yet installed, executing new-view
    re-proposals would append operations *after* the missing prefix and
    diverge, so execution pauses until the transfer installs.
    """

    def __init__(self, replica: "PbftReplica") -> None:
        self.replica = replica
        self.interval = replica.params.checkpoint_interval
        self.stable: Optional[CheckpointCertificate] = None
        # (seq, digest) -> signer -> verified signature.
        self._votes: Dict[Tuple[int, str], Dict[str, Signature]] = {}
        # Decided-log position per op id, for slot GC below the stable
        # checkpoint (kept in lockstep with replica.decided_log).
        self._positions: Dict[str, int] = {}
        # Outstanding state transfer: the certificate we must install up to.
        self._transfer_target: Optional[CheckpointCertificate] = None
        # Whether the install should be followed by a view change to
        # realign the view-local execution cursor.  True for transfers
        # triggered outside a view change (votes, announce);
        # False when a new view triggered the transfer — that view's own
        # re-proposals already run under a fresh, gap-free numbering.
        self._realign_after_install = True
        self._announce = Trickle(
            replica.sim,
            ANNOUNCE_PERIOD,
            self._announce_tick,
            tag=f"{replica.node_id}:ckpt-announce",
        )
        # The stable certificate this one replaced: kept only so a
        # `stale_cert` adversary has something genuinely old to serve.
        self.previous_stable: Optional[CheckpointCertificate] = None
        # Epoch-crossing anchor: the best certificate carried out of an
        # earlier epoch, plus the contiguous transition chain (oldest
        # first, one record per epoch crossed) that re-anchors it into the
        # current epoch.  Superseded as soon as an own-epoch certificate
        # forms.
        self.anchor: Optional[CheckpointCertificate] = None
        self.transitions: list = []
        # Transition votes for the current epoch: statement digest ->
        # signer -> vote; plus the statements we already signed (own
        # proposal or f+1-backed countersign), so each replica signs a
        # statement at most once per epoch.
        self._transition_votes: Dict[str, Dict[str, EpochTransitionVote]] = {}
        self._transition_signed: set = set()
        # Retries, rotation, backoff and the responder scoreboard live in
        # the unified request layer.
        self._requests = RequestManager(
            replica.sim,
            replica.node_id,
            replica._send,
            stream_name=f"requests.ckpt.{replica.node_id}",
        )
        self._transfer_request_id: Optional[str] = None
        # Sim time the current catch-up gap opened (-1 = no open gap);
        # feeds the catch-up-latency-under-attack matrix rows.
        self._gap_since: float = -1.0
        # Tail catch-up state: how long our log has been frozen below a
        # co-replica's announced (uncertified) log length.
        self._tail_seen_length = -1
        self._tail_deficit_since = -1.0
        self._tail_peer_length = 0  # the announced length that started the clock
        self._last_tail_view_change = -1.0
        # Highest PBFT view any co-replica announced this epoch; recovery
        # view changes propose past it (see _note_peer_log_length).
        self.peer_view_seen = 0
        # Incremental chain-digest cache: the chained state digest over the
        # first _chain_count decided operations (a multiple of interval).
        # The decided log is append-only, so each emission folds only the
        # chunks decided since the last one.
        self._chain_count = 0
        self._chain_digest = ""
        self._announce.start(replica.sim.now + ANNOUNCE_PERIOD)

    # ----------------------------------------------------------------- queries

    @property
    def stable_seq(self) -> int:
        """Sequence (decided-op count) of the best certified checkpoint.

        Counts the cross-epoch anchor too: for gap detection and serving
        it is as good as an own-epoch stable checkpoint (its transition
        chain makes it verifiable in the current epoch).
        """
        best = self.best_certificate()
        return best.seq if best is not None else 0

    def best_certificate(self) -> Optional[CheckpointCertificate]:
        """The highest certified checkpoint known (own-epoch or anchored)."""
        stable, anchor = self.stable, self.anchor
        if stable is None:
            return anchor
        if anchor is None or stable.seq >= anchor.seq:
            return stable
        return anchor

    def _serving_chain(
        self,
    ) -> Tuple[Optional[CheckpointCertificate], Tuple["EpochTransition", ...]]:
        """The (certificate, transition chain) this replica can serve.

        An own-epoch stable checkpoint needs no chain.  The cross-epoch
        anchor is servable only while its chain is complete — one record
        per epoch from the anchor's epoch up to the current one, all
        re-anchoring exactly the anchor — because receivers reject
        anything less (``skipped_epoch``).
        """
        stable, anchor = self.stable, self.anchor
        if stable is not None and (anchor is None or stable.seq >= anchor.seq):
            return stable, ()
        if anchor is None:
            return None, ()
        chain = tuple(self.transitions)
        expected = list(range(anchor.epoch + 1, self.replica.epoch + 1))
        if [record.new_epoch for record in chain] != expected:
            return None, ()
        top = chain[-1].certificate if chain else None
        if top is None or (top.epoch, top.seq, top.state_digest) != (
            anchor.epoch,
            anchor.seq,
            anchor.state_digest,
        ):
            return None, ()
        return anchor, chain

    @property
    def transfer_blocking(self) -> bool:
        """Whether execution must pause until a state transfer installs.

        True while a *certified* checkpoint ahead of the local decided log
        is known: executing newer slots first would commit operations past
        the missing prefix and break prefix consistency.
        """
        target = self._transfer_target
        if target is None:
            return False
        if len(self.replica.decided_log) >= target.seq:
            self._transfer_target = None
            self._gap_closed()
            return False
        return True

    def _gap_closed(self) -> None:
        """The catch-up gap just closed: record how long recovery took."""
        if self._gap_since >= 0:
            self._metrics().observe(
                "smr.checkpoint.catchup_latency", self.replica.sim.now - self._gap_since
            )
            self._gap_since = -1.0

    def _metrics(self):
        return self.replica.sim.metrics

    def _reject(self, reason: str) -> None:
        metrics = self._metrics()
        metrics.increment("smr.checkpoint.rejected")
        metrics.increment(f"smr.checkpoint.rejected_{reason}")

    # ------------------------------------------------------------ vote pipeline

    def on_committed(self, operation: "Operation") -> None:
        """A newly decided operation was appended to the decided log."""
        log = self.replica.decided_log
        self._positions[operation.op_id] = len(log) - 1
        if len(log) % self.interval == 0:
            self._emit_checkpoint(len(log))

    def _advance_chain(self, limit: int) -> None:
        """Fold full decided-log chunks up to ``limit`` into the cache."""
        count, interval = self._chain_count, self.interval
        full = count + (limit - count) // interval * interval
        if full > count:
            self._chain_digest = _fold_chain(
                self._chain_digest, self.replica.decided_log[count:full], interval
            )
            self._chain_count = full

    def _state_digest_at(self, seq: int) -> str:
        """Chained state digest over the first ``seq`` decided operations.

        Advances the incremental cache chunk by chunk, so each checkpoint
        emission costs O(interval) digest work regardless of log length;
        equals ``state_digest_of(decided_log[:seq], interval)``.  Certificate
        seqs are interval multiples (the tail below is then empty); a stray
        partial tail still digests deterministically, uncached.
        """
        self._advance_chain(seq)
        tail = self.replica.decided_log[self._chain_count : seq]
        return _fold_chain(self._chain_digest, tail, self.interval)

    def _chained_digest_with(self, operations: Sequence["Operation"]) -> str:
        """Chain digest over (decided log + ``operations``), cache-assisted.

        Equals ``state_digest_of(log + operations, interval)`` but folds
        only the local log's uncached tail plus the transferred chunk —
        O(interval + len(operations)) per state-transfer verification
        instead of re-hashing the whole log from genesis.
        """
        log = self.replica.decided_log
        self._advance_chain(len(log))
        tail = log[self._chain_count :] + list(operations)
        return _fold_chain(self._chain_digest, tail, self.interval)

    def _emit_checkpoint(self, seq: int) -> None:
        replica = self.replica
        digest = self._state_digest_at(seq)
        statement = checkpoint_statement(replica.epoch, seq, digest)
        message = Checkpoint(
            epoch=replica.epoch,
            seq=seq,
            state_digest=digest,
            replica=replica.node_id,
            signature=replica.registry.sign(replica.node_id, statement),
        )
        self._metrics().increment("smr.checkpoint.emitted")
        replica._broadcast(message)
        self._record_vote(message)

    def on_checkpoint(self, message: Checkpoint, sender: str) -> None:
        replica = self.replica
        if message.epoch != replica.epoch:
            return
        if message.seq < 1:
            self._reject("bad_seq")
            return
        if message.replica != sender and sender != replica.node_id:
            self._reject("relayed_vote")
            return
        if message.replica not in replica._member_set:
            self._reject("non_member")
            return
        signature = message.signature
        statement = checkpoint_statement(message.epoch, message.seq, message.state_digest)
        if signature.signer != message.replica or not replica.registry.verify(
            signature, statement
        ):
            self._reject("bad_signature")
            return
        self._record_vote(message)

    def _record_vote(self, message: Checkpoint) -> None:
        if self.stable is not None and message.seq <= self.stable.seq:
            return
        votes = self._votes.setdefault((message.seq, message.state_digest), {})
        votes[message.replica] = message.signature
        if len(votes) >= self.replica._quorum:
            certificate = CheckpointCertificate(
                epoch=self.replica.epoch,
                seq=message.seq,
                state_digest=message.state_digest,
                signatures=tuple(votes[signer] for signer in sorted(votes)),
            )
            self._adopt_stable(certificate)

    # -------------------------------------------------------- epoch transitions

    def on_epoch_change(self, prev_members: Sequence[str]) -> None:
        """The replica just entered a new epoch (reconfiguration installed).

        Epoch-scoped state resets as before, but the best certificate of
        the outgoing epoch — own stable or inherited anchor, with its
        chain — survives as the new anchor, and a transition vote over it
        is broadcast so 2f+1 of the *new* membership re-anchor it into
        this epoch.  Without this, a quiet group after a reconfiguration
        has nothing certified to serve and an isolated replica could
        never catch up until fresh traffic minted a new checkpoint.
        """
        outgoing = self.best_certificate()
        carried = list(self.transitions) if self.anchor is not None else []
        if self.stable is not None and (
            self.anchor is None or self.stable.seq >= self.anchor.seq
        ):
            carried = []
        self.reset_for_epoch()
        if outgoing is None:
            return
        self.anchor = outgoing
        self.transitions = carried
        self._propose_transition(outgoing, tuple(sorted(prev_members)))

    def _propose_transition(
        self, certificate: CheckpointCertificate, prev_members: Tuple[str, ...]
    ) -> None:
        replica = self.replica
        members = replica._ordered
        statement = transition_statement(
            replica.epoch, members, prev_members, certificate
        )
        key = digest_object(statement)
        self._transition_signed.add(key)
        vote = EpochTransitionVote(
            new_epoch=replica.epoch,
            members=members,
            prev_members=prev_members,
            certificate=certificate,
            replica=replica.node_id,
            signature=replica.registry.sign(replica.node_id, statement),
        )
        self._metrics().increment("smr.checkpoint.transition_votes")
        replica._broadcast(vote)
        self._record_transition_vote(vote, key)

    def on_transition_vote(self, message: EpochTransitionVote, sender: str) -> None:
        replica = self.replica
        if message.new_epoch != replica.epoch:
            return
        if message.replica != sender and sender != replica.node_id:
            self._reject("transition_relayed_vote")
            return
        if message.replica not in replica.members:
            self._reject("transition_non_member")
            return
        if tuple(message.members) != replica._ordered:
            self._reject("transition_mismatch")
            return
        certificate = message.certificate
        if (
            not isinstance(certificate, CheckpointCertificate)
            or certificate.epoch >= replica.epoch
            or certificate.seq < 1
        ):
            self._reject("bad_transition")
            return
        statement = transition_statement(
            message.new_epoch, message.members, message.prev_members, certificate
        )
        if message.signature.signer != message.replica or not replica.registry.verify(
            message.signature, statement
        ):
            self._reject("transition_bad_signature")
            return
        # The embedded certificate must verify against the membership the
        # vote claims signed it, or votes could launder a forged
        # certificate into a quorum-signed transition.  A certificate
        # minted in the immediately-outgoing epoch raw-verifies against
        # ``prev_members``.  An OLDER certificate (a quiet group whose
        # anchor already crossed a boundary) was never signed by
        # ``prev_members`` — different replicas even hold copies with
        # different 2f+1 signature subsets, some naming since-departed
        # members.  For those, a voter vouches from its own carried
        # anchor: it reached this epoch holding the same certified
        # (epoch, seq, digest), so its own transition chain already
        # authenticates the content regardless of which signature copy
        # the vote embeds.
        if certificate.epoch == message.new_epoch - 1:
            if not self._certificate_valid_for(certificate, tuple(message.prev_members)):
                self._reject("bad_transition")
                return
        else:
            anchor = self.anchor
            if anchor is None or (
                anchor.epoch,
                anchor.seq,
                anchor.state_digest,
            ) != (certificate.epoch, certificate.seq, certificate.state_digest):
                self._reject("bad_transition")
                return
        self._record_transition_vote(message, digest_object(statement))

    def _record_transition_vote(self, vote: EpochTransitionVote, key: str) -> None:
        replica = self.replica
        votes = self._transition_votes.setdefault(key, {})
        votes[vote.replica] = vote
        if (
            replica.node_id not in votes
            and key not in self._transition_signed
            and len(votes) >= replica.fault_threshold + 1
        ):
            # Countersign: a member that cannot vouch for the outgoing
            # epoch itself (fresh joiner, or a straggler with no anchor)
            # joins once f+1 current members back the same statement — at
            # least one of them is correct, and the embedded certificate
            # already verified against the claimed outgoing membership.
            self._transition_signed.add(key)
            statement = transition_statement(
                vote.new_epoch, vote.members, vote.prev_members, vote.certificate
            )
            own = EpochTransitionVote(
                new_epoch=vote.new_epoch,
                members=vote.members,
                prev_members=vote.prev_members,
                certificate=vote.certificate,
                replica=replica.node_id,
                signature=replica.registry.sign(replica.node_id, statement),
            )
            self._metrics().increment("smr.checkpoint.transition_votes")
            replica._broadcast(own)
            votes[replica.node_id] = own
        if len(votes) < replica._quorum:
            return
        record = EpochTransition(
            new_epoch=vote.new_epoch,
            members=vote.members,
            prev_members=vote.prev_members,
            certificate=vote.certificate,
            signatures=tuple(votes[signer].signature for signer in sorted(votes)),
        )
        self._adopt_transition(record)

    def _adopt_transition(self, record: EpochTransition) -> None:
        """A quorum formed for this epoch's transition record."""
        existing = next(
            (t for t in self.transitions if t.new_epoch == record.new_epoch), None
        )
        if existing is not None and (
            existing.certificate.seq >= record.certificate.seq
        ):
            return
        if existing is not None:
            self.transitions = [
                t for t in self.transitions if t.new_epoch != record.new_epoch
            ]
        self.transitions.append(record)
        self.transitions.sort(key=lambda t: t.new_epoch)
        self._metrics().increment("smr.checkpoint.epoch_transitions")
        certificate = record.certificate
        if self.anchor is None or certificate.seq > self.anchor.seq:
            # The quorum re-anchored a newer certificate than ours (a peer
            # entered the epoch with a fresher stable checkpoint): adopt
            # it, keeping only chain links that re-anchor it, and chase
            # the gap if it outruns our log.
            self.anchor = certificate
            self.transitions = [
                t
                for t in self.transitions
                if (
                    t.certificate.epoch,
                    t.certificate.seq,
                    t.certificate.state_digest,
                )
                == (certificate.epoch, certificate.seq, certificate.state_digest)
            ]
            if len(self.replica.decided_log) < certificate.seq:
                self._begin_transfer(certificate)

    # ------------------------------------------------------- stable checkpoints

    def valid_certificate(self, certificate: Optional[CheckpointCertificate]) -> bool:
        """Self-contained certificate check: signatures, membership, quorum."""
        if certificate is None:
            return False
        replica = self.replica
        if certificate.epoch != replica.epoch:
            return False
        return self._certificate_valid_for(certificate, replica.members)

    def _certificate_valid_for(
        self, certificate: Optional[CheckpointCertificate], members: Sequence[str]
    ) -> bool:
        """Certificate check against an explicit membership (epoch-agnostic).

        The cross-epoch verification path supplies the *outgoing*
        membership attested by a transition chain; the own-epoch path
        supplies the replica's current members.
        """
        if not isinstance(certificate, CheckpointCertificate):
            return False
        if certificate.seq < 1:
            return False
        signers = certificate.signers
        if len(set(signers)) != len(signers):
            return False
        if not set(signers) <= set(members):
            return False
        if len(signers) < _quorum_of(members):
            return False
        statement = digest_object(
            checkpoint_statement(certificate.epoch, certificate.seq, certificate.state_digest)
        )
        registry = self.replica.registry
        return all(
            registry.verify_digest(signature, statement) for signature in certificate.signatures
        )

    def _transition_chain_error(
        self,
        certificate: CheckpointCertificate,
        transitions: Sequence["EpochTransition"],
    ) -> Optional[str]:
        """Verify a cross-epoch certificate against its transition chain.

        Returns ``None`` when the chain re-anchors ``certificate`` into
        the current epoch, or the reject-reason string otherwise.  The
        chain must cover every epoch from the certificate's to the current
        one with no gaps; each link must be quorum-signed by its own new
        membership — the top link by *our* members, each lower link by the
        membership the link above attests as outgoing — and the top link
        must re-anchor exactly the served certificate.  Trust therefore
        roots in the verifier's own membership knowledge, never in the
        responder.
        """
        replica = self.replica
        if not isinstance(certificate, CheckpointCertificate):
            return "bad_certificate"
        if certificate.epoch >= replica.epoch or certificate.epoch < 0:
            return "bad_certificate"
        chain = list(transitions)
        if any(not isinstance(record, EpochTransition) for record in chain):
            return "bad_transition"
        expected = list(range(certificate.epoch + 1, replica.epoch + 1))
        if [record.new_epoch for record in chain] != expected:
            return "skipped_epoch"
        top = chain[-1].certificate
        if not isinstance(top, CheckpointCertificate) or (
            top.epoch,
            top.seq,
            top.state_digest,
        ) != (certificate.epoch, certificate.seq, certificate.state_digest):
            return "transition_mismatch"
        members: Tuple[str, ...] = replica._ordered
        previous_seq = None
        for record in reversed(chain):
            if tuple(record.members) != members:
                return "transition_mismatch"
            if not isinstance(record.certificate, CheckpointCertificate):
                return "bad_transition"
            # Re-anchored certificates may only grow going up the chain: a
            # link claiming a *newer* certificate than the link above it
            # contradicts the append-only log the chain certifies.
            if previous_seq is not None and record.certificate.seq > previous_seq:
                return "transition_mismatch"
            previous_seq = record.certificate.seq
            error = self._transition_record_error(record, members)
            if error is not None:
                return error
            members = tuple(sorted(record.prev_members))
        # `members` is now the membership of the certificate's own epoch,
        # as attested by the bottom link: the certificate itself must
        # verify against it.
        if not self._certificate_valid_for(certificate, members):
            return "bad_certificate"
        return None

    def _transition_record_error(
        self, record: "EpochTransition", members: Sequence[str]
    ) -> Optional[str]:
        """Check one transition record against the membership it claims."""
        signers = record.signers
        if len(set(signers)) != len(signers):
            return "bad_transition"
        if not set(signers) <= set(members):
            return "bad_transition"
        if len(signers) < _quorum_of(members):
            return "transition_under_quorum"
        statement = digest_object(
            transition_statement(
                record.new_epoch, record.members, record.prev_members, record.certificate
            )
        )
        registry = self.replica.registry
        if not all(
            registry.verify_digest(signature, statement) for signature in record.signatures
        ):
            return "transition_bad_signature"
        return None

    def _adopt_stable(
        self, certificate: CheckpointCertificate, realign: bool = True
    ) -> None:
        """Install a (locally formed or received-and-verified) certificate."""
        if self.stable is not None and certificate.seq <= self.stable.seq:
            return
        self.previous_stable = self.stable
        self.stable = certificate
        if self.anchor is not None and certificate.seq >= self.anchor.seq:
            # An own-epoch certificate at or past the anchor supersedes it:
            # future transfers serve the fresh certificate chain-free, and
            # the next reconfiguration re-anchors from here.
            self.anchor = None
            self.transitions = []
        metrics = self._metrics()
        metrics.increment("smr.checkpoint.stable")
        self._prune_below(certificate.seq)
        if len(self.replica.decided_log) < certificate.seq:
            # The certificate certifies operations we never decided: we are
            # the lagging replica.  Fetch the prefix from a certifier.
            self._begin_transfer(certificate, realign=realign)

    def _prune_below(self, seq: int) -> None:
        """Drop votes, slots and positions a certified ``seq`` obsoletes."""
        for key in [key for key in self._votes if key[0] <= seq]:
            del self._votes[key]
        self.replica._gc_below_checkpoint(seq, self._positions)
        # Positions below the certified checkpoint have no remaining
        # consumer (their slots are gone); prune them so the map stays
        # O(interval + tail) instead of growing with every operation ever
        # decided.
        for op_id in [
            op_id
            for op_id, position in self._positions.items()
            if position < seq
        ]:
            del self._positions[op_id]

    def _adopt_anchor(
        self,
        certificate: CheckpointCertificate,
        transitions: Sequence["EpochTransition"],
        realign: bool = True,
    ) -> None:
        """Install a chain-verified cross-epoch certificate as the anchor."""
        best = self.best_certificate()
        if best is not None and certificate.seq <= best.seq:
            return
        self.anchor = certificate
        self.transitions = list(transitions)
        self._metrics().increment("smr.checkpoint.anchors_adopted")
        self._prune_below(certificate.seq)
        if len(self.replica.decided_log) < certificate.seq:
            self._begin_transfer(certificate, realign=realign)

    def on_announce(self, message: CheckpointAnnounce, sender: str) -> None:
        """Adopt a newer certificate; reset the announce timer on disagreement.

        A member's announce is *inconsistent* with ours when its certificate
        (epoch, seq) or its view differs from ours, or when it is ahead of
        our log while our tail-deficit clock is already running.  Only
        announces that pass the epoch and membership checks count, and a
        certificate that fails verification does not.
        """
        replica = self.replica
        if message.epoch != replica.epoch:
            return
        if sender not in replica._member_set:
            self._reject("non_member")
            return
        self._announce.hear()
        certificate, best = message.certificate, self.best_certificate()
        if certificate is None:
            inconsistent = best is not None
        elif best is None or certificate.seq > best.seq:
            inconsistent = self._adopt_announced(certificate, message)
        else:
            inconsistent = certificate.seq != best.seq or (
                getattr(certificate, "epoch", None) != best.epoch
            )
        if message.view > self.peer_view_seen:
            self.peer_view_seen = message.view
        stalled = self._note_peer_log_length(message.log_length)
        if inconsistent or stalled or message.view != replica.view:
            self._announce_soon()

    def _adopt_announced(
        self, certificate: CheckpointCertificate, message: CheckpointAnnounce
    ) -> bool:
        """Verify and adopt a certificate ahead of ours; whether it verified."""
        if getattr(certificate, "epoch", None) == self.replica.epoch:
            if not self.valid_certificate(certificate):
                self._reject("bad_certificate")
                return False
            self._adopt_stable(certificate)
            return True
        # A certificate carried across reconfigurations: adopt it (and begin
        # a transfer if it outruns our log) only when its transition chain
        # verifies against our membership.
        error = self._transition_chain_error(
            certificate, getattr(message, "transitions", ())
        )
        if error is not None:
            self._reject(error)
            return False
        self._adopt_anchor(certificate, message.transitions)
        return True

    def _note_peer_log_length(self, peer_length: int) -> bool:
        """Track a co-replica's announced log length for tail catch-up.

        A certified checkpoint only covers multiples of the interval; the
        decided tail beyond it (or a short log before the first checkpoint
        forms) leaves no certificate to transfer.  If our log stays frozen
        below an announced length for a full grace window — i.e. we are
        stalled, not merely slower — a view change re-serves the tail
        through carried prepared slots.  While our log is still moving
        (ordinary in-flight lag) the deficit clock resets, so active groups
        never trigger spurious view changes.

        The grace windows are two and four announce *periods*, not
        intervals: peers that agree with each other may not announce again
        for :data:`ANNOUNCE_MAX_PERIODS` periods, so the clock that starts
        here also checks itself when its window ends
        (:meth:`_arm_tail_deadline`) and a stall is detected as fast as when
        every peer announced every period.

        Returns whether the peer is ahead while the clock was already
        running — an inconsistency for the announce timer.
        """
        replica = self.replica
        own_length = len(replica.decided_log)
        blocking = self._transfer_target is not None and self.transfer_blocking
        if self._tail_seen_length != own_length or blocking:
            # Our log moved (ordinary in-flight lag) or a transfer is
            # already chasing a certified gap: restart the observation.
            self._tail_seen_length = own_length
            self._tail_deficit_since = -1.0
            if blocking:
                return False
        if peer_length <= own_length:
            # A peer that is not ahead says nothing about a stall — in
            # particular it must NOT clear a running deficit clock, or two
            # replicas stalled at the same length would suppress each
            # other's recovery with every announce round.
            return False
        now = replica.sim.now
        if self._tail_deficit_since < 0:
            self._tail_deficit_since = now
            self._tail_peer_length = peer_length
            self._arm_tail_deadline()
            return False
        if now < self._tail_deadline_at():
            return True
        self._last_tail_view_change = now
        self._tail_deficit_since = now
        self._arm_tail_deadline()
        self._metrics().increment("smr.checkpoint.tail_view_changes")
        # Propose past the highest view any co-replica announced: peers
        # already in a later view ignore votes for views at or below their
        # own, so a straggler proposing only ``view + 1`` would never
        # gather a quorum.
        replica._start_view_change(target=self.peer_view_seen + 1)
        return True

    def _tail_deadline_at(self) -> float:
        """When the running deficit clock may next start a view change.

        Two periods after the clock started, and four after the previous
        tail view change.  The sums are the very floats the deadline event
        is scheduled at, so the event never finds itself a rounding error
        early.
        """
        period = ANNOUNCE_PERIOD
        deadline = self._tail_deficit_since + 2.0 * period
        if self._last_tail_view_change >= 0:
            deadline = max(deadline, self._last_tail_view_change + 4.0 * period)
        return deadline

    def _arm_tail_deadline(self) -> None:
        replica = self.replica
        since, epoch = self._tail_deficit_since, replica.epoch

        def deadline() -> None:
            # Re-test the stall against the announced length that started
            # the clock, unless the clock restarted, our log moved or the
            # epoch changed meanwhile.
            if (
                replica.running
                and replica.epoch == epoch
                and self._tail_deficit_since == since
                and self._tail_seen_length == len(replica.decided_log)
            ):
                self._note_peer_log_length(self._tail_peer_length)

        replica.sim.schedule_at(
            self._tail_deadline_at(), deadline, tag=f"{replica.node_id}:ckpt-tail"
        )

    def on_new_view_certificate(self, certificate: CheckpointCertificate) -> None:
        """The new-view message carried a stable checkpoint certificate.

        If it reaches beyond our decided log we must install it before
        executing the view's re-proposals (some covered operations may be
        garbage-collected out of them); the triggered transfer blocks
        execution and skips the post-install realignment view change — this
        view already re-executes under a fresh numbering.
        """
        replica = self.replica
        if certificate.seq <= len(replica.decided_log):
            # Nothing to transfer; still adopt a newer certificate so our
            # own GC and future votes benefit from it.
            if (
                self.stable is None or certificate.seq > self.stable.seq
            ) and self.valid_certificate(certificate):
                self._adopt_stable(certificate)
            return
        if not self.valid_certificate(certificate):
            self._reject("bad_certificate")
            return
        if self.stable is None or certificate.seq > self.stable.seq:
            self._adopt_stable(certificate, realign=False)
        else:
            # We already lag our own stable checkpoint; make sure a
            # transfer is actually in flight.
            self._begin_transfer(self.stable, realign=False)

    # ------------------------------------------------------------ gap handling

    def _begin_transfer(
        self, certificate: CheckpointCertificate, realign: bool = True
    ) -> None:
        if self._transfer_target is not None and (
            certificate.seq <= self._transfer_target.seq
        ):
            return
        self._transfer_target = certificate
        self._realign_after_install = realign
        if self._gap_since < 0:
            self._gap_since = self.replica.sim.now
        self._metrics().increment("smr.checkpoint.gaps_detected")
        self._issue_transfer_request()

    def _transfer_payload(self) -> StateTransferRequest:
        """Build a fresh request (called by the request layer per attempt)."""
        replica = self.replica
        self._metrics().increment("smr.checkpoint.state_requests")
        return StateTransferRequest(
            epoch=replica.epoch, have_count=len(replica.decided_log)
        )

    def _issue_transfer_request(self) -> None:
        """(Re)issue the transfer through the request layer.

        Rotation over the certificate's signers, exponential backoff with
        seeded jitter, and the responder scoreboard all live in
        :class:`~repro.net.requests.RequestManager`; the request retries
        until the gap closes (``satisfied``), the replica stops, or a
        higher certificate supersedes it (we cancel and reissue).
        """
        target = self._transfer_target
        requests = self._requests
        if target is None:
            return
        replica = self.replica
        members = set(replica.members)
        peers = [
            s
            for s in sorted(set(target.signers))
            if s != replica.node_id and s in members
        ]
        if not peers:
            # A cross-epoch target's signers belong to an earlier
            # membership and may all be gone; any current co-member can
            # hold the certified prefix, so rotate over them instead.
            peers = [m for m in sorted(members) if m != replica.node_id]
        if not peers:
            return
        if self._transfer_request_id is not None:
            requests.cancel(self._transfer_request_id)
        self._transfer_request_id = requests.request(
            "ckpt.transfer",
            self._transfer_payload,
            peers,
            on_response=lambda payload, sender: self._handle_state_response(payload),
            satisfied=lambda: not replica.running or not self.transfer_blocking,
            size_bytes=MESSAGE_BYTES,
        )

    def build_state_response(
        self, message: StateTransferRequest, sender: str
    ) -> Optional[StateTransferResponse]:
        """Build the certified-prefix response for a transfer request.

        Returns ``None`` when we have nothing useful to serve (no stable
        checkpoint beyond the requester's log, or we lag it ourselves).
        Shared by the ``ckpt.transfer`` envelope path and by a
        ``slow_drip`` adversary, whose delayed reply is deliberately
        *correct*: the attack is in the timing, not the content.
        """
        replica = self.replica
        if message.epoch != replica.epoch:
            return None
        if sender not in replica.members:
            self._reject("request_non_member")
            return None
        certificate, transitions = self._serving_chain()
        if certificate is None or certificate.seq <= message.have_count:
            return None  # nothing certified beyond the requester's log
        if len(replica.decided_log) < certificate.seq:
            return None  # we are lagging ourselves; cannot serve
        operations = tuple(replica.decided_log[message.have_count : certificate.seq])
        self._metrics().increment("smr.checkpoint.state_responses")
        return StateTransferResponse(
            epoch=replica.epoch,
            certificate=certificate,
            base_count=message.have_count,
            operations=operations,
            transitions=transitions,
        )

    @staticmethod
    def response_bytes(response: StateTransferResponse) -> int:
        return MESSAGE_BYTES + 64 * len(response.operations)

    def respond_transfer(
        self, envelope: RequestEnvelope, response: StateTransferResponse
    ) -> None:
        """Ship ``response`` correlated to ``envelope`` (adversary entry too:
        the responder behaviours craft their own responses and send them
        through the same correlated channel a correct server uses)."""
        size = self.response_bytes(response)
        self._requests.respond(envelope, response, size)

    def _handle_state_response(self, message) -> Optional[str]:
        """Classify (and, when valid, install) a state transfer response.

        Every check is local: the certificate must verify on its own, and
        the transferred operations must extend *our* log to exactly the
        certified digest.  A response that fails any check is dropped and
        counted — the log is never touched.

        Returns the request-layer verdict: ``"ok"`` (installed, or the
        gap closed some other way), ``"garbage"`` (well-formed but
        wrong-content — scoreboard-weighted heavily), ``"stale"``
        (genuinely old or raced our own progress), ``"ignore"`` (says
        nothing about the responder, e.g. an epoch we already left).
        """
        replica = self.replica
        if not isinstance(message, StateTransferResponse):
            self._reject("malformed_response")
            return "garbage"
        if message.epoch != replica.epoch:
            return "ignore"
        certificate = message.certificate
        transitions = message.transitions
        if getattr(certificate, "epoch", None) == replica.epoch:
            if not self.valid_certificate(certificate):
                self._reject("bad_certificate")
                return "garbage"
        else:
            # A certificate minted in an earlier epoch: only a contiguous,
            # per-epoch-quorum-signed transition chain down to its epoch
            # makes it trustworthy here.  Skipped epochs, under-quorum or
            # tampered records, and chains that re-anchor a different
            # certificate are all garbage — the responder chose to serve
            # an unverifiable chain.
            error = self._transition_chain_error(certificate, transitions)
            if error is not None:
                self._reject(error)
                return "garbage"
        log = replica.decided_log
        if certificate.seq <= len(log):
            if self.transfer_blocking:
                # A valid but genuinely old certificate that does not
                # advance the open gap: the `stale_cert` adversary's
                # signature move.  Score it and rotate.
                self._reject("stale_certificate")
                return "stale"
            return "ok"  # already caught up past this checkpoint
        if message.base_count != len(log):
            # The local log moved (or the responder lied about the base);
            # retry from scratch rather than splicing at a wrong offset —
            # the retried request carries our fresh log length.
            self._reject("stale_base")
            return "stale"
        if len(message.operations) != certificate.seq - message.base_count:
            self._reject("length_mismatch")
            return "garbage"
        if any(op.op_id in replica._executed_ops for op in message.operations):
            self._reject("duplicate_operation")
            return "garbage"
        if self._chained_digest_with(message.operations) != certificate.state_digest:
            self._reject("digest_mismatch")
            return "garbage"
        self._install(certificate, message.operations, transitions)
        return "ok"

    def _install(
        self,
        certificate: CheckpointCertificate,
        operations: Tuple["Operation", ...],
        transitions: Tuple["EpochTransition", ...] = (),
    ) -> None:
        replica = self.replica
        metrics = self._metrics()
        for operation in operations:
            replica._executed_ops.add(operation.op_id)
            replica._pending_requests.pop(operation.op_id, None)
            replica._commit(operation)  # appends, notifies decide_fn, hooks us
        metrics.increment("smr.checkpoint.transfers_completed")
        metrics.increment("smr.checkpoint.ops_installed", len(operations))
        target = self._transfer_target
        still_lagging = target is not None and len(replica.decided_log) < target.seq
        realign = self._realign_after_install
        if not still_lagging:
            self._transfer_target = None
            self._realign_after_install = True
            self._gap_closed()
        if certificate.epoch != replica.epoch:
            self._adopt_anchor(certificate, transitions)
        elif self.stable is None or certificate.seq > self.stable.seq:
            self._adopt_stable(certificate)
        if still_lagging:
            # This response served an *older* certificate than the pending
            # transfer target (a genuine one, from a responder that holds
            # nothing newer).  The higher checkpoint's gap is still open, so
            # execution must stay blocked — clearing the target here would
            # let new-view re-proposals leapfrog the missing prefix — and
            # the remaining gap is chased immediately (our base moved, so
            # the outstanding request's response would be stale-based).
            self._issue_transfer_request()
            return
        replica._after_state_install(realign=realign)

    # ------------------------------------------------------------------- timer

    def _announce_tick(self) -> bool:
        """Announce; the timer then doubles its interval (Trickle) up to the cap.

        The interval doubles only if some member's announce arrived since
        the previous tick: a replica cut off from its group hears nothing,
        keeps announcing every period, and is heard within a period of the
        heal -- its stale announce then resets every peer that hears it.  A
        replica alone in its group has nobody to hear and backs off anyway.
        """
        replica = self.replica
        if not replica.running:
            return False
        if len(replica.members) <= 1:
            self._announce.hear()
        else:
            self._metrics().increment("smr.checkpoint.announces")
            self._announce.sent()
            certificate, transitions = self._serving_chain()
            replica._broadcast(
                CheckpointAnnounce(
                    epoch=replica.epoch,
                    certificate=certificate,
                    log_length=len(replica.decided_log),
                    view=replica.view,
                    transitions=transitions,
                )
            )
        return True

    def _announce_soon(self) -> None:
        """Trickle reset: back to the shortest interval, announcing at once.

        Called on an inconsistent announce and when we enter a new epoch.
        A new stable checkpoint or view of our own is not a reason: every
        connected member counted the same checkpoint votes and installed the
        same new view, and one that missed them shows it in its own
        announce.  (Announcing on a new view was measured: the burst lands
        on the recovery traffic the view change starts, and the catch-up of
        the ``byz_transfer_*`` fault-matrix rows got slower.)  However many
        inconsistent announces arrive, the timer announces at most once per
        period (:meth:`~repro.sim.trickle.Trickle.reset`).
        """
        if self.replica.running and self._announce.reset():
            self._metrics().increment("smr.checkpoint.announce_resets")

    # ------------------------------------------------------------------ routing

    def frame_handlers(self) -> Dict[type, Callable[[object, str], None]]:
        """Exact frame type -> handler, merged into the replica's one table."""
        return {
            Checkpoint: self.on_checkpoint,
            EpochTransitionVote: self.on_transition_vote,
            CheckpointAnnounce: self.on_announce,
            RequestEnvelope: self._on_transfer_request_envelope,
            ResponseEnvelope: self._requests.on_envelope,
        }

    def _on_transfer_request_envelope(
        self, envelope: RequestEnvelope, sender: str
    ) -> None:
        """Serve a ``ckpt.transfer`` request envelope."""
        requests = self._requests
        validated = requests.validate_request(envelope, "ckpt.transfer", sender)
        if validated is None:
            return
        message = validated.payload
        if not (
            isinstance(message, StateTransferRequest)
            and _is_count(message.epoch)
            and _is_count(message.have_count)
        ):
            self._metrics().increment("req.rejected_malformed")
            return
        response = self.build_state_response(message, sender)
        if response is None:
            return
        size = self.response_bytes(response)
        requests.respond(validated, response, size)

    # ------------------------------------------------------------------- epoch

    def reset_for_epoch(self) -> None:
        """A reconfiguration installed a new epoch: certificates die with it.

        The decided log (and its positions) persists across epochs — only
        the epoch-scoped certificate/vote/transfer state resets, because
        certificates are signed over the epoch and the membership that
        signed them may be gone.  :meth:`on_epoch_change` (the normal
        reconfiguration entry point) additionally carries the outgoing
        best certificate forward as the new epoch's anchor.
        """
        self.stable = None
        self.previous_stable = None
        self.anchor = None
        self.transitions = []
        self._transition_votes.clear()
        self._transition_signed.clear()
        self._votes.clear()
        self._transfer_target = None
        self._gap_since = -1.0
        # Views restart with the epoch (reset_for_epoch on the replica),
        # so stale peer-view knowledge must not inflate recovery proposals.
        self.peer_view_seen = 0
        # Outstanding requests were signed-for under the old epoch's
        # membership; their responses would be epoch-mismatched anyway.
        self._requests.cancel_all()
        self._transfer_request_id = None
        # An aborted new-view transfer must not leave realign=False behind,
        # or the next epoch's announce-driven install would skip its view
        # change.
        self._realign_after_install = True
        # New members (and any that missed the change) learn the epoch's
        # certificate from the announce.
        self._announce_soon()

    def forget_log(self) -> None:
        """The replica dropped its decided log (re-homed to a new group).

        The incremental chain-digest cache and tail-deficit tracking fold
        over log positions, so they must restart with the emptied log —
        a stale cache would emit digests for operations that are gone.
        """
        self._chain_count = 0
        self._chain_digest = ""
        self._tail_seen_length = -1
        self._tail_deficit_since = -1.0


__all__ = [
    "Checkpoint",
    "CheckpointCertificate",
    "CheckpointAnnounce",
    "EpochTransition",
    "EpochTransitionVote",
    "StateTransferRequest",
    "StateTransferResponse",
    "CheckpointManager",
    "checkpoint_statement",
    "transition_statement",
    "state_digest_of",
]
