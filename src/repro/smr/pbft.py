"""Asynchronous (eventually synchronous) SMR in the style of PBFT.

This is the engine of the paper's *Async* implementation.  The protocol is the
classic three-phase commit of Castro & Liskov: the primary of the current view
assigns sequence numbers with PRE-PREPARE, replicas exchange PREPARE and
COMMIT, and an operation executes once ``2f + 1`` replicas have committed it
locally.  Safety holds under asynchrony; liveness needs eventual synchrony and
is restored through view changes when the primary is unresponsive.

Reconfiguration follows the SMART idea adapted by the paper: membership
changes are ordinary decided operations, and installing one starts a new
configuration epoch with a fresh view/sequence space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.digest import digest_object
from repro.crypto.keys import KeyRegistry
from repro.sim.simulator import Simulator
from repro.smr.base import (
    MESSAGE_BYTES,
    Operation,
    SmrReplica,
    async_fault_threshold,
)
from repro.smr.checkpoint import CheckpointCertificate, CheckpointManager

if TYPE_CHECKING:  # pragma: no cover - core.config imports this package
    from repro.core.config import AtumParameters


# --------------------------------------------------------------------------- messages


@dataclass
class PbftRequest:
    """A client-style request forwarded to the primary.

    ``repropose`` marks an anti-entropy re-proposal of an operation the
    sender knows was decided before: receivers must not drop it on their
    executed-operation dedup, or members that missed the original decision
    could never be re-served through the agreement engine.
    """

    operation: Operation
    epoch: int
    repropose: bool = False


@dataclass
class PbftPrePrepare:
    epoch: int
    view: int
    seq: int
    digest: str
    operation: Operation


@dataclass
class PbftPrepare:
    epoch: int
    view: int
    seq: int
    digest: str
    replica: str


@dataclass
class PbftCommit:
    epoch: int
    view: int
    seq: int
    digest: str
    replica: str


@dataclass
class PbftViewChange:
    epoch: int
    new_view: int
    replica: str
    # (view, seq, digest, operation) tuples this replica prepared.  Carrying
    # the operations (not just digests) lets the new primary re-propose
    # them, which is what preserves decided prefixes across a view change:
    # quorum intersection guarantees every committed operation is prepared
    # at one of the 2f+1 voters.  The view matters because sequence numbers
    # are per-view: the new primary must prefer the highest-view prepared
    # entry for a sequence slot, or a straggler's stale prepared operation
    # could displace one committed later under the same bare seq.
    prepared: Tuple[Tuple[int, int, str, Operation], ...]
    # The voter's stable checkpoint certificate (None until a checkpoint is
    # stable).  Carrying it lets the new view reference operations that were
    # garbage-collected below the checkpoint: laggards state-transfer to the
    # certificate instead of relying on re-proposals that no longer exist.
    checkpoint: Optional[CheckpointCertificate] = None


@dataclass
class PbftNewView:
    epoch: int
    new_view: int
    operations: Tuple[Tuple[int, Operation], ...]  # (seq, operation) to re-propose
    # Highest valid stable-checkpoint certificate among the view-change
    # votes; replicas whose decided log is shorter must install it through
    # state transfer before executing this view's re-proposals.
    checkpoint: Optional[CheckpointCertificate] = None


# --------------------------------------------------------------------------- state


@dataclass(slots=True)
class _SlotState:
    """Per-(view, seq) agreement state."""

    digest: Optional[str] = None
    operation: Optional[Operation] = None
    pre_prepared: bool = False
    prepares: Set[str] = field(default_factory=set)
    commits: Set[str] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False
    executed: bool = False


class PbftReplica(SmrReplica):
    """A PBFT replica embedded inside an Atum node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        members: Sequence[str],
        registry: KeyRegistry,
        send_fn: Callable[[Sequence[str], Any, int], None],
        decide_fn: Callable[[Operation], None],
        params: "AtumParameters",
    ) -> None:
        super().__init__(sim, node_id, members, registry, send_fn, decide_fn, params)
        self.epoch = 0
        self.view = 0
        self.next_seq = 0            # next sequence number assigned by the primary
        self.last_executed = -1      # highest contiguously executed sequence number
        self._slots: Dict[Tuple[int, int], _SlotState] = {}
        self._executed_ops: Set[str] = set()
        self._pending_requests: Dict[str, Operation] = {}
        self._view_change_votes: Dict[int, Dict[str, PbftViewChange]] = {}
        # Highest view this replica voted to change to.  Once it voted, a
        # replica prepares and commits nothing more in its current view: its
        # vote listed what it had prepared, and a commit it joined after
        # voting could complete a decision that no vote of the new view
        # carries -- the new primary would fill that slot with another
        # operation.  The three vote handlers check it inline.
        self._voted_view = 0
        self._view_change_timer_armed = False
        # Checkpointing and state transfer (repro.smr.checkpoint).
        self.checkpoints = CheckpointManager(self)
        # The receive path's one routing table, exact frame type -> handler;
        # the checkpoint manager contributes its frames to it.
        self._handlers: Dict[type, Callable[[Any, str], None]] = {
            PbftRequest: self._on_request,
            PbftPrePrepare: self._on_pre_prepare,
            PbftPrepare: self._on_prepare,
            PbftCommit: self._on_commit,
            PbftViewChange: self._on_view_change,
            PbftNewView: self._on_new_view,
            **self.checkpoints.frame_handlers(),
        }

    def _install_members(
        self, members: Sequence[str], member_set: Optional[frozenset] = None
    ) -> None:
        super()._install_members(members, member_set)
        # Primary rotation order, membership and the quorum sizes, read per message.
        self._ordered: Tuple[str, ...] = tuple(sorted(self.members))
        self._member_set = frozenset(self.members) if member_set is None else member_set
        self._faults = async_fault_threshold(len(self.members))
        self._quorum = 2 * self._faults + 1

    # ------------------------------------------------------------------ queries

    @property
    def fault_threshold(self) -> int:
        return self._faults

    def _primary_of(self, view: int) -> str:
        ordered = self._ordered
        return ordered[view % len(ordered)] if ordered else self.node_id

    @property
    def primary(self) -> str:
        return self._primary_of(self.view)

    def is_primary(self) -> bool:
        return self.primary == self.node_id

    # -------------------------------------------------------------------- API

    def propose(self, operation: Operation) -> None:
        """Submit an operation; it is forwarded to the primary of this view."""
        if not self.running:
            return
        if operation.op_id in self._executed_ops:
            return
        self._pending_requests[operation.op_id] = operation
        self._arm_view_change_timer()
        if self.is_primary():
            self._assign_and_preprepare(operation)
        else:
            # Send the request to every replica (not just the primary): backups
            # record it as pending so their view-change timers can guarantee
            # liveness if the primary is faulty, and a future primary can
            # re-propose it without needing the original proposer.
            request = PbftRequest(operation=operation, epoch=self.epoch)
            self._broadcast(request)

    def repropose(self, operation: Operation) -> None:
        """Re-submit a previously decided operation for a fresh agreement.

        Bypasses the executed-operation dedup of :meth:`propose` on both the
        send and receive side (``PbftRequest.repropose``): re-deciding at a
        new sequence number is how anti-entropy re-serves an operation to
        members that missed the original decision — members that already
        executed it skip the duplicate on its op id at execution time, and
        repeated identical re-proposals collapse onto one current-view slot
        through the duplicate-digest check.  (A member stalled at an
        execution gap in the current view still catches up through the next
        view change, whose votes carry every prepared operation.)
        """
        if not self.running:
            return
        self._pending_requests[operation.op_id] = operation
        self._arm_view_change_timer()
        if self.is_primary():
            self._assign_and_preprepare(operation)
        else:
            self._broadcast(
                PbftRequest(operation=operation, epoch=self.epoch, repropose=True)
            )

    def on_message(self, payload: Any, sender: str) -> None:
        if not self.running:
            return
        handler = self._handlers.get(type(payload))
        if handler is None:
            self.sim.metrics.increment("smr.pbft.unknown_frame")
            return
        handler(payload, sender)

    def reconfigure(
        self,
        new_members: Sequence[str],
        epoch: int,
        carry_certificates: bool = True,
        member_set: Optional[frozenset] = None,
    ) -> None:
        """Install a new configuration epoch with a fresh agreement state.

        ``epoch`` is the group-synchronized epoch to adopt (the vgroup
        view's own counter).  Transition statements embed the epoch, so
        divergent epochs would make co-members reject each other's votes
        and no transition record would ever form.
        """
        previous_members = self._ordered
        super().reconfigure(new_members, epoch, member_set=member_set)
        self.epoch = epoch
        self.view = 0
        self._voted_view = 0
        self.next_seq = 0
        self.last_executed = -1
        self._slots.clear()
        self._view_change_votes.clear()
        if carry_certificates:
            # Epoch-scoped state resets, but the outgoing epoch's best
            # certificate is carried forward and re-anchored into this
            # epoch by a 2f+1-of-new-members transition record.
            self.checkpoints.on_epoch_change(previous_members)
            self._carry_decided_tail()
        else:
            # Re-homed into a different group: the certificates AND the
            # decided log describe agreements this group never ran.  The
            # log's chained digest diverges from the new group's lineage
            # at position zero, so keeping it would make every certified
            # transfer here fail digest verification forever — the
            # replica starts over as a fresh member and catches up
            # through ordinary state transfer.  Nothing is delivered
            # twice: re-executed operations dedup upstream on their
            # broadcast id.
            self.decided_log.clear()
            self._executed_ops.clear()
            self.checkpoints.reset_for_epoch()
            self.checkpoints.forget_log()
        # Pending requests survive the epoch change and are re-proposed.
        pending = list(self._pending_requests.values())
        self._pending_requests.clear()
        for operation in pending:
            if operation.op_id not in self._executed_ops:
                self.propose(operation)

    def _carry_decided_tail(self) -> None:
        """Keep the decided tail past the carried certificate re-servable.

        Clearing the slots on reconfiguration also clears the prepared
        entries a view change carries.  State transfer stops at the
        certificate, so an operation decided after the last checkpoint and
        before the reconfiguration was lost to a replica that missed it (cut
        off across the epoch change): it could install the certified prefix
        but never that tail.  Each decided operation past the certificate
        therefore stays an executed, prepared slot of view ``-1`` at its log
        position.  A view change carries it ahead of every slot of the new
        epoch, in log order, and replicas that already executed it skip it
        on its op id.
        """
        log = self.decided_log
        for position in range(self.checkpoints.stable_seq, len(log)):
            operation = log[position]
            self._slots[(-1, position)] = _SlotState(
                digest=digest_object(operation),
                operation=operation,
                pre_prepared=True,
                prepared=True,
                committed=True,
                executed=True,
            )

    # ---------------------------------------------------------------- protocol

    def _on_request(self, request: PbftRequest, sender: str) -> None:
        if request.epoch != self.epoch:
            return
        operation = request.operation
        if operation.op_id in self._executed_ops and not request.repropose:
            return
        self._pending_requests.setdefault(operation.op_id, operation)
        self._arm_view_change_timer()
        if self.is_primary():
            self._assign_and_preprepare(operation)

    def _assign_and_preprepare(self, operation: Operation) -> None:
        if self._voted_view > self.view:
            return  # stays pending: the new view re-proposes it
        digest = digest_object(operation)
        # Duplicate suppression must only consider *current-view* slots:
        # prepared slots of earlier views are retained for view-change votes
        # (see _on_new_view), and matching against them would make the new
        # primary silently skip re-proposing exactly the operations the
        # view change carried over.
        for (view, _seq), slot in self._slots.items():
            if view == self.view and slot.digest == digest:
                return  # already assigned a sequence number in this view
        seq = self.next_seq
        self.next_seq += 1
        pre_prepare = PbftPrePrepare(
            epoch=self.epoch, view=self.view, seq=seq, digest=digest, operation=operation
        )
        self.sim.metrics.increment("smr.pbft.pre_prepares")
        self._broadcast(pre_prepare)
        self._on_pre_prepare(pre_prepare, self.node_id)

    def _slot(self, view: int, seq: int) -> _SlotState:
        key = (view, seq)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _SlotState()
        return slot

    def _on_pre_prepare(self, message: PbftPrePrepare, sender: str) -> None:
        view = self.view
        if message.epoch != self.epoch or message.view != view or self._voted_view > view:
            return
        if sender != self._primary_of(message.view) and sender != self.node_id:
            return
        if digest_object(message.operation) != message.digest:
            return
        slot = self._slot(message.view, message.seq)
        if slot.pre_prepared and slot.digest != message.digest:
            # Equivocating primary; trigger a view change.
            self._start_view_change()
            return
        slot.pre_prepared = True
        slot.digest = message.digest
        slot.operation = message.operation
        self._pending_requests.setdefault(message.operation.op_id, message.operation)
        self._arm_view_change_timer()
        prepare = PbftPrepare(
            epoch=self.epoch,
            view=message.view,
            seq=message.seq,
            digest=message.digest,
            replica=self.node_id,
        )
        self._broadcast(prepare)
        self._record_prepare(slot, self.node_id, message.view, message.seq, message.digest)

    def _on_prepare(self, message: PbftPrepare, sender: str) -> None:
        view = self.view
        if message.epoch != self.epoch or message.view != view or self._voted_view > view:
            return
        if sender not in self._member_set:
            # Only the current configuration votes: the envelope's group id
            # says which group a frame is *for*, not that its sender is in it.
            self.sim.metrics.increment("smr.pbft.rejected_nonmember_vote")
            return
        if message.replica != sender:
            # A vote counts under the identity the transport authenticated,
            # never the one the frame claims, or one Byzantine replica fills
            # a quorum alone with frames "from" its co-replicas.  (Own votes
            # are recorded directly, or self-delivered with our own id.)
            self.sim.metrics.increment("smr.pbft.rejected_relayed_vote")
            return
        slot = self._slot(message.view, message.seq)
        if slot.digest is not None and slot.digest != message.digest:
            return
        self._record_prepare(slot, message.replica, message.view, message.seq, message.digest)

    def _record_prepare(
        self, slot: _SlotState, replica: str, view: int, seq: int, digest: str
    ) -> None:
        slot.prepares.add(replica)
        if slot.prepared or not slot.pre_prepared:
            return
        # prepared == pre-prepare plus 2f matching prepares from distinct replicas
        if len(slot.prepares) >= self._quorum:
            slot.prepared = True
            commit = PbftCommit(
                epoch=self.epoch, view=view, seq=seq, digest=digest, replica=self.node_id
            )
            self._broadcast(commit)
            self._record_commit(slot, self.node_id)

    def _on_commit(self, message: PbftCommit, sender: str) -> None:
        view = self.view
        if message.epoch != self.epoch or message.view != view or self._voted_view > view:
            return
        if sender not in self._member_set:
            self.sim.metrics.increment("smr.pbft.rejected_nonmember_vote")
            return
        if message.replica != sender:
            self.sim.metrics.increment("smr.pbft.rejected_relayed_vote")
            return
        slot = self._slot(message.view, message.seq)
        if slot.digest is not None and slot.digest != message.digest:
            return
        self._record_commit(slot, message.replica)

    def _record_commit(self, slot: _SlotState, replica: str) -> None:
        slot.commits.add(replica)
        if slot.committed or not slot.prepared:
            return
        if len(slot.commits) >= self._quorum:
            slot.committed = True
            self._execute_ready()

    def _execute_ready(self) -> None:
        """Execute committed slots in sequence order, without gaps."""
        if self.checkpoints.transfer_blocking:
            # A certified checkpoint ahead of our decided log is known but
            # not installed yet.  Executing newer slots first (a new view's
            # re-proposals, say) would append operations past the missing
            # prefix and diverge; execution resumes when the state transfer
            # installs (see CheckpointManager / _after_state_install).
            return
        progressed = True
        while progressed:
            progressed = False
            seq = self.last_executed + 1
            slot = self._slots.get((self.view, seq))
            if slot is None or not slot.committed or slot.executed:
                break
            slot.executed = True
            self.last_executed = seq
            progressed = True
            operation = slot.operation
            if operation is not None:
                # Clear pending state even for duplicate executions (re-
                # proposed operations), or the view-change timer would keep
                # firing for an entry that can never execute "again".
                self._pending_requests.pop(operation.op_id, None)
                if operation.op_id not in self._executed_ops:
                    self._executed_ops.add(operation.op_id)
                    self._commit(operation)
        if not self._pending_requests:
            self._view_change_timer_armed = False

    def _commit(self, operation: Operation) -> None:
        super()._commit(operation)
        self.checkpoints.on_committed(operation)

    # ------------------------------------------------------ checkpointing hooks

    def _gc_below_checkpoint(self, stable_seq: int, positions: Dict[str, int]) -> None:
        """Garbage-collect executed slots covered by a stable checkpoint.

        Executed implies prepared, so dropped slots stop feeding future
        view-change votes — that is safe precisely *because* the checkpoint
        is certified: a replica that needs the dropped operations recovers
        them through state transfer (the certificate travels with every
        view-change vote), not through re-proposals.  Slots whose operation
        position is unknown are conservatively retained.
        """
        dead = [
            key
            for key, slot in self._slots.items()
            if slot.executed
            and slot.operation is not None
            and positions.get(slot.operation.op_id, stable_seq) < stable_seq
        ]
        for key in dead:
            del self._slots[key]
        if dead:
            self.sim.metrics.increment("smr.checkpoint.slots_gc", len(dead))

    def _after_state_install(self, realign: bool) -> None:
        """Resume after a state transfer installed the certified prefix.

        First drain whatever the transfer unblocked (new-view re-proposals
        commit while execution pauses).  When the transfer was triggered
        outside a view change (checkpoint votes or an announce), additionally
        start one: the current view's slot numbering predates the gap, so
        committed-but-stuck slots — and any decided tail beyond the last
        checkpoint — are only reachable through the view change's carried
        re-proposals, which every vote still retains for unGC'd slots.
        """
        self._execute_ready()
        if realign and self.running and len(self.members) > 1:
            self._start_view_change(target=self.checkpoints.peer_view_seen + 1)

    # -------------------------------------------------------------- view change

    def _arm_view_change_timer(self) -> None:
        if self._view_change_timer_armed or not self.running:
            return
        self._view_change_timer_armed = True
        timeout = self.params.request_timeout
        armed_for_view = self.view
        armed_epoch = self.epoch

        def check() -> None:
            self._view_change_timer_armed = False
            if not self.running or self.epoch != armed_epoch:
                return
            if not self._pending_requests:
                return
            if self.view == armed_for_view:
                self._start_view_change()
            # Keep the timer running until the pending requests execute, so
            # repeated faulty primaries trigger successive view changes.
            self._arm_view_change_timer()

        self.sim.schedule(timeout, check, tag=f"{self.node_id}:pbft-vc")

    def _prepared_slots(self) -> Tuple[Tuple[int, int, str, "Operation"], ...]:
        """(view, seq, digest, operation) of every retained prepared slot.

        Includes prepared slots from *earlier* views of this epoch (they are
        deliberately retained across view changes): an operation committed
        in view v must keep appearing in view-change votes for v+2, v+3, …
        or a chain of view changes would forget it and break the decided
        prefix.
        """
        return tuple(
            (view, seq, slot.digest or "", slot.operation)
            for (view, seq), slot in sorted(self._slots.items())
            if slot.prepared and slot.operation is not None
        )

    def _start_view_change(self, target: Optional[int] = None) -> None:
        """Vote for a view change to ``max(view + 1, target)``.

        ``target`` lets recovery paths (checkpoint tail catch-up, post-
        transfer realign) propose past views they only know from peer
        announces: co-replicas ignore view-change votes at or below their
        own view, so a straggler several views behind must aim above the
        highest view it has seen announced or its vote gathers no quorum.
        """
        new_view = max(self.view + 1, target if target is not None else 0)
        message = PbftViewChange(
            epoch=self.epoch,
            new_view=new_view,
            replica=self.node_id,
            prepared=self._prepared_slots(),
            checkpoint=self.checkpoints.stable,
        )
        self.sim.metrics.increment("smr.pbft.view_changes")
        self._broadcast(message)
        self._on_view_change(message, self.node_id)

    def _on_view_change(self, message: PbftViewChange, sender: str) -> None:
        if message.epoch != self.epoch or message.new_view <= self.view:
            return
        if sender not in self._member_set:
            self.sim.metrics.increment("smr.pbft.rejected_nonmember_vote")
            return
        if message.replica != sender:
            self.sim.metrics.increment("smr.pbft.rejected_relayed_vote")
            return
        votes = self._view_change_votes.setdefault(message.new_view, {})
        fresh_voter = message.replica not in votes
        votes[message.replica] = message
        # Join the view change when another replica started it; this avoids
        # waiting for our own timeout and gets the new primary its quorum.
        if self.node_id not in votes:
            own = PbftViewChange(
                epoch=self.epoch,
                new_view=message.new_view,
                replica=self.node_id,
                prepared=self._prepared_slots(),
                checkpoint=self.checkpoints.stable,
            )
            votes[self.node_id] = own
            self._broadcast(own)
        elif fresh_voter and message.replica != self.node_id:
            # We already voted for this view, but that broadcast may predate
            # a partition the fresh voter sat behind — notably a healed
            # straggler that is itself the view's new primary, which then
            # waits forever on votes it never received.  Re-send our vote
            # straight to the newcomer, rebuilt with the *current* prepared
            # slots: operations committed since the original vote must ride
            # along or the new view would forget them.  Only a first-time
            # voter triggers the resend, so two replicas exchanging stored
            # votes cannot ping-pong.
            own = PbftViewChange(
                epoch=self.epoch,
                new_view=message.new_view,
                replica=self.node_id,
                prepared=self._prepared_slots(),
                checkpoint=self.checkpoints.stable,
            )
            votes[self.node_id] = own
            self.sim.metrics.increment("smr.pbft.view_change_revotes")
            self._send(message.replica, own, MESSAGE_BYTES)
        if message.new_view > self._voted_view:  # we have voted for it by now
            self._voted_view = message.new_view
        if self._primary_of(message.new_view) != self.node_id:
            return
        if len(votes) >= self._quorum:
            self._emit_new_view(message.new_view)

    def _emit_new_view(self, new_view: int) -> None:
        # Carry over every operation some view-change voter prepared in the
        # old view, in original sequence order, *before* queued requests:
        # quorum intersection puts every committed operation among the 2f+1
        # votes, so replicas that missed its commit (partitioned, lagging)
        # re-execute it at the same relative position — decided prefixes
        # survive the view change.  Replicas that already executed an op
        # skip the duplicate on its op id.
        votes = self._view_change_votes.get(new_view, {})
        # Sequence numbers are per-view, so carried slots are keyed by the
        # full (view, seq) pair — a straggler's stale view-(v-1) prepared
        # operation never displaces one committed under the same bare seq
        # in view v.  Lexicographic (view, seq) order IS the execution
        # order within an epoch (each new view re-executes carried ops
        # before new ones), and deduping by op id on first appearance
        # keeps every operation at its original rank, so the carry is
        # prefix-preserving across *chains* of view changes.  Conflicting
        # claims for one slot resolve deterministically by replica order.
        carried: Dict[Tuple[int, int], Operation] = {}
        best_certificate: Optional[CheckpointCertificate] = None
        for replica in sorted(votes):
            for old_view, old_seq, _digest, operation in votes[replica].prepared:
                if operation is not None and (old_view, old_seq) not in carried:
                    carried[(old_view, old_seq)] = operation
            vote_certificate = votes[replica].checkpoint
            if (
                vote_certificate is not None
                and (best_certificate is None or vote_certificate.seq > best_certificate.seq)
                and self.checkpoints.valid_certificate(vote_certificate)
            ):
                best_certificate = vote_certificate
        operations: List[Tuple[int, Operation]] = []
        seq = 0
        seen: Set[str] = set()
        for slot_key in sorted(carried):
            operation = carried[slot_key]
            if operation.op_id in seen:
                continue
            seen.add(operation.op_id)
            operations.append((seq, operation))
            seq += 1
        # Then everything still pending (prepared-but-uncarried and queued).
        for operation in self._pending_requests.values():
            if operation.op_id in self._executed_ops or operation.op_id in seen:
                continue
            seen.add(operation.op_id)
            operations.append((seq, operation))
            seq += 1
        new_view_message = PbftNewView(
            epoch=self.epoch,
            new_view=new_view,
            operations=tuple(operations),
            checkpoint=best_certificate,
        )
        self._broadcast(new_view_message)
        self._on_new_view(new_view_message, self.node_id)

    def _on_new_view(self, message: PbftNewView, sender: str) -> None:
        if message.epoch != self.epoch or message.new_view <= self.view:
            return
        if sender not in (self._primary_of(message.new_view), self.node_id):
            return
        self.view = message.new_view
        self.next_seq = 0
        self.last_executed = -1
        # Keep prepared slots of earlier views: they feed future view-change
        # votes (see _prepared_slots), which is what lets committed
        # operations survive a chain of view changes.  Unprepared old slots
        # are dead state and are dropped.
        self._slots = {
            key: slot
            for key, slot in self._slots.items()
            if key[0] >= self.view or slot.prepared
        }
        self.sim.metrics.increment("smr.pbft.new_views")
        if message.checkpoint is not None:
            # A certified checkpoint ahead of our log means operations were
            # garbage-collected out of the carried re-proposals; install it
            # through state transfer before executing anything in this view
            # (execution blocks until the transfer completes).
            self.checkpoints.on_new_view_certificate(message.checkpoint)
        if self.is_primary():
            for _, operation in message.operations:
                self._assign_and_preprepare(operation)
        if self._pending_requests:
            self._arm_view_change_timer()


__all__ = [
    "PbftReplica",
    "PbftRequest",
    "PbftPrePrepare",
    "PbftPrepare",
    "PbftCommit",
    "PbftViewChange",
    "PbftNewView",
]
