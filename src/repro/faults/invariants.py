"""Runtime invariant checking for Atum's robustness claims.

The paper's safety guarantees (section 3.1) reduce to a handful of
observable invariants.  :class:`InvariantMonitor` attaches to an
:class:`~repro.core.cluster.AtumCluster` and checks them *while a scenario
runs* rather than after the fact:

* **No forged group message accepted** — every group message accepted by a
  correct node was contributed by real (ever-)members of the claimed source
  vgroup, reached the majority of that vgroup's actual size, and includes at
  least one correct sender (a Byzantine minority alone can never push a
  message past the majority rule).
* **Agreement** — all correct nodes that deliver a broadcast deliver the
  *same payload* (equivocation never wins); for bare SMR groups,
  :func:`check_agreement_logs` asserts the PBFT / Dolev-Strong harness
  outputs are prefix-consistent.
* **No wrongful eviction / no re-admission** — a correct, responsive node is
  never evicted, and an evicted identity is never re-accepted into any
  vgroup.
* **Group-size bounds** — every installed view respects the logarithmic
  grouping bounds (``gmin``/``gmax`` with the documented merge transient),
  and view epochs never move backwards.
* **Directory convergence** — after a split-brain heal, the merge decision
  the cluster enforced equals the one recomputed from the recorded per-side
  directories, and no address evicted on either side remains a member
  (see :mod:`repro.overlay.directory`).

Checks are pure observation: they draw no randomness, schedule no events and
never mutate protocol state, so an attached monitor cannot change a run's
event trace.  Violations accumulate in :attr:`InvariantMonitor.violations`;
:meth:`assert_clean` raises with a readable report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.core.middleware import Middleware, MiddlewareContext
from repro.crypto.digest import digest_object
from repro.group.vgroup import VGroupView, majority_threshold


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant violation."""

    kind: str
    subject: str
    time: float
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[t={self.time:.3f}] {self.kind}({self.subject}): {self.detail}"


#: Violations recorded per run; later ones are dropped.
MAX_VIOLATIONS = 200


class InvariantMonitor(Middleware):
    """Observes a cluster and records violations of the paper's invariants.

    A pure-observation :class:`~repro.core.middleware.Middleware`:
    ``attach_monitor`` adds it to the cluster's middleware chain, whose
    pipelines feed it view changes, evictions, departures and both delivery
    channels (broadcast deliveries and accepted group messages).

    Usage::

        monitor = InvariantMonitor()
        cluster.attach_monitor(monitor)
        ...run a (faulty) scenario...
        monitor.finalize()
        monitor.assert_clean()

    ``tolerate_check_errors`` keeps the run going when a checker itself
    errors (``engine.validate()`` raising at :meth:`finalize`).  Fault-
    scenario replay sets it so a broken engine surfaces as a ``structure``
    violation in the matrix row; everywhere else the error is counted
    (``invariants.check_errors``) and re-raised: a crashed checker outside
    replay is a bug, not an observation.
    """

    def __init__(self, tolerate_check_errors: bool = False) -> None:
        self.tolerate_check_errors = tolerate_check_errors
        self.violations: List[InvariantViolation] = []
        self.checks_run = 0
        self._cluster = None
        self._exempt: Set[str] = set()
        # Evictions are asynchronous: the decision is observed immediately
        # (``_pending_evictions``), but the identity only becomes banned for
        # re-admission once the eviction's leave actually removes the node
        # (``_evicted``) — until then it legitimately appears in views.
        self._pending_evictions: Set[str] = set()
        self._evicted: Set[str] = set()
        self._eviction_decisions = 0
        self._group_epochs: Dict[str, int] = {}
        self._ever_members: Dict[str, Set[str]] = {}
        # First payload each broadcast was delivered with, and its digest.
        # In-simulation deliveries share the payload object, so agreement is
        # an identity check; only a different object is hashed and compared.
        self._delivered_payloads: Dict[str, Tuple[Any, str]] = {}

    # ----------------------------------------------------------------- wiring

    def setup(self, cluster) -> None:
        """Middleware hook: the hosting chain was installed on ``cluster``."""
        self.bind(cluster)

    def bind(self, cluster) -> None:
        """Snapshot ``cluster``'s membership history as the audit baseline.

        No per-node wiring happens here: deliveries and accepted group
        messages arrive through the chain's ``on_deliver`` pipeline, which
        the cluster distributes to every node (present and future).
        """
        self._cluster = cluster
        for view in cluster.engine.groups.values():
            self._group_epochs[view.group_id] = view.epoch
            self._ever_members.setdefault(view.group_id, set()).update(view.members)

    def exempt(self, addresses) -> None:
        """Exclude ``addresses`` from the wrongful-eviction check.

        Fault plans exempt every address they partition or crash: such nodes
        legitimately miss heartbeats, and evicting them is the *correct*
        reaction, exactly as the paper treats unresponsive nodes as failed.
        """
        self._exempt.update(addresses)

    # --------------------------------------------------------- middleware hooks

    def on_deliver(self, ctx: MiddlewareContext) -> None:
        if ctx.channel == "group":
            self._audit_accept(ctx.address, ctx.payload, ctx.senders)
        else:
            self._record_delivery(ctx.node, ctx.payload)

    def on_view_change(self, ctx: MiddlewareContext) -> None:
        self.on_view_changed(ctx.view)

    def on_eviction(self, ctx: MiddlewareContext) -> None:
        self.record_eviction(ctx.address)

    def on_node_left(self, ctx: MiddlewareContext) -> None:
        self.record_node_left(ctx.address)

    # ------------------------------------------------------------ engine hooks

    def on_view_changed(self, view: VGroupView) -> None:
        """Check one installed vgroup view (called on every reconfiguration)."""
        self.checks_run += 1
        engine = self._cluster.engine
        gmin, gmax = engine.params.gmin, engine.params.gmax
        group_id = view.group_id

        if view.size < 1:
            self._violation("group_size", group_id, "installed an empty view")
        elif view.size > gmax + gmin:
            # A merge installs up to gmax + gmin - 1 members before the
            # follow-up split: gmin is the transient slack above gmax.
            self._violation(
                "group_size",
                group_id,
                f"size {view.size} exceeds gmax={gmax} beyond the merge transient (+{gmin})",
            )

        previous_epoch = self._group_epochs.get(group_id)
        if previous_epoch is not None and view.epoch < previous_epoch:
            self._violation(
                "epoch_regression",
                group_id,
                f"epoch moved backwards: {previous_epoch} -> {view.epoch}",
            )
        self._group_epochs[group_id] = view.epoch

        if self._evicted:
            readmitted = self._evicted.intersection(view.members)
            for address in sorted(readmitted):
                self._violation(
                    "evicted_readmitted",
                    address,
                    f"evicted identity re-accepted into {group_id}",
                )
        self._ever_members.setdefault(group_id, set()).update(view.members)

    def record_node_left(self, address: str) -> None:
        """A node actually left the system; pending evictions become final."""
        if address in self._pending_evictions:
            self._pending_evictions.discard(address)
            self._evicted.add(address)

    def record_eviction(self, address: str) -> None:
        """Record an eviction decided by the cluster's majority-suspicion rule."""
        self._eviction_decisions += 1
        self._pending_evictions.add(address)
        if address in self._exempt:
            return
        cluster = self._cluster
        node = cluster.nodes.get(address)
        if node is None or not node.is_correct:
            return
        if cluster.network.is_partitioned(address):
            return
        self._violation(
            "correct_evicted",
            address,
            "a correct, responsive node was evicted (Byzantine eviction attack succeeded)",
        )

    # ------------------------------------------------------------- node hooks

    def _audit_accept(self, address: str, envelope, senders: Set[str]) -> None:
        """Audit one accepted group message at a correct node."""
        node = self._cluster.nodes.get(address)
        if node is None or not node.is_correct:
            return
        self.checks_run += 1
        source_group = envelope.source_group
        known = self._ever_members.get(source_group)
        if known is None:
            # Solo views (non-member senders) and groups the monitor never saw
            # are outside the membership history; nothing to audit against.
            return
        if not senders <= known:
            self._violation(
                "forged_sender",
                node.address,
                f"group message {envelope.gm_id} accepted with non-member senders "
                f"{sorted(senders - known)} of group {source_group}",
            )
        # The claimed sender-group size must be plausible: shares from an
        # honest sender carry the group's size at send time, which is
        # never below the smallest size the group ever had (the engine's
        # book; the *current* size would false-positive when a merge grows
        # the group while honestly-sized shares are still in flight).  A
        # forger claiming a smaller size (to shrink the acceptance
        # majority) yields a sender count below the historical-minimum
        # majority.
        min_size = self._cluster.engine.smallest_size.get(source_group)
        if min_size is not None and len(senders) < majority_threshold(min_size):
            self._violation(
                "forged_majority",
                node.address,
                f"group message {envelope.gm_id} accepted with {len(senders)} senders, "
                f"below the majority of {source_group}'s smallest-ever size {min_size} "
                f"(claimed {envelope.sender_group_size})",
            )
        nodes = self._cluster.nodes
        for sender in senders:
            peer = nodes.get(sender)
            # Engine-granularity nodes (growth workloads join addresses that
            # have no actor object) are correct by construction.
            if peer is None or peer.is_correct:
                break
        else:
            self._violation(
                "forged_all_byzantine",
                node.address,
                f"group message {envelope.gm_id} accepted from exclusively Byzantine "
                f"senders {sorted(senders)}",
            )

    def _record_delivery(self, node, message) -> None:
        """Check broadcast-payload agreement across correct nodes."""
        if not node.is_correct:
            return
        payload = message.payload
        first = self._delivered_payloads.get(message.bcast_id)
        if first is None:
            self._delivered_payloads[message.bcast_id] = (payload, digest_object(payload))
            return
        first_payload, previous = first
        if payload is first_payload:
            return
        digest = digest_object(payload)
        if previous != digest:
            self._violation(
                "broadcast_mismatch",
                node.address,
                f"broadcast {message.bcast_id} delivered with payload digest {digest[:12]} "
                f"but another correct node delivered {previous[:12]} (equivocation won)",
            )

    # ------------------------------------------------------------- SMR checks

    def check_smr_prefix_consistency(
        self, cluster=None, require_equality: bool = False
    ) -> None:
        """Assert per-vgroup SMR decided logs are prefix-consistent.

        Sound for the asynchronous (PBFT) engine under static membership:
        PBFT executes in gap-free sequence order, so a replica that missed
        decisions (partitioned, on the losing side of a split) *lags* but
        never diverges, and view changes carry prepared operations so
        decided prefixes survive a heal.  The synchronous engine decides
        instances independently at round boundaries and offers no such
        total-order guarantee under message loss — do not run this check
        against Sync scenarios with drops.

        With ``require_equality`` the check demands eventual per-vgroup log
        **equality**: a quiesced scenario must leave every correct member of
        a vgroup with the *same* decided log, not merely a consistent
        prefix.  PBFT's checkpointing and state transfer
        (:mod:`repro.smr.checkpoint`) make that achievable: they let an
        isolated then healed replica close its log gap even with no pending
        requests in the system.
        """
        cluster = cluster if cluster is not None else self._cluster
        for group_id, logs in sorted(cluster_smr_logs(cluster).items()):
            self.checks_run += 1
            for mismatch in check_agreement_logs(
                logs, require_equality=require_equality
            ):
                self._violation("smr_divergence", group_id, mismatch)

    # ---------------------------------------------------------------- results

    def finalize(self) -> List[InvariantViolation]:
        """End-of-run checks: structural validity and settled size bounds."""
        engine = self._cluster.engine
        try:
            engine.validate()
        except Exception as exc:
            # Counted, never silently swallowed (atumlint ATL004): the
            # error is always visible in the metrics and the violation
            # list, and propagates unless fault replay opted into
            # tolerating it.
            self._violation("structure", "engine", str(exc))
            self._cluster.sim.metrics.increment("invariants.check_errors")
            if not self.tolerate_check_errors:
                raise
        for address in sorted(self._evicted):
            if address in engine.node_group:
                self._violation(
                    "evicted_readmitted", address, "evicted identity is a member at finalize"
                )
        self._check_directory_reconciliations(engine)
        gmin, gmax = engine.params.gmin, engine.params.gmax
        for group_id, view in engine.groups.items():
            if view.size > gmax:
                self._violation(
                    "final_group_size", group_id, f"settled at size {view.size} > gmax={gmax}"
                )
            elif view.size < gmin and len(engine.groups) > 1:
                self._violation(
                    "final_group_size", group_id, f"settled at size {view.size} < gmin={gmin}"
                )
        return self.violations

    def _check_directory_reconciliations(self, engine) -> None:
        """Replay split-brain merges recorded by the cluster.

        Two invariants per reconciliation (see
        :mod:`repro.overlay.directory`):

        * **directory_divergence** — the merge decision the cluster enforced
          must equal the one recomputed from the recorded per-side
          directories (the merge is a pure function of the side sets, so a
          mismatch means a side's sets and the enforced outcome disagree).
        * **evicted_readmitted_across_sides** — an address evicted on either
          side must not be a member after the heal; a cross-side deferral
          that never gets enforced at merge would surface here.
        """
        reconciliations = getattr(self._cluster, "_directory_reconciliations", None)
        if not reconciliations:
            return
        from repro.overlay.directory import SideDirectory, merge_directories

        for record in reconciliations:
            self.checks_run += 1
            sides = [
                SideDirectory(
                    side_index=snapshot["side_index"],
                    members=frozenset(snapshot["members"]),
                    joined=set(snapshot["joined"]),
                    evicted=set(snapshot["evicted"]),
                )
                for snapshot in record["sides"]
            ]
            recomputed = merge_directories(sides)
            decision = record["decision"]
            if (
                recomputed.evicted != decision.evicted
                or recomputed.admitted != decision.admitted
                or recomputed.revoked != decision.revoked
            ):
                self._violation(
                    "directory_divergence",
                    "merge",
                    f"enforced merge decision {decision} differs from the decision "
                    f"recomputed over the recorded side directories {recomputed}",
                )
            for address in sorted(decision.evicted):
                if address in engine.node_group:
                    self._violation(
                        "evicted_readmitted_across_sides",
                        address,
                        "evicted on one split side but still a member after the heal",
                    )

    def assert_clean(self) -> None:
        """Raise ``AssertionError`` with a readable report unless violation-free."""
        if self.violations:
            report = "\n".join(str(violation) for violation in self.violations[:20])
            raise AssertionError(
                f"{len(self.violations)} invariant violation(s) detected:\n{report}"
            )

    def summary(self) -> Dict[str, Any]:
        """Compact outcome for scenario rows and shard snapshots."""
        by_kind: Dict[str, int] = {}
        for violation in self.violations:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
        return {
            "violations": len(self.violations),
            "checks_run": self.checks_run,
            "by_kind": by_kind,
            "evictions_observed": self._eviction_decisions,
        }

    # ----------------------------------------------------------------- helpers

    def _violation(self, kind: str, subject: str, detail: str) -> None:
        if len(self.violations) >= MAX_VIOLATIONS:
            return
        now = self._cluster.sim.now if self._cluster is not None else 0.0
        self.violations.append(
            InvariantViolation(kind=kind, subject=subject, time=now, detail=detail)
        )


def cluster_smr_logs(cluster) -> Dict[str, List[List[str]]]:
    """Per-vgroup decided-operation logs of correct member nodes.

    Groups each correct member node's ``replica.decided_log`` (as op-id
    sequences) under its current vgroup, for prefix-consistency checking
    with :func:`check_agreement_logs`.  Meaningful for static-membership
    scenarios: a node that switched vgroups mid-run carries its old log
    into the new group.
    """
    logs: Dict[str, List[List[str]]] = {}
    for node in cluster.nodes.values():
        if not node.is_correct or not node.is_member or node.replica is None:
            continue
        group_id = node.group_id()
        if group_id is None:
            continue
        logs.setdefault(group_id, []).append(
            [operation.op_id for operation in node.replica.decided_log]
        )
    return logs


def check_agreement_logs(
    logs: Sequence[Sequence[str]], require_equality: bool = False
) -> List[str]:
    """Prefix-consistency (optionally equality) of per-replica decided logs.

    The harness-level agreement invariant: any two correct replicas of one
    SMR group must have decided the same operations in the same order up to
    the length of the shorter log (a lagging replica is fine, a *diverging*
    one is a safety violation).  Returns human-readable mismatch
    descriptions (empty = consistent).

    ``require_equality`` upgrades the check from safety to liveness: any
    length difference is a violation too.  Use it only for quiesced runs of
    scenarios whose recovery machinery (PBFT checkpointing + state
    transfer) promises to close log gaps, never for mid-run snapshots where
    lag is legitimate in-flight state.
    """
    mismatches: List[str] = []
    for left_index in range(len(logs)):
        for right_index in range(left_index + 1, len(logs)):
            left, right = logs[left_index], logs[right_index]
            diverged = False
            for position in range(min(len(left), len(right))):
                if left[position] != right[position]:
                    mismatches.append(
                        f"replicas {left_index} and {right_index} diverge at decision "
                        f"{position}: {left[position]!r} != {right[position]!r}"
                    )
                    diverged = True
                    break
            if require_equality and not diverged and len(left) != len(right):
                mismatches.append(
                    f"replicas {left_index} and {right_index} settled at different "
                    f"log lengths with equality required: {len(left)} != {len(right)}"
                )
    return mismatches


__all__ = [
    "InvariantMonitor",
    "InvariantViolation",
    "check_agreement_logs",
    "cluster_smr_logs",
]
