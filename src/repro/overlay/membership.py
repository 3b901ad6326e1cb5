"""The membership engine: joins, leaves, shuffling, splits and merges.

This engine is the vgroup-granularity heart of Atum.  It owns the
authoritative mapping of nodes to vgroups and the H-graph overlay, and it
executes the membership protocols of sections 3.2 and 3.3 as timed operations
on the simulator:

* **join** -- agreement at the contact vgroup, a random walk to select the
  hosting vgroup, agreement and state transfer there, followed by random walk
  shuffling and (if the vgroup outgrew ``gmax``) a split;
* **leave / eviction** -- agreement at the leaving node's vgroup, neighbour
  notification, then shuffling, or a merge if the vgroup shrank below
  ``gmin``;
* **random walk shuffling** -- after any membership change, the affected
  vgroup exchanges its members against uniformly sampled nodes from the whole
  system; exchanges whose chosen partner vgroup is already busy with another
  reconfiguration are *suppressed* (the effect measured in Figure 13);
* **logarithmic grouping** -- splits and merges keep every vgroup's size
  between ``gmin`` and ``gmax``.

Each protocol step is charged simulated time through a
:class:`repro.group.cost.GroupCostModel`, and vgroups process one
reconfiguration at a time (reconfigurations of the same vgroup serialize),
which is what limits the sustainable churn rate measured in Figure 7.

The engine deliberately works at vgroup granularity rather than simulating
every inter-node packet: growth and churn experiments involve more than a
thousand nodes, where packet-level simulation in Python would be prohibitive.
The node-level protocols (SMR, group messages, gossip) are implemented in
full elsewhere and calibrate this engine's cost model.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set

from repro.group.vgroup import VGroupView
from repro.overlay.hgraph import HGraph
from repro.overlay.random_walk import WalkMode, walk_end
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - core.config imports the overlay package
    from repro.core.config import AtumParameters


class MembershipError(RuntimeError):
    """Raised on invalid membership operations (unknown node, double join...)."""


@dataclass
class _OperationStats:
    """Bookkeeping for one in-flight join/leave operation."""

    kind: str
    node: str
    started_at: float
    completed_at: Optional[float] = None


class MembershipEngine:
    """Vgroup-granularity membership state and protocols.

    ``params`` is the deployment's shared
    :class:`~repro.core.config.AtumParameters`: the engine reads ``hc``,
    ``rwl``, ``gmin``, ``gmax``, ``walk_mode`` and ``shuffle_enabled`` from
    it, and charges time through its :meth:`cost_model`.
    """

    def __init__(
        self,
        sim: Simulator,
        params: "AtumParameters",
        on_view_changed: Optional[Callable[[VGroupView], None]] = None,
        on_group_removed: Optional[Callable[[str], None]] = None,
        on_node_left: Optional[Callable[[str], None]] = None,
        on_join_completed: Optional[Callable[[str, str], None]] = None,
        cost_perturbation: Optional[Callable[[str, float], float]] = None,
    ) -> None:
        self.sim = sim
        self.params = params
        self.cost = params.cost_model()
        self.on_view_changed = on_view_changed
        self.on_group_removed = on_group_removed
        self.on_node_left = on_node_left
        self.on_join_completed = on_join_completed
        # Optional fault hook: maps ``(group_id, duration) -> duration`` and
        # lets fault plans model slow/straggler vgroups whose agreements take
        # longer than the cost model predicts.  ``None`` (the default) leaves
        # every reservation untouched, so unfaulted runs are byte-identical.
        self.cost_perturbation = cost_perturbation

        self.groups: Dict[str, VGroupView] = {}
        # Smallest size each vgroup was ever installed at, removed groups
        # included: the reference for the forged-size check of group
        # messages (an honest share claims its group's size at send time,
        # which is never below this).  Kept by _notify_view, the one path
        # every view takes.
        self.smallest_size: Dict[str, int] = {}
        self.node_group: Dict[str, str] = {}
        # The keys of ``node_group``, sorted: kept in step by the four paths
        # that add or remove a node, so a caller that draws a member by
        # index (the churn driver, once per tick) never sorts the system.
        self.addresses: List[str] = []
        self.graph: Optional[HGraph] = None
        # Indexed view of ``groups``: the group ids in creation order (dict
        # insertion order minus removals — removals never re-add ids, so this
        # list always equals ``list(self.groups)``).  Hot paths that used to
        # rebuild that list per random draw (walk relays, walk fallbacks,
        # contact selection) index into it directly instead.
        self._group_ids: List[str] = []

        self._busy_until: Dict[str, float] = {}
        self._relay_busy_until: Dict[str, float] = {}
        self._node_busy_until: Dict[str, float] = {}
        self._shuffling_groups: Set[str] = set()
        self._group_counter = itertools.count(1)
        self._rng = sim.rng.stream("membership")
        self._pending_ops: Dict[str, _OperationStats] = {}
        self._op_counter = itertools.count(1)

    # ------------------------------------------------------------------ queries

    @property
    def system_size(self) -> int:
        return len(self.node_group)

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def group_of(self, node: str) -> VGroupView:
        group_id = self.node_group.get(node)
        if group_id is None:
            raise MembershipError(f"node {node!r} is not a member of the system")
        return self.groups[group_id]

    def pending_operations(self) -> int:
        return len(self._pending_ops)

    def has_pending_operation(self, node: str) -> bool:
        """Whether a join/leave operation for ``node`` is currently in flight."""
        return any(stats.node == node for stats in self._pending_ops.values())

    def average_group_size(self) -> float:
        if not self.groups:
            return 0.0
        return self.system_size / len(self.groups)

    def validate(self) -> None:
        """Check the cross-structure invariants (used by tests).

        * Every node belongs to exactly one vgroup, and that vgroup's view
          contains it.
        * Group views and the H-graph have the same vertex set.
        * Every H-graph cycle is a single Hamiltonian cycle.
        """
        for node, group_id in self.node_group.items():
            if group_id not in self.groups:
                raise MembershipError(f"node {node} points to missing group {group_id}")
            if node not in self.groups[group_id].member_set:
                raise MembershipError(f"group {group_id} does not contain {node}")
        for group_id, view in self.groups.items():
            for member in view.members:
                if self.node_group.get(member) != group_id:
                    raise MembershipError(
                        f"member {member} of {group_id} maps to {self.node_group.get(member)}"
                    )
        if self.graph is not None:
            if self.graph.vertices != set(self.groups):
                raise MembershipError("H-graph vertex set differs from the group set")
            self.graph.validate()

    # ------------------------------------------------------------- construction

    def bootstrap(self, node: str) -> VGroupView:
        """Create a brand new system containing only ``node`` (section 3.3.1)."""
        if self.groups:
            raise MembershipError("bootstrap on a non-empty system")
        group_id = self._new_group_id()
        view = VGroupView.create(group_id, [node])
        self.groups[group_id] = view
        self._group_ids.append(group_id)
        self.node_group[node] = group_id
        insort(self.addresses, node)
        self.graph = HGraph.bootstrap(group_id, self.params.hc)
        self._notify_view(view)
        self._record_size()
        return view

    def build_static(self, nodes: Sequence[str], target_group_size: Optional[int] = None) -> None:
        """Directly construct a system of ``nodes`` without replaying growth.

        Nodes are partitioned into vgroups of roughly ``target_group_size``
        (defaulting to the midpoint of ``gmin`` and ``gmax``), and a random
        H-graph is built over the vgroups.  This mirrors the state an Atum
        deployment reaches after growing to that size, and is used by the
        latency and application experiments.
        """
        if self.groups:
            raise MembershipError("build_static on a non-empty system")
        if not nodes:
            raise MembershipError("build_static needs at least one node")
        size = target_group_size or max(self.params.gmin, (self.params.gmin + self.params.gmax) // 2)
        size = max(1, min(size, self.params.gmax))
        shuffled = list(nodes)
        self._rng.shuffle(shuffled)
        chunks: List[List[str]] = [shuffled[i : i + size] for i in range(0, len(shuffled), size)]
        # Avoid a trailing chunk below gmin by folding it into the previous one
        # (unless it is the only chunk).
        if len(chunks) > 1 and len(chunks[-1]) < self.params.gmin:
            chunks[-2].extend(chunks.pop())
            # The fold can push the merged chunk past gmax (size ≤ gmax plus a
            # trailing remainder up to gmin-1), and build_static never re-runs
            # _maybe_split — so without rebalancing the system would *start*
            # with an oversized vgroup.  Split the merged chunk back into two
            # halves whenever both halves reach gmin; each half is then at
            # most ceil((gmax + gmin - 1) / 2) ≤ gmax.  Only a configuration
            # with gmax < 2*gmin can leave the merged chunk unsplittable, and
            # then no partition of that remainder satisfies [gmin, gmax] at
            # all, so the single oversized group is the minimal violation.
            merged = chunks[-1]
            if len(merged) > self.params.gmax and len(merged) >= 2 * self.params.gmin:
                half = len(merged) // 2
                chunks[-1] = merged[:half]
                chunks.append(merged[half:])
        for chunk in chunks:
            group_id = self._new_group_id()
            view = VGroupView.create(group_id, chunk)
            self.groups[group_id] = view
            self._group_ids.append(group_id)
            for member in chunk:
                self.node_group[member] = group_id
        self.addresses = sorted(self.node_group)
        self.graph = HGraph.random(list(self._group_ids), self.params.hc, self._rng)
        for view in self.groups.values():
            self._notify_view(view)
        self._record_size()

    # ---------------------------------------------------------------- operations

    def join(self, node: str, contact_node: Optional[str] = None) -> None:
        """Start a join operation for ``node`` (section 3.3.2).

        The operation runs asynchronously on the simulator; its completion is
        observable through the metrics (``membership.join_latency``) and the
        ``on_join_completed`` callback.
        """
        if node in self.node_group:
            raise MembershipError(f"node {node!r} is already a member")
        if not self.groups:
            self.bootstrap(node)
            return
        if contact_node is not None and contact_node in self.node_group:
            contact_group = self.node_group[contact_node]
        else:
            contact_group = self._rng.choice(self._group_ids)
        op_id = f"join-{next(self._op_counter)}"
        self._pending_ops[op_id] = _OperationStats(kind="join", node=node, started_at=self.sim.now)
        self.sim.metrics.increment("membership.joins_started")
        self._join_phase_contact(op_id, node, contact_group)

    def leave(self, node: str, eviction: bool = False) -> None:
        """Start a leave (or eviction) operation for ``node`` (section 3.3.3)."""
        if node not in self.node_group:
            raise MembershipError(f"node {node!r} is not a member")
        op_id = f"leave-{next(self._op_counter)}"
        self._pending_ops[op_id] = _OperationStats(kind="leave", node=node, started_at=self.sim.now)
        self.sim.metrics.increment(
            "membership.evictions_started" if eviction else "membership.leaves_started"
        )
        self._leave_phase_agree(op_id, node)

    # ------------------------------------------------------------ join internals

    def _join_phase_contact(self, op_id: str, node: str, contact_group: str) -> None:
        """Phase 1: the contact vgroup agrees on the join request."""
        contact_group = self._existing_or_random(contact_group)
        if contact_group is None:
            self._abort(op_id)
            return
        view = self.groups[contact_group]
        duration = self.cost.join_agreement_latency(view.size)
        done = self._reserve(contact_group, duration)
        self._at(done, lambda: self._join_phase_walk(op_id, node, contact_group))

    def _join_phase_walk(self, op_id: str, node: str, contact_group: str) -> None:
        """Phase 2: a random walk from the contact vgroup selects the host."""
        walk_latency = self.cost.random_walk_latency(
            self.params.rwl,
            max(1, int(round(self.average_group_size()))),
            backward_phase=self.params.walk_mode is WalkMode.BACKWARD_PHASE,
        )
        self._charge_walk_relays(1)
        self.sim.metrics.increment("membership.walks_started")
        self._at(
            self.sim.now + walk_latency,
            lambda: self._join_phase_place(op_id, node, contact_group),
        )

    def _join_phase_place(self, op_id: str, node: str, contact_group: str) -> None:
        """Phase 3: agreement and state transfer at the selected vgroup."""
        host_group = self._walk_select(contact_group)
        if host_group is None:
            self._abort(op_id)
            return
        view = self.groups[host_group]
        duration = self.cost.agreement_latency(view.size) + self.cost.state_transfer_latency(
            self.params.hc, view.size
        )
        done = self._reserve(host_group, duration)
        self._at(done, lambda: self._join_phase_install(op_id, node, host_group))

    def _join_phase_install(self, op_id: str, node: str, host_group: str) -> None:
        """Phase 4: install the new member, notify neighbours, then shuffle."""
        host_group = self._existing_or_random(host_group)
        if host_group is None:
            self._abort(op_id)
            return
        if node in self.node_group:
            # The node joined through a concurrent path (should not happen).
            self._abort(op_id)
            return
        new_view = self.groups[host_group].add(node)
        self._install_view(new_view)
        self.node_group[node] = host_group
        insort(self.addresses, node)
        self._record_size()
        self._complete(op_id)
        if self.on_join_completed is not None:
            self.on_join_completed(node, host_group)
        after_shuffle = lambda: self._maybe_split(host_group)
        if self.params.shuffle_enabled:
            self._shuffle(host_group, then=after_shuffle)
        else:
            after_shuffle()

    # ----------------------------------------------------------- leave internals

    def _leave_phase_agree(self, op_id: str, node: str) -> None:
        group_id = self.node_group.get(node)
        if group_id is None or group_id not in self.groups:
            self._abort(op_id)
            return
        view = self.groups[group_id]
        duration = self.cost.agreement_latency(view.size)
        done = self._reserve(group_id, duration)
        self._at(done, lambda: self._leave_phase_remove(op_id, node, group_id))

    def _leave_phase_remove(self, op_id: str, node: str, group_id: str) -> None:
        if group_id not in self.groups or self.node_group.get(node) != group_id:
            self._abort(op_id)
            return
        view = self.groups[group_id]
        new_view = view.remove(node)
        del self.node_group[node]
        del self.addresses[bisect_left(self.addresses, node)]
        if self.on_node_left is not None:
            self.on_node_left(node)
        if new_view.size == 0:
            # The last member of the last vgroup left: tear the system down,
            # or (if other vgroups exist) drop the empty vgroup from the overlay.
            self._remove_group(group_id)
            self._record_size()
            self._complete(op_id)
            return
        self._install_view(new_view)
        self._record_size()
        self._complete(op_id)
        if new_view.size < self.params.gmin and len(self.groups) > 1:
            self._merge(group_id)
        elif self.params.shuffle_enabled:
            self._shuffle(group_id, then=lambda: None)

    # --------------------------------------------------------- shuffling internals

    def _shuffle(self, group_id: str, then: Callable[[], None]) -> None:
        """Random walk shuffling: exchange the vgroup's members against random nodes.

        One random walk is started per member; walks proceed in parallel.  When
        a walk completes, the exchange is attempted: if the selected partner
        vgroup is itself reconfiguring (joining, leaving, splitting, merging or
        shuffling) or the chosen partner node already participates in another
        exchange, the exchange is suppressed (this is the effect Figure 13
        measures under aggressive growth).
        """
        if group_id not in self.groups:
            then()
            return
        view = self.groups[group_id]
        walk_latency = self.cost.random_walk_latency(
            self.params.rwl,
            max(1, int(round(self.average_group_size()))),
            backward_phase=self.params.walk_mode is WalkMode.BACKWARD_PHASE,
        )
        members = list(view.members)
        remaining = {"count": len(members)}

        def finish_one() -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self._shuffling_groups.discard(group_id)
                then()

        if not members:
            then()
            return
        # The shuffling vgroup agrees on the whole batch of exchanges at once;
        # it is reserved once for that agreement and marked as shuffling so
        # that concurrent shuffles do not pick it as an exchange partner.
        self._shuffling_groups.add(group_id)
        batch_duration = self.cost.agreement_latency(view.size)
        self._reserve(group_id, batch_duration, earliest=self.sim.now + walk_latency)
        # One random walk per member: the vgroups relaying those walks spend a
        # slice of their capacity forwarding them (a major cost under churn).
        self._charge_walk_relays(len(members))
        for member in members:
            self._at(
                self.sim.now + walk_latency,
                lambda m=member: (self._attempt_exchange(group_id, m), finish_one()),
            )

    def _attempt_exchange(self, group_id: str, member: str) -> None:
        self.sim.metrics.increment("membership.exchanges_attempted")
        now = self.sim.now
        if group_id not in self.groups or self.node_group.get(member) != group_id:
            self.sim.metrics.increment("membership.exchanges_suppressed")
            return
        if self._node_busy_until.get(member, 0.0) > now:
            self.sim.metrics.increment("membership.exchanges_suppressed")
            return
        partner_group = self._walk_select(group_id)
        if partner_group is None or partner_group == group_id:
            self.sim.metrics.increment("membership.exchanges_suppressed")
            return
        if partner_group in self._shuffling_groups or self._busy_until.get(partner_group, 0.0) > now:
            # The chosen exchange partner vgroup already participates in
            # another reconfiguration: the exchange is suppressed (Figure 13).
            self.sim.metrics.increment("membership.exchanges_suppressed")
            return
        partner_view = self.groups[partner_group]
        if partner_view.size == 0:
            self.sim.metrics.increment("membership.exchanges_suppressed")
            return
        candidates = [
            node
            for node in partner_view.members
            if self._node_busy_until.get(node, 0.0) <= now
        ]
        if not candidates:
            self.sim.metrics.increment("membership.exchanges_suppressed")
            return
        partner_member = self._rng.choice(candidates)
        # Swap the two nodes between the two vgroups.  Both nodes are busy for
        # the duration of the two vgroups' (concurrent) agreements on the swap.
        new_own = self.groups[group_id].exchange(member, partner_member)
        new_partner = partner_view.exchange(partner_member, member)
        self._install_view(new_own)
        self._install_view(new_partner)
        self.node_group[member] = partner_group
        self.node_group[partner_member] = group_id
        exchange_duration = self.cost.agreement_latency(new_partner.size)
        self._node_busy_until[member] = now + exchange_duration
        self._node_busy_until[partner_member] = now + exchange_duration
        self.sim.metrics.increment("membership.exchanges_completed")

    # ---------------------------------------------------- logarithmic grouping

    def _maybe_split(self, group_id: str) -> None:
        if group_id not in self.groups:
            return
        view = self.groups[group_id]
        if view.size <= self.params.gmax:
            return
        assert self.graph is not None
        self.sim.metrics.increment("membership.splits")
        members = list(view.members)
        self._rng.shuffle(members)
        half = len(members) // 2
        staying, moving = members[:half], members[half:]
        new_group_id = self._new_group_id()
        new_view = VGroupView.create(new_group_id, moving)
        reduced_view = view.with_members(staying)
        self.groups[new_group_id] = new_view
        self._group_ids.append(new_group_id)
        self._install_view(reduced_view)
        for member in moving:
            self.node_group[member] = new_group_id
        # One random walk per cycle selects where to splice the new vgroup in.
        insertion_points: List[str] = []
        for _cycle in range(self.params.hc):
            target = self._walk_select(group_id)
            insertion_points.append(target if target is not None else group_id)
        self.graph.insert_vertex(new_group_id, insertion_points)
        self._notify_view(new_view)
        self._reserve(group_id, self.cost.agreement_latency(view.size))
        self._reserve(new_group_id, self.cost.agreement_latency(new_view.size))

    def _merge(self, group_id: str) -> None:
        """Merge an undersized vgroup into a random neighbouring vgroup."""
        if group_id not in self.groups or self.graph is None:
            return
        # Sorted: ``neighbors`` is a set, and the draw below must not depend
        # on its iteration order (PYTHONHASHSEED).
        neighbors = [g for g in sorted(self.graph.neighbors(group_id)) if g in self.groups]
        if not neighbors:
            return
        self.sim.metrics.increment("membership.merges")
        moving = list(self.groups[group_id].members)
        # Prefer a neighbour the merge fits into without exceeding gmax:
        # under heavy eviction churn several undersized vgroups can merge
        # concurrently, and a blind random choice lets them pile onto one
        # target far past the split transient.  When every neighbour would
        # overflow, take the smallest so the overshoot stays minimal.
        fitting = [
            g for g in neighbors if self.groups[g].size + len(moving) <= self.params.gmax
        ]
        if fitting:
            target = self._rng.choice(fitting)
        else:
            target = min(neighbors, key=lambda g: (self.groups[g].size, g))
        merged_view = self.groups[target].with_members(
            list(self.groups[target].members) + moving
        )
        self._install_view(merged_view)
        for member in moving:
            self.node_group[member] = target
        self._remove_group(group_id)
        duration = self.cost.agreement_latency(merged_view.size)
        done = self._reserve(target, duration)
        after_shuffle = lambda: self._maybe_split(target)
        if self.params.shuffle_enabled:
            self._at(done, lambda: self._shuffle(target, then=after_shuffle))
        else:
            self._at(done, after_shuffle)

    # ------------------------------------------------------------------ helpers

    def _new_group_id(self) -> str:
        return f"vg-{next(self._group_counter)}"

    def _charge_walk_relays(self, walk_count: int) -> None:
        """Charge the vgroups that relay ``walk_count`` random walks.

        Each walk traverses ``rwl`` vgroups chosen (approximately) uniformly;
        every traversed vgroup spends :meth:`GroupCostModel.walk_relay_occupancy`
        of its serial capacity forwarding the walk.  This is what makes long
        random walks expensive under churn (Figure 7's rwl sensitivity).  It is
        no reconfiguration, so it does not mark the vgroup busy (an exchange
        may still pick it).  Each relay is ``Random.randrange``'s draw, run
        inline: rejection sampling over ``getrandbits`` (CPython 3.10-3.12).
        """
        if not self.groups:
            return
        group_ids = self._group_ids
        group_size = max(1, int(round(self.average_group_size())))
        occupancy = self.cost.walk_relay_occupancy(group_size)
        if occupancy <= 0:
            return
        count, getrandbits = len(group_ids), self._rng.getrandbits
        bits, perturbation, now = count.bit_length(), self.cost_perturbation, self.sim.now
        busy_until, relay_busy_until = self._busy_until, self._relay_busy_until
        for _ in range(walk_count * self.params.rwl):
            index = getrandbits(bits)
            while index >= count:
                index = getrandbits(bits)
            relay = group_ids[index]
            duration = occupancy if perturbation is None else perturbation(relay, occupancy)
            start = max(now, busy_until.get(relay, 0.0), relay_busy_until.get(relay, 0.0))
            relay_busy_until[relay] = start + duration

    def _at(self, time: float, callback: Callable[[], None]) -> None:
        self.sim.schedule_at(max(time, self.sim.now), callback, tag="membership")

    def _reserve(self, group_id: str, duration: float, earliest: Optional[float] = None) -> float:
        """Serialize reconfigurations of a vgroup; returns the completion time.

        Reconfigurations also queue behind any walk-relaying work the vgroup
        has pending (:meth:`_charge_walk_relays`), so relayed walks consume
        real capacity even though they do not mark the vgroup as reconfiguring.
        """
        if self.cost_perturbation is not None:
            duration = self.cost_perturbation(group_id, duration)
        start = max(
            self.sim.now if earliest is None else earliest,
            self._busy_until.get(group_id, 0.0),
            self._relay_busy_until.get(group_id, 0.0),
        )
        completion = start + duration
        self._busy_until[group_id] = completion
        return completion

    def _existing_or_random(self, group_id: str) -> Optional[str]:
        if group_id in self.groups:
            return group_id
        if not self.groups:
            return None
        return self._rng.choice(self._group_ids)

    def _walk_select(self, start_group: str) -> Optional[str]:
        """Select a vgroup via a structural random walk from ``start_group``
        (its ``rwl`` numbers drawn up front, as ``structural_walk`` draws them)."""
        if self.graph is None or not self.groups:
            return None
        rng = self._rng
        start = start_group if start_group in self.groups else rng.choice(self._group_ids)
        if len(self.groups) == 1:
            return start
        random = rng.random
        selected = walk_end(self.graph, start, [random() for _ in range(self.params.rwl)])
        if selected not in self.groups:
            return rng.choice(self._group_ids)
        return selected

    def _install_view(self, view: VGroupView) -> None:
        self.groups[view.group_id] = view
        self._notify_view(view)

    def _notify_view(self, view: VGroupView) -> None:
        smallest = self.smallest_size.get(view.group_id)
        if smallest is None or view.size < smallest:
            self.smallest_size[view.group_id] = view.size
        if self.on_view_changed is not None:
            self.on_view_changed(view)

    def _remove_group(self, group_id: str) -> None:
        if group_id in self.groups:
            self._group_ids.remove(group_id)
        self.groups.pop(group_id, None)
        self._busy_until.pop(group_id, None)
        self._relay_busy_until.pop(group_id, None)
        if self.graph is not None and group_id in self.graph:
            if len(self.graph) > 1:
                self.graph.remove(group_id)
            else:
                # The overlay is empty once its last vgroup disappears.
                self.graph = None
        if self.on_group_removed is not None:
            self.on_group_removed(group_id)

    def _record_size(self) -> None:
        self.sim.metrics.record_point("membership.system_size", self.sim.now, self.system_size)
        self.sim.metrics.record_point("membership.group_count", self.sim.now, self.group_count)

    def _complete(self, op_id: str) -> None:
        stats = self._pending_ops.pop(op_id, None)
        if stats is None:
            return
        stats.completed_at = self.sim.now
        latency = stats.completed_at - stats.started_at
        self.sim.metrics.increment(f"membership.{stats.kind}s_completed")
        self.sim.metrics.observe(f"membership.{stats.kind}_latency", latency)

    def _abort(self, op_id: str) -> None:
        stats = self._pending_ops.pop(op_id, None)
        if stats is not None:
            self.sim.metrics.increment(f"membership.{stats.kind}s_aborted")


__all__ = ["MembershipEngine", "MembershipError"]
