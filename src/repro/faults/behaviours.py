"""Applying fault plans to a running cluster: the fault *control plane*.

:class:`FaultController` turns a declarative :class:`~repro.faults.plan.
FaultPlan` into scheduled simulator events against an
:class:`~repro.core.cluster.AtumCluster`:

* partitions form and heal at their configured times — per-node isolation
  through the network's partition machinery, side-preserving splits through
  its ``split``/``merge`` side-aware routing;
* link faults install a :class:`~repro.faults.injector.LinkFaultInjector`
  on the network;
* group slowdowns install a ``cost_perturbation`` hook on the membership
  engine, stretching straggler vgroups' operation durations;
* node faults flip node behaviours on schedule — crash (+ recovery), silent,
  mute, the §6.1.3 evict-proposing adversary (periodic eviction proposals
  against correct vgroup peers, driven here because a heartbeat-only node
  has no protocol activity of its own to hang a timer on), and equivocating
  broadcasters.

All control-plane randomness (victim choice of the eviction attack) comes
from the ``faults.control`` stream of the simulation's seeded registry.
Applying an **empty plan schedules nothing and installs nothing**, keeping
runs byte-identical to unfaulted ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.injector import LinkFaultInjector
from repro.faults.plan import FaultPlan, NodeFault
from repro.overlay.membership import MembershipError


class FaultController:
    """Schedules and executes one fault plan against one cluster."""

    def __init__(self, cluster, plan: FaultPlan, monitor=None) -> None:
        self.cluster = cluster
        self.plan = plan
        self.monitor = monitor
        self.injector: Optional[LinkFaultInjector] = None
        self._installed = False
        # Node faults currently in effect per address, in start order.  When
        # a windowed fault ends, the most recently started fault still
        # active takes over (or the node recovers if none remains), so
        # composed per-address faults — nested or partially overlapping
        # windows, a permanent behaviour under a crash-recover window — do
        # not erase each other.
        self._active_faults: Dict[str, List[NodeFault]] = {}
        # Attack timers self-reschedule until their fault's stop time even
        # while the behaviour is temporarily displaced, so each evict_attack
        # or rejoin_attack fault gets exactly one timer chain.
        self._attacks_started: set = set()
        # The join-leave coalition: every rejoin_attack address of the plan
        # (computed once; the attack coordinates across the whole coalition).
        self._rejoin_coalition: List[str] = sorted(
            {nf.address for nf in plan.nodes if nf.behaviour == "rejoin_attack"}
        )

    def install(self) -> "FaultController":
        """Schedule every fault of the plan; idempotent, returns ``self``."""
        if self._installed or self.plan.is_empty():
            self._installed = True
            return self
        self._installed = True
        cluster = self.cluster
        sim = cluster.sim
        if self.monitor is not None:
            self.monitor.exempt(self.plan.faulted_addresses())

        partitions = self.plan.partitions
        for partition in partitions:
            if partition.is_side_preserving:
                # Side-preserving splits are tracked by id on the network, so
                # forming and healing are exact regardless of overlaps with
                # other partitions; the cluster routes them through its
                # split-brain coordinator (per-side membership directories +
                # merge reconciliation).
                handle: Dict[str, int] = {}

                def form_split(partition=partition, handle=handle) -> None:
                    handle["id"] = cluster.split(partition.sides)
                    sim.metrics.increment("faults.partitions_formed")

                self._at(partition.start, form_split, tag="faults.partition")
                if partition.heal_at is not None:

                    def heal_split(handle=handle) -> None:
                        split_id = handle.pop("id", None)
                        if split_id is not None:
                            cluster.merge(split_id)
                        sim.metrics.increment("faults.partitions_healed")

                    self._at(partition.heal_at, heal_split, tag="faults.heal")
                continue
            members = partition.members

            def form(members=members) -> None:
                cluster.network.partition(members)
                sim.metrics.increment("faults.partitions_formed")

            self._at(partition.start, form, tag="faults.partition")
            if partition.heal_at is not None:

                def heal(partition=partition) -> None:
                    # Composed plans may cover an address with several
                    # overlapping partitions; healing one must not release
                    # addresses another still-active partition isolates.
                    now = sim.now
                    still_covered = set()
                    for other in partitions:
                        if other is partition or other.is_side_preserving:
                            continue
                        if other.start <= now and (
                            other.heal_at is None or now < other.heal_at
                        ):
                            still_covered.update(other.members)
                    to_heal = [m for m in partition.members if m not in still_covered]
                    if to_heal:
                        cluster.network.heal(to_heal)
                    sim.metrics.increment("faults.partitions_healed")

                self._at(partition.heal_at, heal, tag="faults.heal")

        if self.plan.links:
            self.injector = LinkFaultInjector(sim, self.plan.links)
            cluster.middleware_chain().add(self.injector)

        if self.plan.slowdowns:
            self._install_slowdowns()

        for node_fault in self.plan.nodes:
            self._at(
                node_fault.start,
                lambda nf=node_fault: self._start_behaviour(nf),
                tag="faults.node",
            )
            if node_fault.stop is not None:
                self._at(
                    node_fault.stop,
                    lambda nf=node_fault: self._stop_behaviour(nf),
                    tag="faults.recover",
                )
        return self

    # -------------------------------------------------------------- slowdowns

    def _install_slowdowns(self) -> None:
        """Install the straggler-vgroup hook on the membership engine.

        Composes every applicable :class:`~repro.faults.plan.GroupSlowdown`
        multiplicatively per reservation and observes the added latency as
        ``membership.slowdown_penalty`` (the matrix reports its mean/max as
        the straggler-induced operation-latency penalty).  Chains any
        pre-existing hook rather than replacing it.
        """
        engine = self.cluster.engine
        sim = self.cluster.sim
        slowdowns = self.plan.slowdowns
        inner = engine.cost_perturbation

        def perturb(group_id: str, duration: float) -> float:
            if inner is not None:
                duration = inner(group_id, duration)
            factor = 1.0
            for slowdown in slowdowns:
                if slowdown.applies(group_id, sim.now):
                    factor *= slowdown.factor
            if factor > 1.0:
                penalty = duration * (factor - 1.0)
                sim.metrics.observe("membership.slowdown_penalty", penalty)
                return duration * factor
            return duration

        engine.cost_perturbation = perturb

    # ------------------------------------------------------------- behaviours

    def _start_behaviour(self, node_fault: NodeFault) -> None:
        cluster = self.cluster
        address = node_fault.address
        node = cluster.nodes.get(address)
        if node is None:
            return
        cluster.sim.metrics.increment(
            f"faults.behaviour_{node_fault.behaviour}_started"
        )
        self._active_faults.setdefault(address, []).append(node_fault)
        self._apply_behaviour(node_fault)

    def _stop_behaviour(self, node_fault: NodeFault) -> None:
        cluster = self.cluster
        address = node_fault.address
        node = cluster.nodes.get(address)
        if node is None:
            return
        cluster.sim.metrics.increment(
            f"faults.behaviour_{node_fault.behaviour}_stopped"
        )
        active = self._active_faults.get(address, [])
        if node_fault in active:
            active.remove(node_fault)
        cluster.recover(address)
        if active:
            # Another fault still covers this address: the most recently
            # started one takes over instead of leaving the node correct.
            self._apply_behaviour(active[-1])

    def _apply_behaviour(self, node_fault: NodeFault) -> None:
        cluster = self.cluster
        behaviour = node_fault.behaviour
        if behaviour == "crash" or behaviour == "mute":
            # Both mean "completely unresponsive": byzantine='mute' plus a
            # stopped heartbeat monitor, so liveness detection can evict the
            # node.  They differ only in intent (crash windows recover).
            cluster.crash(node_fault.address)
            return
        node = cluster.nodes.get(node_fault.address)
        if node is not None:
            node.set_behaviour(behaviour)
        if behaviour == "evict_attack" and node_fault not in self._attacks_started:
            self._attacks_started.add(node_fault)
            self._schedule_attack(node_fault)
        if behaviour == "rejoin_attack" and node_fault not in self._attacks_started:
            self._attacks_started.add(node_fault)
            self._schedule_rejoin(node_fault)

    # --------------------------------------------------------- eviction attack

    def _schedule_attack(self, node_fault: NodeFault) -> None:
        self.cluster.sim.schedule(
            node_fault.attack_period,
            lambda: self._attack_tick(node_fault),
            tag="faults.evict_attack",
        )

    def _attack_tick(self, node_fault: NodeFault) -> None:
        """One eviction proposal by the §6.1.3 adversary against a correct peer.

        The attacker reports a deterministic rotation of its correct vgroup
        peers as "suspected".  Because an eviction needs majority suspicion
        inside the vgroup, a Byzantine minority's proposals never pass — the
        invariant monitor flags it immediately if one ever does.
        """
        cluster = self.cluster
        attacker = cluster.nodes.get(node_fault.address)
        if attacker is None:
            return
        if node_fault.stop is not None and cluster.sim.now >= node_fault.stop:
            return
        view = attacker.vgroup_view
        # Propose only while the attack behaviour is actually active (another
        # windowed fault, e.g. a crash, may have temporarily displaced it);
        # the timer itself keeps running until the fault's stop time.
        if attacker.byzantine == "evict_attack" and view is not None:
            victims = [
                member
                for member in view.members
                if member != attacker.address
                and (cluster.nodes.get(member) is None or cluster.nodes[member].is_correct)
            ]
            if victims:
                tick = int(cluster.sim.now / node_fault.attack_period)
                victim = victims[tick % len(victims)]
                cluster.sim.metrics.increment("faults.evictions_proposed_by_byzantine")
                cluster.request_eviction(victim, suspected_by=attacker.address)
        self._schedule_attack(node_fault)

    # -------------------------------------------------------- join-leave attack

    def _schedule_rejoin(self, node_fault: NodeFault) -> None:
        self.cluster.sim.schedule(
            node_fault.attack_period,
            lambda: self._rejoin_tick(node_fault),
            tag="faults.rejoin_attack",
        )

    def _coalition_placement(self) -> Dict[str, int]:
        """Coalition members per current vgroup (groups with none omitted)."""
        placement: Dict[str, int] = {}
        node_group = self.cluster.engine.node_group
        for address in self._rejoin_coalition:
            group_id = node_group.get(address)
            if group_id is not None:
                placement[group_id] = placement.get(group_id, 0) + 1
        return placement

    def _observe_concentration(self) -> None:
        """Record the worst per-vgroup coalition concentration right now.

        Two histograms, both over the per-tick worst vgroup:

        * ``faults.rejoin_group_fraction`` — coalition members / group size
          (reporting);
        * ``faults.rejoin_threshold_excess`` — coalition members minus the
          group's eviction/agreement threshold ``(size - 1) // 2`` (the
          strict-minority bound every defence rests on).  The attack *fails*
          as long as the maximum stays ≤ 0: the coalition never outgrew a
          strict minority of any vgroup, so group-message majorities, SMR
          quorums and eviction votes all hold.
        """
        groups = self.cluster.engine.groups
        placement = self._coalition_placement()
        worst_fraction = 0.0
        worst_excess = -float(
            max((view.size for view in groups.values()), default=1)
        )
        for group_id, count in placement.items():
            view = groups.get(group_id)
            if view is not None and view.size > 0:
                worst_fraction = max(worst_fraction, count / view.size)
                worst_excess = max(worst_excess, count - (view.size - 1) // 2)
        metrics = self.cluster.sim.metrics
        metrics.observe("faults.rejoin_group_fraction", worst_fraction)
        metrics.observe("faults.rejoin_threshold_excess", worst_excess)

    def _rejoin_tick(self, node_fault: NodeFault) -> None:
        """One strategic move of the §3.2 join-leave adversary.

        The coalition's strategy: pick the vgroup already holding the most
        coalition members as the *target* and funnel everyone else towards
        it by leaving and re-joining (a re-join is placed by a fresh random
        walk — exactly the die the attacker keeps re-rolling).  Misplaced
        members move concurrently — the most aggressive schedule — but
        each waits out its own in-flight membership operation, so a member
        churns at most one operation per completed move rather than one
        per tick, keeping the run a placement-quality measurement instead
        of an engine-backlog storm.
        """
        cluster = self.cluster
        now = cluster.sim.now
        if node_fault.stop is not None and now >= node_fault.stop:
            return
        self._schedule_rejoin(node_fault)
        node = cluster.nodes.get(node_fault.address)
        if node is None or node.byzantine != "rejoin_attack":
            return  # temporarily displaced by another fault; timer keeps running
        coalition = self._rejoin_coalition
        if node_fault.address == coalition[0]:
            # One designated observer per tick round records concentration.
            self._observe_concentration()
        address = node_fault.address
        engine = cluster.engine
        if engine.has_pending_operation(address):
            return  # a leave or re-join of this attacker is still running
        if address not in engine.node_group:
            # Out of the system (left last move, or the join aborted against
            # a busy contact vgroup): re-join through the ordinary protocol —
            # placement is the engine's random walk, which is the whole
            # point of the attack — and retry every tick until it lands.
            try:
                cluster.join(address)
                cluster.sim.metrics.increment("faults.rejoin_joins")
            except MembershipError:
                # The identity is still blocked (e.g. its eviction has not
                # finished); the next tick retries.  Counted so a plan whose
                # rejoins never land is visible in the metrics.
                cluster.sim.metrics.increment("faults.rejoin_join_failed")
            return
        placement = self._coalition_placement()
        if not placement:
            return
        # The rally point: the vgroup already holding the most coalition
        # members (ties break deterministically), even from an all-equal
        # start — consolidating on *some* group is the whole attack, and
        # each re-join re-rolls the random-walk die hoping to land there.
        target = min(
            group_id
            for group_id, count in placement.items()
            if count == max(placement.values())
        )
        if engine.node_group[address] == target:
            return
        try:
            cluster.leave(address)
            cluster.sim.metrics.increment("faults.rejoin_leaves")
        except MembershipError:
            # A concurrent operation owns the address right now; the next
            # tick retries.
            cluster.sim.metrics.increment("faults.rejoin_leave_failed")

    # ----------------------------------------------------------------- helpers

    def _at(self, time: float, callback, tag: str) -> None:
        sim = self.cluster.sim
        sim.schedule_at(max(time, sim.now), callback, tag=tag)


def apply_plan(cluster, plan: FaultPlan, monitor=None) -> FaultController:
    """Convenience wrapper: build and install a controller for ``plan``."""
    return FaultController(cluster, plan, monitor=monitor).install()


__all__ = ["FaultController", "apply_plan"]
