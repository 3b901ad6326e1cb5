"""The cluster driver: hosts many Atum nodes on one simulator.

``AtumCluster`` plays the role of the deployment scripts of the paper's
evaluation: it creates nodes, bootstraps the first one, drives joins, leaves
and broadcasts, injects Byzantine behaviour, and exposes measurement helpers
(delivery latencies, growth curves, churn statistics) used by the tests,
examples and benchmarks.

The cluster also implements the *overlay directory* consulted by nodes when
they gossip: in a real deployment every node learns the composition of its
neighbouring vgroups through the replicated state of its own vgroup (updated
by group messages whenever a neighbour reconfigures); here that replicated
knowledge is centralised in the membership engine and served to nodes through
the directory interface, which keeps the node-level code identical while
avoiding a per-node copy of the neighbourhood state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import AtumParameters, SmrKind
from repro.core.middleware import (
    MiddlewareChain,
    MiddlewareContext,
    MiddlewareError,
    run_hooks,
)
from repro.core.forward import ForwardPlan
from repro.core.node import AtumNode, BroadcastMessage
from repro.crypto.keys import KeyRegistry
from repro.faults.byzantine import set_behaviour
from repro.group.antientropy import AntiEntropyConfig, AntiEntropyTap
from repro.group.heartbeat import MISSES_BEFORE_EVICTION, HeartbeatClock
from repro.group.vgroup import VGroupView
from repro.net.latency import LanProfile, LatencyModel, WanProfile
from repro.net.network import Network
from repro.overlay.directory import MergeDecision, SplitBrainCoordinator
from repro.overlay.membership import MembershipEngine, MembershipError
from repro.sim.simulator import Simulator


class AtumCluster:
    """A collection of Atum nodes plus the substrate they run on."""

    def __init__(
        self,
        params: Optional[AtumParameters] = None,
        seed: int = 0,
        latency_model: Optional[LatencyModel] = None,
        enable_heartbeats: bool = False,
        antientropy: Optional["AntiEntropyConfig"] = None,
    ) -> None:
        self.params = params or AtumParameters()
        self.sim = Simulator(seed=seed)
        if latency_model is None:
            latency_model = (
                LanProfile() if self.params.smr_kind is SmrKind.SYNC else WanProfile()
            )
        self.latency_model = latency_model
        self.network = Network(self.sim, latency_model=latency_model)
        self.registry = KeyRegistry()
        # One clock ticks every node's heartbeat monitor (None: no monitors),
        # and tallies the bursts they send on the network.
        self.heartbeat_clock: Optional[HeartbeatClock] = (
            HeartbeatClock(self.sim, self.params.heartbeat_period, self.network)
            if enable_heartbeats
            else None
        )
        # Optional anti-entropy repair layer (repro.group.antientropy): a
        # config here equips every node with the digest-exchange repair
        # actor; None keeps runs byte-identical to pre-anti-entropy builds.
        self.antientropy_config = antientropy
        self.engine = MembershipEngine(
            sim=self.sim,
            params=self.params,
            on_view_changed=self._on_view_changed,
            on_group_removed=self._on_group_removed,
            on_node_left=self._on_node_left,
            on_join_completed=self._on_join_completed,
        )
        self.nodes: Dict[str, AtumNode] = {}
        # Suspicion reports age out after the same deadline the nodes'
        # heartbeat monitors use to form a suspicion (period * misses): both
        # read MISSES_BEFORE_EVICTION, so they cannot drift.
        self._suspicion_window = self.params.heartbeat_period * MISSES_BEFORE_EVICTION
        self._eviction_requests: Set[str] = set()
        # Per suspect: reporter -> time of the latest suspicion report.
        # Reports age out (see request_eviction), so a Byzantine minority
        # cannot accumulate stale accusations until they look like a majority.
        self._suspicions: Dict[str, Dict[str, float]] = {}
        # neighbour_members() per vgroup: valid for one topology version,
        # dropped whole by any view change or group removal.
        self._neighbour_members: Dict[str, Tuple[str, ...]] = {}
        self._neighbour_topology: Optional[int] = None
        # forward_plan()'s table, and (built at, key, plan) of each plan built,
        # oldest first: a plan leaves the table a round after it was built.
        self._forward_plans: Dict[Tuple[Any, ...], ForwardPlan] = {}
        self._plans_built: Deque[Tuple[float, Tuple[Any, ...], ForwardPlan]] = deque()
        # Middleware pipeline (repro.core.middleware): one chain per cluster,
        # installed lazily via middleware_chain()/install_middleware().  The
        # per-hook pipelines below are compiled from the chain; ``None`` means
        # "no pipeline" and costs one truthiness check per membership event.
        self._middleware: Optional[MiddlewareChain] = None
        # Identity-scanned lists, not id()-keyed sets: chains hold a handful
        # of middleware, and stable-identity bookkeeping must not depend on
        # address reuse (atumlint ATL008).
        self._mw_setup_done: List[Any] = []
        self._view_hooks = None
        self._eviction_hooks = None
        self._node_added_hooks = None
        self._node_left_hooks = None
        self._deliver_hooks = None
        # Evicted identities already announced through on_eviction: the
        # durable exactly-once guard (``_eviction_requests`` is transient —
        # _on_node_left clears it, which is what let the split-merge race
        # re-announce an eviction).
        self._evictions_notified: Set[str] = set()
        # The attached invariant monitor, if any (see attach_monitor).  Kept
        # as a plain reference for tests and reporting; all event dispatch
        # goes through the middleware pipelines above.
        self.monitor = None
        # Split-brain bookkeeping (repro.overlay.directory): one coordinator
        # per *active* split, keyed by the network split id, so overlapping
        # concurrent splits each keep their own per-side books.  Populated
        # only between cluster.split() and the matching cluster.merge();
        # clusters that never split carry no coordinator and stay
        # byte-identical.
        self._split_brains: Dict[int, SplitBrainCoordinator] = {}
        # One record per completed reconciliation, for the invariant
        # monitor's post-run directory-convergence check.
        self._directory_reconciliations: List[Dict[str, Any]] = []
        if antientropy is not None:
            # The repair layer taps every broadcast delivery; route it
            # through the pipeline like any other interceptor.  The tap has
            # no on_send hook, so sends run no hook at all.
            self.install_middleware(MiddlewareChain(AntiEntropyTap()))

    # ---------------------------------------------------------------- middleware

    def install_middleware(self, chain: MiddlewareChain) -> MiddlewareChain:
        """Install ``chain`` as this cluster's middleware pipeline.

        One chain per cluster: installing a second one raises
        :class:`MiddlewareError` — compose scenarios by adding middleware
        to the existing chain (:meth:`middleware_chain`) instead.  The
        chain is simultaneously installed on the network (``on_send``) and
        its compiled ``on_deliver`` pipeline distributed to every node.
        """
        if self._middleware is not None:
            raise MiddlewareError(
                "a middleware chain is already installed on this cluster; "
                "add to cluster.middleware_chain() instead of installing a "
                "second one"
            )
        self._middleware = chain
        self.network.install_middleware(chain)
        chain.subscribe(self._refresh_middleware)
        self._refresh_middleware()
        return chain

    def middleware_chain(self) -> MiddlewareChain:
        """The cluster's chain, installing an empty one on first use."""
        if self._middleware is None:
            self.install_middleware(MiddlewareChain())
        return self._middleware

    def _refresh_middleware(self) -> None:
        """(Re)compile the per-hook pipelines after a chain mutation."""
        chain = self._middleware
        if chain is None:
            return
        for middleware in chain:
            if not any(done is middleware for done in self._mw_setup_done):
                self._mw_setup_done.append(middleware)
                middleware.setup(self)
        self._view_hooks = chain.hooks("on_view_change")
        self._eviction_hooks = chain.hooks("on_eviction")
        self._node_added_hooks = chain.hooks("on_node_added")
        self._node_left_hooks = chain.hooks("on_node_left")
        self._deliver_hooks = chain.hooks("on_deliver")
        for node in self.nodes.values():
            node.set_middleware_hooks(self._deliver_hooks, chain.scenario)

    def attach_monitor(self, monitor) -> None:
        """Attach a runtime invariant monitor (``repro.faults.invariants``).

        The monitor joins the middleware chain, which feeds it node
        creation, view changes, departures, evictions and both delivery
        channels.  Attaching a second monitor raises
        :class:`MiddlewareError` — silently replacing one mid-run would
        split its observation history.
        """
        if self.monitor is not None:
            raise MiddlewareError(
                "an invariant monitor is already attached to this cluster"
            )
        self.monitor = monitor
        self.middleware_chain().add(monitor)

    # ------------------------------------------------------------- node creation

    def add_node(
        self,
        address: str,
        deliver_fn: Optional[Callable[[BroadcastMessage], None]] = None,
        forward_fn: Optional[Callable[[BroadcastMessage, str], bool]] = None,
        forward_policy: str = "flood",
    ) -> AtumNode:
        """Create (but do not yet join) a node actor attached to the network."""
        if address in self.nodes:
            return self.nodes[address]
        if isinstance(self.latency_model, WanProfile):
            self.latency_model.assign(address)
        node = AtumNode(
            sim=self.sim,
            address=address,
            params=self.params,
            network=self.network,
            registry=self.registry,
            directory=self,
            deliver_fn=deliver_fn,
            forward_fn=forward_fn,
            forward_policy=forward_policy,
            heartbeat_clock=self.heartbeat_clock,
            antientropy=self.antientropy_config,
        )
        self.nodes[address] = node
        self.network.register(node)
        chain = self._middleware
        if chain is not None:
            node.set_middleware_hooks(self._deliver_hooks, chain.scenario)
            hooks = self._node_added_hooks
            if hooks is not None:
                ctx = MiddlewareContext(
                    "on_node_added",
                    now=self.sim.now,
                    scenario=chain.scenario,
                    address=address,
                    node=node,
                )
                run_hooks(hooks, ctx)
        return node

    def node(self, address: str) -> AtumNode:
        return self.nodes[address]

    # --------------------------------------------------------------- membership

    def bootstrap(self, address: str, **node_kwargs: Any) -> AtumNode:
        """Create the system: the first node forms a single-member vgroup."""
        node = self.add_node(address, **node_kwargs)
        self.engine.bootstrap(address)
        return node

    def build_static(
        self,
        addresses: Sequence[str],
        byzantine: Iterable[str] = (),
        target_group_size: Optional[int] = None,
        **node_kwargs: Any,
    ) -> None:
        """Construct a fully grown system directly (no join replay).

        ``byzantine`` addresses are created as silent Byzantine nodes; they are
        counted in vgroup memberships (as in the paper's fault-injection
        experiments) but do not participate in any protocol.
        """
        byzantine_set = set(byzantine)
        for address in addresses:
            node = self.add_node(address, **node_kwargs)
            if address in byzantine_set:
                set_behaviour(node, "silent")
        self.engine.build_static(list(addresses), target_group_size=target_group_size)

    def join(self, address: str, contact: Optional[str] = None, **node_kwargs: Any) -> AtumNode:
        """Join a new node through a contact node (section 3.3.2)."""
        node = self.add_node(address, **node_kwargs)
        self.engine.join(address, contact_node=contact)
        return node

    def leave(self, address: str) -> None:
        """Voluntarily leave the system (section 3.3.3)."""
        self.engine.leave(address)

    def request_eviction(self, peer: str, suspected_by: str) -> None:
        """Directory hook used by heartbeat monitors to evict unresponsive peers.

        An eviction proceeds only once a *strict majority* of the suspect's
        vgroup co-members have reported it recently -- inside a vgroup the
        eviction is an SMR agreement, so a Byzantine minority cannot evict
        correct nodes by pretending not to receive their heartbeats (the
        attack of the paper's section 6.1.3).  Two details are load-bearing
        for that argument:

        * the threshold is ``len(co_members) // 2 + 1`` -- a strict majority
          of the co-members, which any per-vgroup Byzantine minority falls
          short of (``(g-1)//2 + 1 > (g-1)//2``);
        * reports expire after the heartbeat suspicion deadline, so an
          adversary cannot bank accusations forever and combine them with a
          correct node's stale report about a long-recovered transient.
        """
        if peer in self._eviction_requests:
            return
        if peer not in self.engine.node_group:
            return
        view = self.engine.group_of(peer)
        now = self.sim.now
        suspicions = self._suspicions.setdefault(peer, {})
        if suspected_by != peer:
            suspicions[suspected_by] = now
        window = self._suspicion_window
        co_members = [member for member in view.members if member != peer]
        fresh = {
            reporter
            for reporter, reported_at in suspicions.items()
            if now - reported_at <= window
        }
        reporters = sorted(fresh.intersection(co_members))
        required = len(co_members) // 2 + 1
        if len(reporters) < required:
            return
        self._eviction_requests.add(peer)
        self._suspicions.pop(peer, None)
        if self._split_brains:
            # Cross-side eviction during a split: the deciding side cannot
            # reach the target *because of the split*, not because the
            # target failed.  The conviction is recorded in the deciding
            # side's directory and enforced at merge (evicted-on-either-
            # side stays evicted) instead of dismantling overlay state the
            # other side is actively using.  With overlapping splits the
            # eviction executes only if *every* active coordinator deems it
            # same-side — each is recorded regardless (no short-circuit),
            # so every deferring split enforces the conviction at its heal.
            allowed = True
            for _, coordinator in sorted(self._split_brains.items()):
                if not coordinator.record_eviction(reporters, peer):
                    allowed = False
            if not allowed:
                return
        self._notify_eviction(peer)
        try:
            self.engine.leave(peer, eviction=True)
        except MembershipError:
            # The suspect vanished between the majority check and the leave
            # (a racing voluntary departure or a concurrent eviction path).
            # Count it — a silent pass here hid real sequencing bugs — and
            # let the address be re-requested if it somehow reappears.
            self.sim.metrics.increment("cluster.eviction_leave_failed")
            self._eviction_requests.discard(peer)

    # --------------------------------------------------------------- split brain

    def split(self, sides: Sequence[Iterable[str]]) -> int:
        """Install a side-preserving split *with* per-side membership books.

        Beyond the network-level split, this arms a
        :class:`~repro.overlay.directory.SplitBrainCoordinator`: each side
        keeps processing joins and evictions independently, cross-side
        evictions are deferred, and :meth:`merge` reconciles the sides
        deterministically at heal.  Splits compose: calling ``split``
        again while one is active installs an *overlapping* split with
        its own coordinator (the network drops a message iff any active
        split separates the endpoints), and each heal reconciles only its
        own coordinator.  Returns the network split id.
        """
        frozen = [tuple(side) for side in sides]
        split_id = self.network.split(frozen)
        self._split_brains[split_id] = SplitBrainCoordinator(self.sim, frozen)
        return split_id

    def merge(self, split_id: Optional[int] = None) -> Optional[MergeDecision]:
        """Heal a split and reconcile its per-side directories.

        The merge is deterministic: evicted-on-either-side stays evicted
        (still-member addresses in the merged eviction set are evicted
        now), and joins are re-validated against the merged view — a
        joiner convicted on the other side is revoked.  With ``split_id``
        ``None``, every active split heals (in split-id order).  Because
        enforcement only routes departures to the remaining coordinators
        — and leaves never feed a merge decision — the decisions are
        identical under every heal order.  Returns the last
        :class:`~repro.overlay.directory.MergeDecision` (``None`` when no
        coordinator was armed).
        """
        if split_id is None:
            if not self._split_brains:
                self.network.merge(None)
                return None
            decision = None
            for active_id in sorted(self._split_brains):
                decision = self._merge_one(active_id)
            return decision
        return self._merge_one(split_id)

    def _merge_one(self, split_id: int) -> Optional[MergeDecision]:
        self.network.merge(split_id)
        coordinator = self._split_brains.pop(split_id, None)
        if coordinator is None:
            return None
        decision = coordinator.merge()
        for address in sorted(decision.evicted):
            self._eviction_requests.add(address)
            if address not in self.engine.node_group:
                continue
            self._notify_eviction(address)
            try:
                self.engine.leave(address, eviction=True)
            except MembershipError:
                self.sim.metrics.increment("directory.merge_eviction_failed")
                continue
            self.sim.metrics.increment("directory.merge_evictions_enforced")
        if decision.revoked:
            self.sim.metrics.increment(
                "directory.join_revalidations_revoked", len(decision.revoked)
            )
        self._directory_reconciliations.append(
            {"sides": coordinator.side_snapshots(), "decision": decision}
        )
        return decision

    def crash(self, address: str) -> None:
        """Crash a node: it stops responding (and heartbeating) but is not yet evicted."""
        node = self.nodes.get(address)
        if node is not None:
            set_behaviour(node, "crash")

    def recover(self, address: str) -> None:
        """Recover a crashed node: it resumes correct behaviour.

        If the node is still a member (it was not evicted while down) its
        heartbeat monitor restarts; an evicted node stays outside the system
        and must re-join — under a *fresh* identity, as the membership
        invariants require.
        """
        node = self.nodes.get(address)
        if node is not None:
            set_behaviour(node, None)

    def make_byzantine(self, addresses: Iterable[str], mode: str = "silent") -> None:
        """Turn existing nodes into Byzantine nodes with the given behaviour."""
        for address in addresses:
            node = self.nodes.get(address)
            if node is not None:
                set_behaviour(node, mode)

    # ---------------------------------------------------------------- broadcast

    def broadcast(self, address: str, payload: Any, size_bytes: int = 100) -> str:
        """Broadcast from the given node; returns the broadcast id."""
        return self.nodes[address].broadcast(payload, size_bytes=size_bytes)

    def delivery_times(self, bcast_id: str) -> Dict[str, float]:
        """Delivery time per correct member node for one broadcast."""
        times: Dict[str, float] = {}
        for address, node in self.nodes.items():
            if not node.is_correct or not node.is_member:
                continue
            time = node.delivery_time(bcast_id)
            if time is not None:
                times[address] = time
        return times

    def delivery_latencies(self, bcast_id: str, started_at: float) -> List[float]:
        return [time - started_at for time in self.delivery_times(bcast_id).values()]

    def delivery_fraction(self, bcast_id: str) -> float:
        """Fraction of correct member nodes that delivered the broadcast."""
        correct_members = [
            node for node in self.nodes.values() if node.is_correct and node.is_member
        ]
        if not correct_members:
            return 0.0
        delivered = sum(1 for node in correct_members if node.has_delivered(bcast_id))
        return delivered / len(correct_members)

    # --------------------------------------------------------------------- runs

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        return self.sim.run(until=until, max_events=max_events)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> float:
        return self.sim.run(until=self.sim.now + duration, max_events=max_events)

    def run_until_membership_quiescent(
        self, max_time: float = 3600.0, check_interval: float = 5.0
    ) -> float:
        """Run until no membership operation is pending (or the horizon passes)."""
        deadline = self.sim.now + max_time
        while self.engine.pending_operations() > 0 and self.sim.now < deadline:
            self.sim.run(until=min(deadline, self.sim.now + check_interval))
        return self.sim.now

    # ----------------------------------------------------------------- directory

    def view_of_group(self, group_id: str) -> Optional[VGroupView]:
        return self.engine.groups.get(group_id)

    def smallest_group_size(self, group_id: str) -> Optional[int]:
        """Smallest size ``group_id`` was ever installed at (``None`` if unknown).

        Directory hook for the group messengers' forged-size rejection: a
        group message's claimed sender-group size may never pull the
        acceptance majority below the majority of this minimum.
        """
        return self.engine.smallest_size.get(group_id)

    def cycle_neighbor_ids(self, group_id: str) -> Sequence[Tuple[str, str]]:
        """Per H-graph cycle, the (predecessor, successor) group ids."""
        graph = self.engine.graph
        if graph is None or group_id not in graph:
            return ()
        return graph.cycle_pairs(group_id)

    def neighbour_members(self, group_id: str) -> Tuple[str, ...]:
        """Members of ``group_id``'s cycle-neighbour vgroups, in cycle order:
        the anti-entropy peers its members share, computed once per group and
        topology rather than by each member on each tick."""
        graph = self.engine.graph
        version = None if graph is None else graph.topology_version
        if version != self._neighbour_topology:
            self._neighbour_topology = version
            self._neighbour_members.clear()
        members = self._neighbour_members.get(group_id)
        if members is None:
            neighbours = dict.fromkeys(
                g for pair in self.cycle_neighbor_ids(group_id) for g in pair if g != group_id
            )
            views = (self.engine.groups.get(g) for g in neighbours)
            members = self._neighbour_members[group_id] = tuple(
                m for view in views if view is not None for m in view.members
            )
        return members

    def forward_plan(
        self, message: BroadcastMessage, source_group: str, view: VGroupView, policy: str
    ) -> ForwardPlan:
        """The plan for the vgroup of ``view`` to forward ``message``, first
        accepted from ``source_group``, under forward policy ``policy``.

        One plan per (broadcast, first source, sending view object, topology
        version, policy): the first member to forward builds it and its
        co-members read it, as they read :meth:`neighbour_members`.  A plan
        leaves the table once a plan built more than a round later retires
        it; a member that forwards after that builds it again.
        """
        graph = self.engine.graph
        version = None if graph is None else graph.topology_version
        key = (message.bcast_id, source_group, view.group_id, version, policy)
        plans = self._forward_plans
        plan = plans.get(key)
        if plan is not None and plan.view is view:
            return plan
        now = self.sim.now
        built = self._plans_built
        horizon = now - self.params.round_duration - 1e-9
        while built and built[0][0] < horizon:
            _, old_key, old = built.popleft()
            if plans.get(old_key) is old:
                del plans[old_key]
        plan = ForwardPlan(message, source_group, view, self.cycle_neighbor_ids(view.group_id), policy)
        plans[key] = plan
        built.append((now, key, plan))
        return plan

    # ------------------------------------------------------------------ queries

    @property
    def system_size(self) -> int:
        return self.engine.system_size

    @property
    def group_count(self) -> int:
        return self.engine.group_count

    def correct_member_addresses(self) -> List[str]:
        return [
            address
            for address, node in self.nodes.items()
            if node.is_correct and node.is_member
        ]

    # --------------------------------------------------------- engine callbacks

    def _notify_eviction(self, address: str) -> bool:
        """Dispatch ``on_eviction`` for ``address``, exactly once per identity.

        Every eviction decision path (heartbeat majority, merge
        enforcement) announces through here.  The durable
        ``_evictions_notified`` set deduplicates across paths: a node
        evicted same-side during a split, with its leave still in flight at
        heal, used to be re-announced by merge enforcement — observers
        counted the same identity twice.  Duplicates are suppressed (and
        counted) instead of dispatched.
        """
        if address in self._evictions_notified:
            self.sim.metrics.increment("cluster.eviction_duplicate_suppressed")
            return False
        self._evictions_notified.add(address)
        hooks = self._eviction_hooks
        if hooks is not None:
            ctx = MiddlewareContext(
                "on_eviction",
                now=self.sim.now,
                scenario=self._middleware.scenario,
                address=address,
            )
            run_hooks(hooks, ctx)
        return True

    def _on_view_changed(self, view: VGroupView) -> None:
        self._neighbour_members.clear()
        for member in view.members:
            node = self.nodes.get(member)
            if node is not None:
                node.install_view(view)
        hooks = self._view_hooks
        if hooks is not None:
            ctx = MiddlewareContext(
                "on_view_change",
                now=self.sim.now,
                scenario=self._middleware.scenario,
                view=view,
            )
            run_hooks(hooks, ctx)

    def _on_group_removed(self, group_id: str) -> None:
        # Members were re-homed before the group disappeared; nothing to do at
        # the node level.
        self._neighbour_members.clear()

    def _on_node_left(self, address: str) -> None:
        node = self.nodes.get(address)
        if node is not None:
            node.clear_membership()
        self._eviction_requests.discard(address)
        # Drop any suspicion state about the departed node, or long churn
        # runs accumulate per-suspect report dicts forever.
        self._suspicions.pop(address, None)
        hooks = self._node_left_hooks
        if hooks is not None:
            ctx = MiddlewareContext(
                "on_node_left",
                now=self.sim.now,
                scenario=self._middleware.scenario,
                address=address,
            )
            run_hooks(hooks, ctx)

    def _on_join_completed(self, address: str, group_id: str) -> None:
        view = self.engine.groups.get(group_id)
        if view is None:
            return
        for split_id, coordinator in sorted(self._split_brains.items()):
            # The join was processed by the side hosting the target group:
            # bind the joiner there (network-level too, so its traffic
            # respects the split like any physically-placed machine's).
            # Each overlapping split binds independently — the host group
            # may straddle one split while sitting inside one side of
            # another.
            sides = [
                s
                for s in (
                    coordinator.side_of(m) for m in sorted(view.members) if m != address
                )
                if s is not None
            ]
            host_side = None
            if sides:
                host_side = max(sorted(set(sides)), key=sides.count)
            bound = coordinator.record_join(address, host_side)
            if bound is not None:
                self.network.bind_to_split(split_id, address, bound)


__all__ = ["AtumCluster"]
