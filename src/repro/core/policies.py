"""Self-tuning Atum: adaptive-parameter policies as middleware.

The paper deploys Atum with parameters fixed per deployment (Table 1):
``gmin``/``gmax``, the gossip fanout, the heartbeat period and the
anti-entropy cadence are chosen once for an expected system size and never
revisited.  Following "Towards Adaptable and Adaptive Policy-Free
Middleware" (PAPERS.md), this module separates those *policies* from the
*mechanisms* underneath them: a :class:`PolicyMiddleware` observes the
running system through the ordinary middleware hooks (churn through
``on_node_added``/``on_node_left``, suspicion volume through
``on_eviction``, delivery latency through ``on_deliver``, a cadence
through ``on_timer``) over rolling windows, and adapts parameters at
runtime.

Two rules keep adaptation safe:

* **All changes flow through the :class:`ParameterBus`** — never raw config
  mutation.  The bus owns per-parameter bounds, a rate limit, a hysteresis
  band (minimum step), an oscillation guard (no quick direction reversals)
  and the ``gmin``/``gmax`` coupling rules, and it records every accepted
  transition under the ``policy.*`` metric names.  Parameters whose values
  are snapshotted at construction time by some layer (the per-replica
  ``SmrConfig``, anti-entropy's ``repair_min_age``, the request-policy
  thresholds) are *adaptation-immutable*: proposing them raises instead of
  silently desynchronising the snapshots.
* **Invariants hold during adaptation, not just at fixed points.**  The
  appliers keep every derived quantity coherent in the same event: a
  ``gmin``/``gmax`` change immediately re-balances out-of-bounds vgroups
  (:meth:`~repro.overlay.membership.MembershipEngine.enforce_bounds`), a
  heartbeat-period change updates the shared ``AtumParameters`` (future
  joiners), every running monitor (next-tick adoption, see
  :meth:`~repro.group.heartbeat.HeartbeatMonitor.set_period`) *and* the
  cluster's suspicion-report aging window together, so the eviction
  majority argument never sees a torn configuration.

Determinism: a policy whose ``enabled`` flag is False arms no timer and
records nothing, so disabled-policy runs stay byte-identical to runs
without this module.  Enabled policies draw no randomness — adaptation is
a deterministic function of the observed (seeded) run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isfinite
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.middleware import Middleware, MiddlewareContext

#: Parameters that some layer snapshots at construction time and that no
#: reconfiguration protocol covers.  The bus refuses to manage them
#: (see ParameterBus.propose); the audit trail for each lives with the
#: snapshot site:
#:
#: * ``round_duration``/``request_timeout``/``checkpoint_interval`` —
#:   snapshotted per replica by
#:   :meth:`repro.core.config.AtumParameters.smr_config`; co-members must
#:   agree on round/view arithmetic.
#: * ``repair_min_age`` and the other anti-entropy knobs — the shared
#:   :class:`~repro.group.antientropy.AntiEntropyConfig` is frozen; only
#:   the cadence has a runtime override (``set_period``).
#: * ``pull_timeout``/``pull_attempts`` (request-policy thresholds) —
#:   snapshotted into each :class:`~repro.net.requests.RequestPolicy`;
#:   in-flight request envelopes carry correlated deadlines.
#: * ``misses_before_eviction`` — policies adapt the heartbeat *period*
#:   only, so the suspicion deadline scales with the send cadence.
#: * ``hc``/``rwl``/``k``/``smr_kind``/``expected_system_size`` — overlay
#:   topology and engine choice; changing them means rebuilding the
#:   H-graph, not tuning a knob.
ADAPTATION_IMMUTABLE = frozenset(
    {
        "round_duration",
        "request_timeout",
        "checkpoint_interval",
        "repair_min_age",
        "pull_timeout",
        "pull_attempts",
        "misses_before_eviction",
        "hc",
        "rwl",
        "k",
        "smr_kind",
        "expected_system_size",
    }
)


class PolicyError(ValueError):
    """A parameter proposal that is a wiring bug, not a runtime condition."""


@dataclass(frozen=True, slots=True)
class ParameterSpec:
    """Validation and damping rules for one bus-managed parameter.

    Attributes:
        lower/upper: Hard bounds; proposals outside are rejected
            (``policy.rejected_bounds``).
        min_interval: Minimum simulated seconds between accepted
            transitions of this parameter (``policy.rejected_rate``).
        min_step: Hysteresis band — proposals closer than this to the
            current value are rejected (``policy.rejected_step``), which
            also swallows no-op proposals.
        oscillation_window: A transition reversing the direction of the
            previous one within this many seconds is rejected
            (``policy.rejected_oscillation``); damping must come from the
            policy's own thresholds, not from the bus flip-flopping.
        integral: Whether values are coerced to ``int`` before applying.
    """

    lower: float
    upper: float
    min_interval: float
    min_step: float
    oscillation_window: float
    integral: bool = False


@dataclass(frozen=True, slots=True)
class ParameterTransition:
    """One accepted transition, kept in the bus history for reporting."""

    time: float
    name: str
    old: float
    new: float
    reason: str


class ParameterBus:
    """The single validated path for runtime parameter changes.

    One bus per cluster (see :meth:`repro.core.cluster.AtumCluster.
    parameter_bus`).  Policies call :meth:`propose`; the bus validates,
    damps, applies — keeping every derived quantity coherent — and records
    the transition.  Raw mutation of ``AtumParameters`` mid-run is exactly
    what this class exists to replace.

    Managed parameters: ``gmin``, ``gmax``, ``gossip_fanout``,
    ``heartbeat_period`` and (when the cluster runs the anti-entropy
    layer) ``antientropy_period``.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        params = cluster.params
        self._metrics = cluster.sim.metrics
        hb_misses = params.heartbeat_config().misses_before_eviction
        self._hb_misses = hb_misses
        self.history: List[ParameterTransition] = []
        self._current: Dict[str, float] = {
            "gmin": float(params.gmin),
            "gmax": float(params.gmax),
            "gossip_fanout": float(
                params.gossip_fanout if params.gossip_fanout is not None else params.hc
            ),
            "heartbeat_period": float(params.heartbeat_period),
        }
        self._specs: Dict[str, ParameterSpec] = {
            "gmin": ParameterSpec(
                lower=2,
                upper=max(4.0, params.gmin * 4.0),
                min_interval=5.0,
                min_step=1,
                oscillation_window=15.0,
                integral=True,
            ),
            "gmax": ParameterSpec(
                lower=3,
                upper=max(6.0, params.gmax * 4.0),
                min_interval=5.0,
                min_step=1,
                oscillation_window=15.0,
                integral=True,
            ),
            "gossip_fanout": ParameterSpec(
                lower=1,
                upper=params.hc,
                min_interval=5.0,
                min_step=1,
                oscillation_window=15.0,
                integral=True,
            ),
            "heartbeat_period": ParameterSpec(
                lower=params.heartbeat_period / 4.0,
                upper=params.heartbeat_period * 4.0,
                min_interval=5.0,
                min_step=params.heartbeat_period * 0.1,
                oscillation_window=15.0,
            ),
        }
        ae_config = cluster.antientropy_config
        if ae_config is not None:
            self._current["antientropy_period"] = float(ae_config.period)
            self._specs["antientropy_period"] = ParameterSpec(
                lower=ae_config.period / 4.0,
                upper=ae_config.period * 4.0,
                min_interval=5.0,
                min_step=ae_config.period * 0.1,
                oscillation_window=15.0,
            )
        self._appliers: Dict[str, Callable[[float], None]] = {
            "gmin": self._apply_gmin,
            "gmax": self._apply_gmax,
            "gossip_fanout": self._apply_gossip_fanout,
            "heartbeat_period": self._apply_heartbeat_period,
            "antientropy_period": self._apply_antientropy_period,
        }
        self._last_change: Dict[str, float] = {}
        self._last_direction: Dict[str, int] = {}

    # ------------------------------------------------------------------ queries

    def manages(self, name: str) -> bool:
        return name in self._specs

    def current(self, name: str) -> float:
        return self._current[name]

    def spec(self, name: str) -> ParameterSpec:
        return self._specs[name]

    def transitions(self) -> int:
        return len(self.history)

    # ----------------------------------------------------------------- proposal

    def propose(self, name: str, value: float, reason: str = "") -> bool:
        """Propose setting ``name`` to ``value``; returns acceptance.

        Runtime conditions (bounds, rate, hysteresis, oscillation,
        coupling) reject with ``False`` and a ``policy.rejected_*``
        counter; wiring bugs (an unmanaged or adaptation-immutable
        parameter) raise :class:`PolicyError`.
        """
        metrics = self._metrics
        if name in ADAPTATION_IMMUTABLE:
            metrics.increment("policy.rejected_immutable")
            raise PolicyError(
                f"parameter {name!r} is adaptation-immutable: a layer "
                f"snapshots it at construction time (see "
                f"repro.core.policies.ADAPTATION_IMMUTABLE)"
            )
        spec = self._specs.get(name)
        if spec is None:
            raise PolicyError(f"parameter {name!r} is not managed by the bus")
        metrics.increment("policy.proposals")
        value = float(value)
        if spec.integral and isfinite(value):
            value = float(int(value))
        # NaN and the infinities fall through to here and fail the bounds.
        if not (spec.lower <= value <= spec.upper):
            metrics.increment("policy.rejected_bounds")
            return False
        if not self._coupling_ok(name, value):
            metrics.increment("policy.rejected_coupling")
            return False
        current = self._current[name]
        if abs(value - current) < spec.min_step:
            metrics.increment("policy.rejected_step")
            return False
        now = self.cluster.sim.now
        last = self._last_change.get(name)
        if last is not None and now - last < spec.min_interval:
            metrics.increment("policy.rejected_rate")
            return False
        direction = 1 if value > current else -1
        if (
            last is not None
            and direction == -self._last_direction.get(name, 0)
            and now - last < spec.oscillation_window
        ):
            metrics.increment("policy.rejected_oscillation")
            return False
        self._appliers[name](value)
        self._current[name] = value
        self._last_change[name] = now
        self._last_direction[name] = direction
        self.history.append(
            ParameterTransition(time=now, name=name, old=current, new=value, reason=reason)
        )
        metrics.increment("policy.transitions")
        metrics.observe("policy.transition_step", abs(value - current))
        # Literal names per parameter: atumlint's metric scan (ATL006) only
        # sees string literals, and the per-parameter trajectory histograms
        # are the A/B evidence the matrix rows cite.
        if name == "gmin":
            metrics.observe("policy.gmin", value)
        elif name == "gmax":
            metrics.observe("policy.gmax", value)
        elif name == "gossip_fanout":
            metrics.observe("policy.gossip_fanout", value)
        elif name == "heartbeat_period":
            metrics.observe("policy.heartbeat_period", value)
        elif name == "antientropy_period":
            metrics.observe("policy.antientropy_period", value)
        return True

    def _coupling_ok(self, name: str, value: float) -> bool:
        """The ``gmin``/``gmax`` coupling rules.

        Beyond ``gmin <= gmax``, keep ``2*gmin <= gmax + 1``: an
        undersized vgroup merges into a neighbour and the merged group
        splits into halves of at least ``floor((gmax+1)/2)``, so this is
        what guarantees a merge-then-split lands back inside the bounds.
        Policies move the bounds through transient states (widen ``gmax``
        before ``gmin``, narrow ``gmin`` before ``gmax``), which these
        rules admit.
        """
        if name == "gmin":
            gmax = self._current["gmax"]
            return value <= gmax and 2 * value <= gmax + 1
        if name == "gmax":
            gmin = self._current["gmin"]
            return value >= gmin and value >= 2 * gmin - 1
        return True

    # ----------------------------------------------------------------- appliers

    def _apply_gmin(self, value: float) -> None:
        gmin = int(value)
        self.cluster.params.gmin = gmin
        self.cluster.engine.config.gmin = gmin
        self.cluster.engine.enforce_bounds()

    def _apply_gmax(self, value: float) -> None:
        gmax = int(value)
        self.cluster.params.gmax = gmax
        self.cluster.engine.config.gmax = gmax
        self.cluster.engine.enforce_bounds()

    def _apply_gossip_fanout(self, value: float) -> None:
        fanout = int(value)
        # hc cycles is "no cap": store None so the flood fast path stays on.
        self.cluster.params.gossip_fanout = (
            None if fanout >= self.cluster.params.hc else fanout
        )

    def _apply_heartbeat_period(self, value: float) -> None:
        cluster = self.cluster
        # Shared params: future joiners' monitors are built on the new
        # period (heartbeat_config() snapshots per node, at creation).
        cluster.params.heartbeat_period = value
        # The eviction-majority argument needs the cluster's report-aging
        # window to track the monitors' suspicion deadline.
        cluster._suspicion_window = value * self._hb_misses
        # Running monitors adopt at their next tick (never mid-tick).
        for _, node in sorted(cluster.nodes.items()):
            if node.heartbeats is not None:
                node.heartbeats.set_period(value)

    def _apply_antientropy_period(self, value: float) -> None:
        for _, node in sorted(self.cluster.nodes.items()):
            if node.antientropy is not None:
                node.antientropy.set_period(value)

    def apply_to_node(self, node) -> None:
        """Carry active overrides onto a node created after a transition.

        ``gmin``/``gmax``/``gossip_fanout``/``heartbeat_period`` reach new
        nodes through the shared ``AtumParameters``; only the per-repairer
        anti-entropy override needs explicit re-application.
        """
        period = self._current.get("antientropy_period")
        if (
            period is not None
            and node.antientropy is not None
            and period != self.cluster.antientropy_config.period
        ):
            node.antientropy.set_period(period)


class PolicyMiddleware(Middleware):
    """Base class for adaptive policies: rolling-window observation.

    Subclasses implement :meth:`evaluate`, called every ``period``
    simulated seconds with pruned windows, and adapt exclusively through
    ``self.bus`` (the cluster's :class:`ParameterBus`, bound in
    :meth:`setup`).

    ``enabled=False`` arms no timer and records nothing — the instance is
    inert and the run stays byte-identical to one without it (the
    byte-identity tests rely on this).
    """

    def __init__(
        self, period: float = 2.0, window: float = 10.0, enabled: bool = True
    ) -> None:
        self.timer_period = period if enabled else None
        self.window = window
        self.enabled = enabled
        self.cluster = None
        self.bus: Optional[ParameterBus] = None
        self._joins: Deque[float] = deque()
        self._leaves: Deque[float] = deque()
        self._evictions: Deque[float] = deque()
        self._latencies: Deque[Tuple[float, float]] = deque()

    def setup(self, cluster) -> None:
        self.cluster = cluster
        if self.enabled:
            self.bus = cluster.parameter_bus()

    # -------------------------------------------------------------- observation

    def on_node_added(self, ctx: MiddlewareContext) -> None:
        if self.enabled:
            self._joins.append(ctx.now)

    def on_node_left(self, ctx: MiddlewareContext) -> None:
        if self.enabled:
            self._leaves.append(ctx.now)

    def on_eviction(self, ctx: MiddlewareContext) -> None:
        if self.enabled:
            self._evictions.append(ctx.now)

    def on_deliver(self, ctx: MiddlewareContext) -> None:
        if not self.enabled or ctx.channel != "broadcast":
            return
        created = getattr(ctx.payload, "created_at", None)
        if created is not None:
            self._latencies.append((ctx.now, ctx.now - created))

    def on_timer(self, ctx: MiddlewareContext) -> None:
        self._prune(ctx.now)
        self.evaluate(ctx.now)

    def _prune(self, now: float) -> None:
        horizon = now - self.window
        for window in (self._joins, self._leaves, self._evictions):
            while window and window[0] < horizon:
                window.popleft()
        while self._latencies and self._latencies[0][0] < horizon:
            self._latencies.popleft()

    # ------------------------------------------------------------------ signals

    def churn_rate(self) -> float:
        """Joins + leaves in the window, scaled to events per minute."""
        return (len(self._joins) + len(self._leaves)) * 60.0 / self.window

    def eviction_count(self) -> int:
        return len(self._evictions)

    def delivery_rate(self) -> float:
        """Broadcast deliveries per second over the window."""
        return len(self._latencies) / self.window

    def mean_delivery_latency(self) -> Optional[float]:
        if not self._latencies:
            return None
        return sum(latency for _, latency in self._latencies) / len(self._latencies)

    def evaluate(self, now: float) -> None:
        """Inspect the windows and propose transitions (subclass hook)."""
        raise NotImplementedError


class AdaptiveGroupSize(PolicyMiddleware):
    """Widen ``gmin``/``gmax`` under rising churn, narrow when quiet.

    Larger vgroups ride out membership turbulence with fewer splits and
    merges (and a higher per-group fault threshold); smaller vgroups keep
    agreement cheap when the system is calm.  Bound ordering keeps the
    coupling rules satisfied at every step: widening raises ``gmax``
    before ``gmin``, narrowing lowers ``gmin`` before ``gmax``, with
    ``gmin = gmax // 2`` (the paper's default ratio) as the steady state.
    """

    def __init__(
        self,
        high_churn: float = 6.0,
        low_churn: float = 1.0,
        step: int = 2,
        max_widen: float = 2.0,
        period: float = 2.0,
        window: float = 10.0,
        enabled: bool = True,
    ) -> None:
        super().__init__(period=period, window=window, enabled=enabled)
        self.high_churn = high_churn
        self.low_churn = low_churn
        self.step = step
        self.max_widen = max_widen
        self._base_gmax = 0

    def setup(self, cluster) -> None:
        super().setup(cluster)
        self._base_gmax = cluster.params.gmax

    def evaluate(self, now: float) -> None:
        rate = self.churn_rate()
        bus = self.bus
        gmax = int(bus.current("gmax"))
        gmin = int(bus.current("gmin"))
        ceiling = int(self._base_gmax * self.max_widen)
        if rate >= self.high_churn and gmax < ceiling:
            target = min(ceiling, gmax + self.step)
            bus.propose("gmax", target, reason=f"churn {rate:.1f}/min")
            desired = max(2, int(bus.current("gmax")) // 2)
            if desired > gmin:
                bus.propose("gmin", desired, reason="track gmax")
        elif rate <= self.low_churn and gmax > self._base_gmax:
            target = max(self._base_gmax, gmax - self.step)
            desired = max(2, target // 2)
            if desired < gmin:
                bus.propose("gmin", desired, reason="quiet")
            bus.propose("gmax", target, reason=f"churn {rate:.1f}/min")


class AdaptiveHeartbeat(PolicyMiddleware):
    """Stretch the heartbeat period with observed loss, shrink when calm.

    Evictions inside the window are the loss signal: wrongful suspicion
    under turbulence (reconfigurations delaying heartbeats) is exactly
    what the paper's coarse one-minute period guards against, so the
    policy stretches the period — and with it the suspicion deadline,
    which the bus keeps coherent with ``heartbeat_config()`` and the
    cluster's report-aging window — while churn or evictions are high,
    and relaxes back toward the deployment baseline when quiet.
    """

    def __init__(
        self,
        eviction_threshold: int = 1,
        churn_threshold: float = 6.0,
        stretch: float = 1.5,
        max_stretch: float = 4.0,
        period: float = 2.0,
        window: float = 10.0,
        enabled: bool = True,
    ) -> None:
        super().__init__(period=period, window=window, enabled=enabled)
        self.eviction_threshold = eviction_threshold
        self.churn_threshold = churn_threshold
        self.stretch = stretch
        self.max_stretch = max_stretch
        self._base_period = 0.0

    def setup(self, cluster) -> None:
        super().setup(cluster)
        self._base_period = cluster.params.heartbeat_period

    def evaluate(self, now: float) -> None:
        bus = self.bus
        current = bus.current("heartbeat_period")
        ceiling = self._base_period * self.max_stretch
        stressed = (
            self.eviction_count() >= self.eviction_threshold
            or self.churn_rate() >= self.churn_threshold
        )
        if stressed and current < ceiling:
            target = min(ceiling, current * self.stretch)
            bus.propose("heartbeat_period", target, reason="suspicion pressure")
        elif not stressed and current > self._base_period:
            target = max(self._base_period, current / self.stretch)
            bus.propose("heartbeat_period", target, reason="calm")


class AdaptiveGossip(PolicyMiddleware):
    """Throttle the flood fanout under delivery load, restore when light.

    Under heavy broadcast load every delivered message is forwarded on all
    ``hc`` cycles; capping the fanout (deterministically per broadcast id,
    so co-members stay aligned) sheds redundant traffic at the cost of
    dissemination slack, which the H-graph's remaining cycles absorb.
    """

    def __init__(
        self,
        high_load: float = 4.0,
        low_load: float = 1.0,
        min_fanout: int = 2,
        period: float = 2.0,
        window: float = 10.0,
        enabled: bool = True,
    ) -> None:
        super().__init__(period=period, window=window, enabled=enabled)
        self.high_load = high_load
        self.low_load = low_load
        self.min_fanout = min_fanout
        self._max_fanout = 0

    def setup(self, cluster) -> None:
        super().setup(cluster)
        self._max_fanout = cluster.params.hc

    def evaluate(self, now: float) -> None:
        load = self.delivery_rate()
        bus = self.bus
        fanout = int(bus.current("gossip_fanout"))
        if load >= self.high_load and fanout > self.min_fanout:
            bus.propose("gossip_fanout", fanout - 1, reason=f"load {load:.1f}/s")
        elif load <= self.low_load and fanout < self._max_fanout:
            bus.propose("gossip_fanout", fanout + 1, reason=f"load {load:.1f}/s")


class AdaptiveAntiEntropy(PolicyMiddleware):
    """Repair cadence follows the measured delivery deficit.

    The deficit signal is anti-entropy's own repair activity
    (``ae.requests_sent`` deltas between evaluations): pulls in flight
    mean peers are missing broadcasts, so the policy tightens the repair
    period; a dry spell relaxes it back toward the configured baseline.
    Inert on clusters without the anti-entropy layer.
    """

    def __init__(
        self,
        high_pulls: float = 1.0,
        tighten: float = 0.75,
        period: float = 2.0,
        window: float = 10.0,
        enabled: bool = True,
    ) -> None:
        super().__init__(period=period, window=window, enabled=enabled)
        self.high_pulls = high_pulls
        self.tighten = tighten
        self._base_period = 0.0
        self._last_pulls = 0.0

    def setup(self, cluster) -> None:
        super().setup(cluster)
        if cluster.antientropy_config is not None:
            self._base_period = cluster.antientropy_config.period

    def evaluate(self, now: float) -> None:
        bus = self.bus
        if not bus.manages("antientropy_period"):
            return
        pulls = self.cluster.sim.metrics.counter("ae.requests_sent")
        delta = pulls - self._last_pulls
        self._last_pulls = pulls
        rate = delta / self.timer_period
        current = bus.current("antientropy_period")
        floor = bus.spec("antientropy_period").lower
        if rate >= self.high_pulls and current > floor:
            target = max(floor, current * self.tighten)
            bus.propose("antientropy_period", target, reason=f"pulls {rate:.1f}/s")
        elif rate == 0 and current < self._base_period:
            target = min(self._base_period, current / self.tighten)
            bus.propose("antientropy_period", target, reason="no deficit")


#: Scenario-facing registry: fault-matrix rows name policies by key
#: (``Scenario.policies``), and run_scenario instantiates them here so
#: the A/B rows stay declarative.
POLICY_BUILDERS: Dict[str, Callable[[], PolicyMiddleware]] = {
    "group_size": AdaptiveGroupSize,
    "heartbeat": AdaptiveHeartbeat,
    "gossip": AdaptiveGossip,
    "antientropy": AdaptiveAntiEntropy,
}


__all__ = [
    "ADAPTATION_IMMUTABLE",
    "AdaptiveAntiEntropy",
    "AdaptiveGossip",
    "AdaptiveGroupSize",
    "AdaptiveHeartbeat",
    "POLICY_BUILDERS",
    "ParameterBus",
    "ParameterSpec",
    "ParameterTransition",
    "PolicyError",
    "PolicyMiddleware",
]
