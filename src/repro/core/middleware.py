"""Ordered middleware chains for the message path and membership events.

Fault injection, invariant monitoring, anti-entropy repair and metrics each
used to hand-wire their own hook into a different layer: the network carried
a ``_fault_injector`` attribute, every node a ``delivery_observer`` slot,
every messenger an ``accept_audit`` callable, and the cluster a scatter of
``self.monitor is not None`` guards.  Each wiring point had its own install
semantics (and its own bugs — silent replacement on double install, observers
dropped when ``deliver_fn`` was reassigned).

This module replaces all of them with one interposition pipeline in the
style of FastMCP's ``MiddlewareContext``: a :class:`MiddlewareChain` of
:class:`Middleware` objects is composed declaratively per scenario and
installed **once** on the cluster, which distributes the compiled per-hook
pipelines to the layers that dispatch them:

=================  ========================================================
``on_send``        :class:`repro.net.network.Network`, once per routed
                   message; the context carries a mutable fault verdict
                   (``drop`` / ``extra_delay`` / ``copies`` / ``corrupted``)
``on_deliver``     :class:`repro.core.node.AtumNode` for broadcast
                   deliveries (``channel == "broadcast"``) and
                   :class:`repro.group.messages.GroupMessenger` for accepted
                   group messages (``channel == "group"``)
``on_view_change``  :class:`repro.core.cluster.AtumCluster`, once per
                   installed vgroup view
``on_eviction``    the cluster, exactly once per evicted identity
``on_node_added``  the cluster, when a node actor is created
``on_node_left``   the cluster, when a node actually leaves the system
=================  ========================================================

Determinism contract: an **empty chain compiles to ``None`` pipelines
everywhere**, so uninstrumented runs build no context (one ``is not None``
check per message sent) and stay byte-identical to builds without this
module.  Middleware that only observes (the invariant monitor, metric
taps) must draw no randomness and schedule no events; middleware that
perturbs (the link-fault injector) owns a dedicated RNG stream so the
network's draw sequence is untouched.

Chain semantics:

* middleware run in insertion order; a hook may set ``ctx.stop = True`` to
  short-circuit the remaining middleware for that event;
* ``on_send`` middleware may additionally set ``ctx.drop = True`` to drop
  the message outright (accounted as ``net.messages_lost``);
* adding the same middleware instance twice, or installing a second chain
  (or a second monitor) over an existing one, raises
  :class:`MiddlewareError` instead of silently replacing — a scenario
  wiring bug must be loud;
* exceptions raised by a hook propagate to the event's dispatch site; the
  pipeline never swallows them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Set, Tuple

#: Hook methods a middleware may override (see :class:`Middleware`).
HOOK_NAMES = (
    "on_send",
    "on_deliver",
    "on_view_change",
    "on_eviction",
    "on_node_added",
    "on_node_left",
)


class MiddlewareError(RuntimeError):
    """A middleware wiring error (double install, duplicate add)."""


class MiddlewareContext:
    """The slotted context handed to every hook of a chain.

    One class serves all hooks; fields that do not apply to the current
    ``hook`` keep their defaults.  The ``on_send`` verdict fields
    (``drop``/``extra_delay``/``copies``/``corrupted``) start at the
    no-perturbation values, so a chain that touches nothing is
    byte-identical to no chain at all.

    Lifetime: a context is valid only for the duration of the hook call.
    The network reuses **one** ``on_send`` context for all the messages of a
    burst (:meth:`repro.net.network.Network.send_many`), resetting
    ``receiver``, ``payload`` and the verdict fields before each one; a hook
    that wants to remember something copies the fields out (lint rule
    ``ATL010``).
    """

    __slots__ = (
        "hook",
        "channel",
        "scenario",
        "now",
        "sender",
        "receiver",
        "address",
        "payload",
        "size_bytes",
        "node",
        "view",
        "senders",
        "drop",
        "extra_delay",
        "copies",
        "corrupted",
        "stop",
    )

    def __init__(
        self,
        hook: str,
        now: float = 0.0,
        scenario: str = "",
        channel: str = "",
        sender: str = "",
        receiver: str = "",
        address: str = "",
        payload: Any = None,
        size_bytes: int = 0,
        node: Any = None,
        view: Any = None,
        senders: Optional[Set[str]] = None,
    ) -> None:
        self.hook = hook
        self.channel = channel
        self.scenario = scenario
        self.now = now
        self.sender = sender
        self.receiver = receiver
        self.address = address
        self.payload = payload
        self.size_bytes = size_bytes
        self.node = node
        self.view = view
        self.senders = senders
        # on_send verdict (mutable): defaults mean "deliver unperturbed".
        self.drop = False
        self.extra_delay = 0.0
        self.copies = 1
        self.corrupted = False
        # Set by a hook to short-circuit the rest of the chain.
        self.stop = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MiddlewareContext({self.hook!r}, channel={self.channel!r}, "
            f"t={self.now:.3f}, {self.sender!r}->{self.receiver!r})"
        )


class Middleware:
    """Base class: every hook is a no-op; override the ones you observe.

    Only *overridden* hooks enter a chain's compiled pipelines (detected by
    method identity against this base class), so a middleware pays nothing
    for the hooks it ignores.  :meth:`setup` runs once when the chain is
    installed on a cluster (or when the middleware is added to an
    already-installed chain).
    """

    def setup(self, cluster) -> None:
        """Called once when the hosting chain is installed on ``cluster``."""

    def on_send(self, ctx: MiddlewareContext) -> None:
        """One message entering the network's routing pipeline."""

    def on_deliver(self, ctx: MiddlewareContext) -> None:
        """A broadcast delivery (``channel=='broadcast'``, ``ctx.node`` set)
        or an accepted group message (``channel=='group'``, ``ctx.senders``
        set)."""

    def on_view_change(self, ctx: MiddlewareContext) -> None:
        """A vgroup view was installed (``ctx.view``)."""

    def on_eviction(self, ctx: MiddlewareContext) -> None:
        """An eviction was decided against ``ctx.address`` (exactly once
        per evicted identity)."""

    def on_node_added(self, ctx: MiddlewareContext) -> None:
        """A node actor was created (``ctx.node``, ``ctx.address``)."""

    def on_node_left(self, ctx: MiddlewareContext) -> None:
        """A node actually left the system (``ctx.address``)."""


def overrides_hook(middleware: Middleware, name: str) -> bool:
    """Whether ``middleware`` overrides the base no-op hook ``name``.

    Class-level overrides are detected by method identity; an instance may
    also opt into a hook by binding a callable under the hook's name.
    """
    if name in getattr(middleware, "__dict__", {}):
        return True
    return getattr(type(middleware), name, None) is not getattr(Middleware, name)


def run_hooks(hooks: Tuple[Callable[[MiddlewareContext], None], ...], ctx: MiddlewareContext) -> None:
    """Dispatch ``ctx`` through a compiled pipeline, honouring ``ctx.stop``."""
    for hook in hooks:
        hook(ctx)
        if ctx.stop:
            return


class MiddlewareChain:
    """An ordered, grow-only collection of middleware.

    The chain itself holds no wiring; installers (the cluster, the network)
    compile the per-hook pipelines they dispatch via :meth:`hooks` and
    subscribe to :meth:`subscribe` so a late :meth:`add` — a fault plan
    installing its injector after the monitor was attached — recompiles
    them.  A hook with no participating middleware compiles to ``None``,
    which is the installers' "no pipeline" fast-path sentinel.
    """

    __slots__ = ("scenario", "_middleware", "_listeners")

    def __init__(self, *middleware: Middleware, scenario: str = "") -> None:
        self.scenario = scenario
        self._middleware: List[Middleware] = []
        self._listeners: List[Callable[[], None]] = []
        for entry in middleware:
            self.add(entry)

    def add(self, middleware: Middleware) -> Middleware:
        """Append ``middleware``; adding the same instance twice is an error."""
        if any(existing is middleware for existing in self._middleware):
            raise MiddlewareError(
                f"middleware {middleware!r} is already in the chain; "
                f"double-install would have been a silent no-op bug"
            )
        self._middleware.append(middleware)
        for listener in self._listeners:
            listener()
        return middleware

    def hooks(
        self, name: str
    ) -> Optional[Tuple[Callable[[MiddlewareContext], None], ...]]:
        """The compiled pipeline for hook ``name`` (``None`` when empty)."""
        bound = tuple(
            getattr(middleware, name)
            for middleware in self._middleware
            if overrides_hook(middleware, name)
        )
        return bound or None

    def subscribe(self, listener: Callable[[], None]) -> None:
        """Register a recompile callback, invoked after every :meth:`add`."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def __iter__(self) -> Iterator[Middleware]:
        return iter(self._middleware)


class MetricsTap(Middleware):
    """Per-hook pipeline counters (the metrics-counter interceptor).

    Counts every event flowing through the pipeline under ``mw.*`` counter
    names.  Observation only: no RNG draws, no scheduled events, so an
    installed tap never changes a run's trace — fault-matrix scenarios
    install it alongside the invariant monitor.  It has no ``on_send``
    hook, so a run whose chain carries no other ``on_send`` middleware
    keeps the network's fast path.
    """

    def __init__(self) -> None:
        self.counters = None

    def setup(self, cluster) -> None:
        self.counters = cluster.sim.metrics.counters

    def on_deliver(self, ctx: MiddlewareContext) -> None:
        if self.counters is not None:
            self.counters["mw.delivers"] += 1.0

    def on_view_change(self, ctx: MiddlewareContext) -> None:
        if self.counters is not None:
            self.counters["mw.view_changes"] += 1.0

    def on_eviction(self, ctx: MiddlewareContext) -> None:
        if self.counters is not None:
            self.counters["mw.evictions"] += 1.0

    def on_node_added(self, ctx: MiddlewareContext) -> None:
        if self.counters is not None:
            self.counters["mw.nodes_added"] += 1.0

    def on_node_left(self, ctx: MiddlewareContext) -> None:
        if self.counters is not None:
            self.counters["mw.nodes_left"] += 1.0


__all__ = [
    "HOOK_NAMES",
    "Middleware",
    "MiddlewareChain",
    "MiddlewareContext",
    "MiddlewareError",
    "MetricsTap",
    "overrides_hook",
    "run_hooks",
]
