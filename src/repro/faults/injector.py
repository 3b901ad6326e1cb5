"""Network-level fault injection: per-link loss, duplication and delay spikes.

The injector is an ``on_send`` middleware (see :mod:`repro.core.middleware`)
consulted once per routed message.  It owns a dedicated RNG stream
(``faults.network``) derived from the simulation seed, so fault draws are
deterministic and never perturb the network's own randomness (send-order
shuffles and latency samples keep their exact draw sequence).

Rules that do not match a message's link or time window draw nothing, which
keeps runs with inactive windows deterministic regardless of how much
traffic flows outside them.

A burst (one ``Network.send_many`` call) has one sender and one clock reading,
so which rules' window and ``src`` pattern hold is decided once per
``(ctx.now, ctx.sender)`` and kept until a message arrives with another pair
(the next burst, or a send some hook made in the middle of this one).  Per
message only the ``dst`` test, the draws, the counters and the verdict remain.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.middleware import Middleware, MiddlewareChain, MiddlewareContext
from repro.faults.plan import LinkFault
from repro.net.network import Network
from repro.sim.simulator import Simulator


class LinkFaultInjector(Middleware):
    """Evaluates :class:`~repro.faults.plan.LinkFault` rules per message.

    The network's ``on_send`` pipeline invokes :meth:`on_send` for every
    message it routes while the hosting chain is installed; the verdict says
    whether to drop the message, how much extra propagation delay to add,
    how many copies to deliver and whether to deliver it bit-flipped.
    """

    def __init__(self, sim: Simulator, links: Sequence[LinkFault]) -> None:
        self.links: Tuple[LinkFault, ...] = tuple(links)
        self._random = sim.rng.stream("faults.network").random
        self._counters = sim.metrics.counters
        # The rules selected for the burst in progress, as plain tuples: a
        # pure function of the pair (``links`` holds frozen dataclasses).
        self._burst_now: Optional[float] = None
        self._burst_sender: Optional[str] = None
        self._active: List[tuple] = []

    def on_send(self, ctx: MiddlewareContext) -> None:
        """Write the rule verdict for one routed message onto its context.

        All matching rules compose: loss draws are independent per rule (the
        first that fires drops the message and ends the chain), delays add
        up, duplication contributes one extra copy per matching rule that
        fires, and any firing corruption draw marks the message (the network
        delivers it bit-flipped for the receiver to detect and discard).
        Draw order per matching rule: loss, jitter, duplicate, corrupt.
        """
        now = ctx.now
        sender = ctx.sender
        if now != self._burst_now or sender != self._burst_sender:
            self._burst_now = now
            self._burst_sender = sender
            self._active = [
                (r.dst, r.loss, r.extra_delay, r.jitter, r.duplicate, r.corrupt)
                for r in self.links
                if r.start <= now < r.stop and r.src in (None, sender)
            ]
        active = self._active
        if not active:
            return
        receiver = ctx.receiver
        random = self._random
        counters = self._counters
        extra_delay = 0.0
        copies = 0
        corrupted = False
        for dst, loss, delay, jitter, duplicate, corrupt in active:
            if dst is not None and dst != receiver:
                continue
            if loss > 0.0 and random() < loss:
                counters["faults.messages_dropped"] += 1.0
                ctx.drop = True
                ctx.stop = True
                return
            if jitter > 0.0:
                delay += random() * jitter
            extra_delay += delay
            if duplicate > 0.0 and random() < duplicate:
                counters["faults.messages_duplicated"] += 1.0
                copies += 1
            if corrupt > 0.0 and random() < corrupt and not corrupted:
                counters["faults.messages_corrupted"] += 1.0
                corrupted = True
        if extra_delay > 0.0:
            # Once per delayed message, however many rules contributed.
            counters["faults.messages_delayed"] += 1.0
            ctx.extra_delay += extra_delay
        if copies:
            ctx.copies += copies
        if corrupted:
            ctx.corrupted = True


def install_link_faults(
    network: Network, sim: Simulator, links: Sequence[LinkFault]
) -> Optional[LinkFaultInjector]:
    """Install a :class:`LinkFaultInjector` for ``links`` on ``network``.

    Bare-network convenience: wraps the injector in a fresh middleware
    chain and installs it directly on the network (clusters route through
    ``AtumCluster.middleware_chain()`` instead).  Returns the injector, or
    ``None`` when ``links`` is empty (in which case no chain is installed).
    """
    if not links:
        return None
    injector = LinkFaultInjector(sim, links)
    network.install_middleware(MiddlewareChain(injector, scenario="link-faults"))
    return injector


__all__ = ["LinkFaultInjector", "install_link_faults"]
