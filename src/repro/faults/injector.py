"""Network-level fault injection: per-link loss, duplication and delay spikes.

The injector is an ``on_send`` middleware (see :mod:`repro.core.middleware`)
consulted once per routed message.  It owns a dedicated RNG stream
(``faults.network``) derived from the simulation seed, so fault draws are
deterministic and never perturb the network's own randomness (send-order
shuffles, baseline loss, latency samples keep their exact draw sequence).

Rules that do not match a message's link or time window draw nothing, which
keeps runs with inactive windows deterministic regardless of how much
traffic flows outside them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.middleware import Middleware, MiddlewareChain, MiddlewareContext
from repro.faults.plan import LinkFault
from repro.net.network import Network
from repro.sim.simulator import Simulator


class LinkFaultInjector(Middleware):
    """Evaluates :class:`~repro.faults.plan.LinkFault` rules per message.

    The network's ``on_send`` pipeline invokes :meth:`on_send` for every
    message it routes while the hosting chain is installed; the verdict says
    whether to drop the message, how much extra propagation delay to add,
    and how many copies to deliver.  :meth:`perturb` holds the rule logic in
    injector terms and stays directly callable by unit tests.
    """

    def __init__(self, sim: Simulator, links: Sequence[LinkFault]) -> None:
        self.links: Tuple[LinkFault, ...] = tuple(links)
        self._rng = sim.rng.stream("faults.network")
        self._counters = sim.metrics.counters

    def on_send(self, ctx: MiddlewareContext) -> None:
        """Apply the rule verdict to one routed message's send context."""
        verdict = self.perturb(ctx.sender, ctx.receiver, ctx.now)
        if verdict is None:
            return
        dropped, extra_delay, copies, corrupted = verdict
        if dropped:
            ctx.drop = True
            ctx.stop = True
            return
        ctx.extra_delay += extra_delay
        ctx.copies += copies - 1
        if corrupted:
            ctx.corrupted = True

    def perturb(
        self, sender: str, receiver: str, now: float
    ) -> Optional[Tuple[bool, float, int, bool]]:
        """Fault verdict for one message: ``(drop, extra_delay, copies, corrupted)``.

        Returns ``None`` when no rule matches, so the caller can stay on the
        unperturbed arithmetic.  All matching rules compose: loss draws are
        independent per rule, delays add up, duplication contributes one
        extra copy per matching rule that fires, and any firing corruption
        draw marks the message (the network delivers it bit-flipped for the
        receiver to detect and discard).
        """
        matched = False
        extra_delay = 0.0
        copies = 1
        corrupted = False
        rng = self._rng
        counters = self._counters
        for rule in self.links:
            if not rule.matches(sender, receiver, now):
                continue
            matched = True
            if rule.loss > 0.0 and rng.random() < rule.loss:
                counters["faults.messages_dropped"] += 1.0
                return (True, 0.0, 0, False)
            if rule.extra_delay > 0.0 or rule.jitter > 0.0:
                delay = rule.extra_delay
                if rule.jitter > 0.0:
                    delay += rng.random() * rule.jitter
                extra_delay += delay
            if rule.duplicate > 0.0 and rng.random() < rule.duplicate:
                counters["faults.messages_duplicated"] += 1.0
                copies += 1
            if rule.corrupt > 0.0 and rng.random() < rule.corrupt and not corrupted:
                counters["faults.messages_corrupted"] += 1.0
                corrupted = True
        if not matched:
            return None
        if extra_delay > 0.0:
            # Once per delayed message, however many rules contributed.
            counters["faults.messages_delayed"] += 1.0
        return (False, extra_delay, copies, corrupted)


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
