"""The simulated network connecting actors.

The network models the aspects of the paper's deployment that matter for
protocol behaviour:

* per-message propagation latency (:mod:`repro.net.latency`);
* transfer time proportional to message size and constrained by per-node
  download bandwidth (this is what makes the incast / "throughput collapse"
  effect of the paper's section 5.1 observable);
* network partitions and side-preserving splits (loss, duplication and
  delay faults are ``on_send`` middleware, :mod:`repro.faults.injector`);
* delivery only to registered, alive actors (a crashed or departed node
  silently drops traffic, like a closed socket).

A message in flight is a heap entry that fires into the receiver's
``on_message``, except a :class:`~repro.net.message.Heartbeat`: a failure
detector only needs the latest arrival per peer, so a heartbeat send is one
*burst* kept under its sender, which the receivers' monitors read when they
tick (:meth:`Network.heard`).  A burst takes no latency draw, no downlink
time and no queue slot, and its fate is decided when it is sent.  Every
burst kept is handed to the one listener :meth:`Network.watch_bursts`
installed: the cluster's heartbeat clock, which lets a monitor whose whole
vgroup beat regularly skip its reads.
"""

from __future__ import annotations

from heapq import heappush
from math import exp, inf, log
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.core.middleware import MiddlewareContext, MiddlewareError
from repro.net.latency import _NV_MAGICCONST, LatencyModel, LanProfile
from repro.net.message import CorruptedPayload, Heartbeat
from repro.sim.actor import Actor
from repro.sim.simulator import Simulator


#: Per-node download bandwidth.  EC2 micro instances (the paper's node type)
#: provide on the order of 8 MB/s of sustained throughput.
BANDWIDTH_BYTES_PER_S = 8_000_000.0
#: Fixed per-message overhead added to every payload.
HEADERS_BYTES = 64
#: Payload size of a heartbeat.
HEARTBEAT_BYTES = 64


class _Deliveries:
    """The event of every message in flight on one :class:`Network` (a
    heartbeat is no message, see :meth:`Network.heard`).

    A queued copy is ONE plain tuple, its heap entry ``(time, 0, seq,
    deliveries, sender, receiver, payload, sent_at)``: the entry carries the
    wire fields and this object, shared by all of them, supplies what the
    event loop reads — the constant ``cancelled``/``priority``/``tag`` and
    :meth:`fire`, which the loop calls with the entry (see
    :mod:`repro.sim.events`).  Delivery reaches only a registered, alive
    actor that no partition or split (including one that formed while the
    message was in flight) separates from the sender.
    """

    __slots__ = ("_network",)

    cancelled = False
    priority = 0
    tag = "net.deliver"

    def __init__(self, network: "Network") -> None:
        self._network = network

    def cancel(self) -> None:
        """Deliveries are not cancellable: drop them with a partition."""
        raise TypeError("an in-flight network delivery cannot be cancelled")

    def fire(self, entry: tuple) -> None:
        time, _, _, _, sender, receiver, payload, sent_at = entry
        network = self._network
        actor = network._actors.get(receiver)
        counters = network._counters
        if actor is None or not actor.alive:
            counters["net.messages_undeliverable"] += 1.0
            return
        if receiver in network._partitioned:
            counters["net.messages_partitioned"] += 1.0
            return
        if network._splits and network.crosses_split(sender, receiver):
            # A split that formed while the message was in flight.
            counters["net.messages_partitioned"] += 1.0
            return
        counters["net.messages_delivered"] += 1.0
        # ``Histogram.record`` is ``samples.append``; the entry's time is the
        # clock while the event fires.
        network._latency_samples.append(time - sent_at)
        actor.on_message(payload, sender)


class Network:
    """Delivers messages between registered actors over a latency model."""

    def __init__(
        self,
        sim: Simulator,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.sim = sim
        self.latency_model = latency_model or LanProfile()
        self._actors: Dict[str, Actor] = {}
        self._partitioned: Set[str] = set()
        # Active side-preserving splits: split id -> {address: side index}.
        # A message is dropped iff some active split maps both endpoints to
        # *different* sides; addresses a split does not name are unaffected.
        # Empty dict = one truthiness check per message, nothing more.
        self._splits: Dict[int, Dict[str, int]] = {}
        self._split_seq = 0
        self._rng = sim.rng.stream("network")
        # Compiled on_send pipeline of the installed middleware chain (see
        # repro.core.middleware), a parameter of send_many.  ``None`` keeps
        # sends bit-identical to a build without the middleware subsystem —
        # one check per message, no extra RNG draws, no context object.
        self._send_hooks = None
        self._middleware = None
        self._send_scenario = ""
        # Tracks when each receiving node's downlink frees up, used to model
        # queueing of large transfers at the receiver.
        self._downlink_free_at: Dict[str, float] = {}
        # Hot-path handles: sends and deliveries update counters and the
        # delivery-latency histogram's sample list directly instead of going
        # through the registry methods on every message.
        self._counters = sim.metrics.counters
        self._latency_samples = sim.metrics.histogram("net.delivery_latency").samples
        self._deliveries = _Deliveries(self)
        # Sender -> its latest heartbeat bursts, newest first (at most two):
        # ``(sent_at, receivers, delays, transfer)``, where ``delays`` maps a
        # receiver to the extra delay a hook gave its copy (None if none did).
        self._bursts: Dict[str, Tuple[tuple, ...]] = {}
        self._burst_listener: Optional[Callable[[str, tuple], None]] = None

    # --------------------------------------------------------------- membership

    def register(self, actor: Actor) -> None:
        """Attach an actor to the network so it can receive messages."""
        self._actors[actor.address] = actor

    # --------------------------------------------------------------- middleware

    def install_middleware(self, chain) -> None:
        """Compile ``chain``'s ``on_send`` pipeline onto :meth:`send_many`.

        Installed once (normally by :meth:`AtumCluster.install_middleware
        <repro.core.cluster.AtumCluster.install_middleware>`; bare-network
        harnesses may call it directly).  Installing a second chain over an
        existing one raises :class:`~repro.core.middleware.MiddlewareError`
        — compose middleware into one chain instead.  Late additions to the
        installed chain recompile the pipeline automatically.
        """
        if self._middleware is not None:
            raise MiddlewareError(
                "a middleware chain is already installed on this network; "
                "add to it instead of installing a second one"
            )
        self._middleware = chain
        chain.subscribe(self._compile_send_hooks)
        self._compile_send_hooks()

    def _compile_send_hooks(self) -> None:
        chain = self._middleware
        if chain is None:
            self._send_hooks = None
            self._send_scenario = ""
        else:
            self._send_hooks = chain.hooks("on_send")
            self._send_scenario = chain.scenario

    # --------------------------------------------------------------- partitions

    def partition(self, addresses: Iterable[str]) -> None:
        """Isolate the given addresses: they can neither send nor receive."""
        self._partitioned.update(addresses)

    def heal(self, addresses: Optional[Iterable[str]] = None) -> None:
        """Heal a partition for the given addresses (or all, if omitted)."""
        if addresses is None:
            self._partitioned.clear()
        else:
            self._partitioned.difference_update(addresses)

    def is_partitioned(self, address: str) -> bool:
        return address in self._partitioned

    # ------------------------------------------------- side-preserving splits

    def split(self, sides: Iterable[Iterable[str]]) -> int:
        """Install a side-preserving split; returns its id (for :meth:`merge`).

        Each side stays internally connected; only messages whose endpoints
        fall on *different* sides are dropped.  Addresses not named by any
        side are unaffected.  Multiple splits compose: a message is dropped
        if any active split separates its endpoints.
        """
        mapping: Dict[str, int] = {}
        for index, side in enumerate(sides):
            for address in side:
                mapping[address] = index
        self._split_seq += 1
        self._splits[self._split_seq] = mapping
        return self._split_seq

    def merge(self, split_id: Optional[int] = None) -> None:
        """Heal a side-preserving split by id (or all splits, if omitted)."""
        if split_id is None:
            self._splits.clear()
        else:
            self._splits.pop(split_id, None)

    def bind_to_split(self, split_id: int, address: str, side_index: int) -> None:
        """Bind ``address`` to one side of an active split.

        Used when a node *joins* during a split: unbound addresses would
        straddle the split (reachable from every side), which no real
        partition permits — the joiner lives in some machine room, so it
        lands on exactly one side.  No-op for unknown split ids.
        """
        mapping = self._splits.get(split_id)
        if mapping is not None:
            mapping[address] = side_index

    def crosses_split(self, sender: str, receiver: str) -> bool:
        """Whether any active split separates ``sender`` from ``receiver``."""
        for mapping in self._splits.values():
            side = mapping.get(sender)
            if side is None:
                continue
            other = mapping.get(receiver)
            if other is not None and other != side:
                return True
        return False

    # --------------------------------------------------------------- heartbeats

    def heard(self, sender: str, receiver: str, now: float) -> float:
        """When ``receiver`` last heard a heartbeat from ``sender`` by ``now``.

        That is the arrival of the newer of ``sender``'s two latest bursts
        that names ``receiver`` and has landed by ``now`` (``-inf`` if
        neither): ``sent_at`` plus the pair's median latency, the transfer
        time and the extra delay a hook gave the copy.  ``sender`` is the
        address the transport authenticated, not the one a frame names.

        A monitor whose vgroup all sent a regular burst on the last sweep
        does not call this: it knows the answer, and computes it with this
        float expression when its ``last_seen`` is read (see
        :mod:`repro.group.heartbeat`).
        """
        for sent_at, receivers, delays, transfer in self._bursts.get(sender, ()):
            if receiver in receivers:
                arrival = sent_at + self.latency_model.median_latency(sender, receiver) + transfer
                if delays is not None:
                    arrival += delays.get(receiver, 0.0)
                if arrival <= now:
                    return arrival
        return -inf

    def watch_bursts(self, listener: Callable[[str, tuple], None]) -> None:
        """Hand every heartbeat burst kept from now on to ``listener(sender,
        burst)``, ``burst`` being ``(sent_at, receivers, delays, transfer)``
        as :meth:`heard` reads it.  One listener: a second call replaces it."""
        self._burst_listener = listener

    def _keep_burst(self, sender: str, burst: tuple) -> None:
        previous = self._bursts.get(sender)
        self._bursts[sender] = (burst,) if previous is None else (burst, previous[0])
        if self._burst_listener is not None:
            self._burst_listener(sender, burst)

    # ------------------------------------------------------------------ sending

    def send_many(
        self,
        sender: str,
        receivers: Sequence[str],
        payload: Any,
        size_bytes: int = 256,
    ) -> int:
        """Send the same ``payload``/``size_bytes`` to ``receivers``, in order.

        The one routing core; every other send method is a caller of it, and
        it is the only function that pushes deliveries.  Per receiver, in
        this order: partition and split checks, the installed ``on_send``
        pipeline, one latency draw, then per copy one downlink
        update and one heap push.  The pushed entry *is* the delivery: one
        plain tuple ``(time, 0, seq, deliveries, sender, receiver, wire,
        now)`` around this network's shared :class:`_Deliveries` event — one
        allocation and one GC-tracked object per copy in flight.  A batch is
        exactly the sequence of its single sends — same RNG draws, same float
        arithmetic, same event order.

        A :class:`~repro.net.message.Heartbeat` is one *burst* instead: every
        receiver that passes the checks and hooks above joins it, with the
        extra delay its verdict set, and the loop stops there — no draw, no
        downlink, no push (:meth:`heard` reads it).  Its fate is decided
        here: a dropped copy is ``net.messages_lost``, a corrupted one fails
        authentication (``net.corrupted_discarded``), and every receiver that
        joins counts ``net.messages_delivered`` now.  With no hook, partition
        or split active the whole ``receivers`` tuple is the burst, and no
        loop runs.

        The loop owns the latency draw.  A log-normal model publishes its
        parameters (:attr:`LatencyModel.lognormal
        <repro.net.latency.LatencyModel.lognormal>`), read here once per
        burst, and the loop runs the draw inline where it would have called
        ``model.sample`` — which stays the per-pair API, and is what a model
        that publishes nothing (the test doubles) is called through; a sample
        from there that is negative or NaN would deliver into the past, so it
        is taken as 0.0 and counted ``net.latency_sample_rejected``.  The
        draw cannot be hoisted out of the loop and done for the whole batch:
        any send a hook makes takes from the same RNG stream between one
        receiver's draw and the next.

        Hooks run against **one** :class:`MiddlewareContext` per call: the
        receiver, payload and verdict fields are reset before each receiver's
        hooks, and the object is only valid for the duration of the hook call
        (a hook copies out what it wants to keep).  The verdict may drop the
        message, add propagation delay, deliver extra copies (each copy
        passes through the receiver's downlink serialization, so duplication
        storms consume real bandwidth) or corrupt the payload (delivered
        wrapped in :class:`CorruptedPayload` for the receiver to detect and
        discard).  A malformed verdict — negative or non-finite
        ``extra_delay``, non-int ``copies`` — is reset to the
        no-perturbation default and counted ``net.send_verdict_rejected``;
        ``copies <= 0`` is a drop.

        Returns the number of receivers at least one copy was scheduled for.
        """
        count = len(receivers)
        if not count:
            return 0
        counters = self._counters
        counters["net.messages_sent"] += float(count)
        counters["net.bytes_sent"] += float(size_bytes * count)
        sim = self.sim
        now = sim._now
        transfer = (size_bytes + HEADERS_BYTES) / BANDWIDTH_BYTES_PER_S
        partitioned = self._partitioned
        splits = self._splits
        hooks = self._send_hooks
        heartbeat = type(payload) is Heartbeat
        if heartbeat and hooks is None and not partitioned and not splits:
            self._keep_burst(sender, (now, tuple(receivers), None, transfer))
            counters["net.messages_delivered"] += float(count)
            return count
        rng = self._rng
        random = rng.random
        model = self.latency_model
        lognormal = model.lognormal
        row = None
        if lognormal is None:
            sample = model.sample
        else:
            rows, mu, sigma, floor = lognormal
            if rows is not None:
                row = rows.get(sender)
                if row is None:
                    row = {}
        downlink = self._downlink_free_at
        downlink_get = downlink.get
        queue = sim.queue
        heap = queue._heap
        seq = queue._seq
        deliveries = self._deliveries
        joined = []
        delays = None
        ctx = None
        wire = payload
        extra_delay = 0.0
        copies = 1
        dispatched = 0
        for receiver in receivers:
            if (
                partitioned and (sender in partitioned or receiver in partitioned)
            ) or (splits and self.crosses_split(sender, receiver)):
                counters["net.messages_partitioned"] += 1.0
                continue
            if hooks is not None:
                if ctx is None:
                    ctx = MiddlewareContext(
                        "on_send",
                        now=now,
                        scenario=self._send_scenario,
                        channel="net",
                        sender=sender,
                        size_bytes=size_bytes,
                    )
                ctx.receiver = receiver
                ctx.payload = payload
                ctx.drop = ctx.corrupted = ctx.stop = False
                ctx.extra_delay = 0.0
                ctx.copies = 1
                # A hook may itself send: hand the queue its counters back
                # for the duration of the call.
                queue._live += seq - queue._seq
                queue._seq = seq
                for hook in hooks:
                    hook(ctx)
                    if ctx.stop:
                        break
                seq = queue._seq
                extra_delay = ctx.extra_delay
                copies = ctx.copies
                if extra_delay != 0.0 or copies != 1:
                    if not (
                        isinstance(extra_delay, (int, float)) and 0.0 <= extra_delay < inf
                    ):
                        counters["net.send_verdict_rejected"] += 1.0
                        extra_delay = 0.0
                    if not isinstance(copies, int):
                        counters["net.send_verdict_rejected"] += 1.0
                        copies = 1
                if ctx.drop or copies <= 0:
                    counters["net.messages_lost"] += 1.0
                    continue
                if heartbeat:
                    if ctx.corrupted:
                        counters["net.corrupted_discarded"] += 1.0
                        continue
                else:
                    wire = CorruptedPayload(ctx.payload) if ctx.corrupted else ctx.payload
            if heartbeat:
                joined.append(receiver)
                if extra_delay != 0.0:
                    if delays is None:
                        delays = {}
                    delays[receiver] = extra_delay
                continue
            if lognormal is None:
                propagation = sample(rng, sender, receiver)
                if not propagation >= 0.0:
                    counters["net.latency_sample_rejected"] += 1.0
                    propagation = 0.0
            else:
                # The model's draw, run here: max(floor, lognormvariate(mu,
                # sigma)) exactly as latency._lognormal computes it.
                if row is not None:
                    mu = row.get(receiver)
                    if mu is None:
                        mu = model.pair_mu(row, sender, receiver)
                while True:
                    u1 = random()
                    u2 = 1.0 - random()
                    z = _NV_MAGICCONST * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                propagation = exp(mu + z * sigma)
                if propagation < floor:
                    propagation = floor
            propagation += extra_delay
            # Float arithmetic mirrors Simulator.schedule() (including the
            # delay round-trip), so event times match a sim.schedule() send.
            while True:
                arrival_start = now + propagation
                free_at = downlink_get(receiver, 0.0)
                if free_at > arrival_start:
                    # Receiver downlink serialization: a transfer occupies
                    # the downlink and delays later arrivals.
                    arrival_start = free_at
                delivery_time = arrival_start + transfer
                downlink[receiver] = delivery_time
                heappush(
                    heap,
                    (now + (delivery_time - now), 0, seq, deliveries, sender, receiver, wire, now),
                )
                seq += 1
                if copies == 1:
                    break
                copies -= 1
            dispatched += 1
        queue._live += seq - queue._seq
        queue._seq = seq
        if heartbeat:
            self._keep_burst(sender, (now, tuple(joined), delays, transfer))
            counters["net.messages_delivered"] += float(len(joined))
            return len(joined)
        return dispatched

    def send_fanout(
        self,
        sender: str,
        receivers: Sequence[str],
        payload: Any,
        size_bytes: int,
    ) -> int:
        """:meth:`send_many` in randomized order (paper section 5.1,
        "Randomized message sending"): shuffling spreads a group message's m
        shares over the receivers' downlinks and avoids incast.

        The shuffle is ``random.Random.shuffle`` run inline — Fisher-Yates
        from the top, each index drawn below ``i + 1`` by rejection sampling
        over ``getrandbits`` (the draws CPython 3.10-3.12 make) — so a fan-out
        costs no Python call per element.
        """
        receivers = list(receivers)
        getrandbits = self._rng.getrandbits
        for i in range(len(receivers) - 1, 0, -1):
            bits = (i + 1).bit_length()
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            receivers[i], receivers[j] = receivers[j], receivers[i]
        return self.send_many(sender, receivers, payload, size_bytes)

    def send_one(
        self,
        sender: str,
        receiver: str,
        payload: Any,
        size_bytes: int = 256,
    ) -> bool:
        """Fire-and-forget single send: :meth:`send_many` with a 1-tuple."""
        return self.send_many(sender, (receiver,), payload, size_bytes) > 0


__all__ = ["BANDWIDTH_BYTES_PER_S", "HEADERS_BYTES", "HEARTBEAT_BYTES", "Network"]
