"""ASub: a topic-based publish/subscribe service on top of Atum (section 4.1).

Topic-based pub/sub is essentially equivalent to group communication: a topic
is a group, subscribing is joining, publishing is broadcasting.  ASub is
therefore a thin layer that maps its operations directly onto the Atum API:

===================  =====================
ASub operation       Atum operation
===================  =====================
``create_topic``     ``bootstrap``
``subscribe``        ``join``
``unsubscribe``      ``leave``
``publish``          ``broadcast``
===================  =====================

Each topic is backed by its own Atum instance (its own cluster of vgroups), as
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters
from repro.core.node import BroadcastMessage


@dataclass
class Event:
    """An event published on a topic."""

    topic: str
    publisher: str
    payload: Any
    published_at: float


class ASubTopic:
    """One pub/sub topic, backed by one Atum instance.

    The creator bootstraps the topic alone; with ``prebuilt_subscribers`` the
    topic instead starts grown, its membership built directly (no join
    replay), for experiments that start from a grown topic.
    """

    def __init__(
        self,
        name: str,
        creator: str,
        params: Optional[AtumParameters] = None,
        seed: int = 0,
        prebuilt_subscribers: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.params = params or AtumParameters()
        self.cluster = AtumCluster(self.params, seed=seed)
        self._subscriber_callbacks: Dict[str, Callable[[Event], None]] = {}
        addresses = [creator, *prebuilt_subscribers]
        self.received: Dict[str, List[Event]] = {address: [] for address in addresses}
        if prebuilt_subscribers:
            self.cluster.build_static(addresses)
        else:
            self.cluster.bootstrap(creator)
        for address in addresses:
            self.cluster.node(address).deliver_fn = self._make_deliver(address)

    # ----------------------------------------------------------------- topology

    def subscribe(
        self,
        subscriber: str,
        contact: Optional[str] = None,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> None:
        """Subscribe a node to the topic (joins the topic's Atum instance)."""
        if callback is not None:
            self._subscriber_callbacks[subscriber] = callback
        self.received.setdefault(subscriber, [])
        self.cluster.join(subscriber, contact=contact, deliver_fn=self._make_deliver(subscriber))

    def unsubscribe(self, subscriber: str) -> None:
        """Unsubscribe (leaves the topic's Atum instance)."""
        self.cluster.leave(subscriber)

    # --------------------------------------------------------------- publishing

    def publish(self, publisher: str, payload: Any, size_bytes: int = 100) -> str:
        """Publish an event on the topic; returns the broadcast id."""
        return self.cluster.broadcast(publisher, payload, size_bytes=size_bytes)

    def run(self, duration: float) -> None:
        """Advance the topic's simulation by ``duration`` seconds."""
        self.cluster.run_for(duration)

    def events_received_by(self, subscriber: str) -> List[Event]:
        return self.received.get(subscriber, [])

    def subscriber_count(self) -> int:
        return self.cluster.system_size

    # ------------------------------------------------------------------ helpers

    def _make_deliver(self, subscriber: str) -> Callable[[BroadcastMessage], None]:
        def deliver(message: BroadcastMessage) -> None:
            event = Event(
                topic=self.name,
                publisher=message.origin,
                payload=message.payload,
                published_at=message.created_at,
            )
            self.received.setdefault(subscriber, []).append(event)
            callback = self._subscriber_callbacks.get(subscriber)
            if callback is not None:
                callback(event)

        return deliver


class ASubService:
    """A registry of topics; the user-facing facade of ASub."""

    def __init__(self, params: Optional[AtumParameters] = None, seed: int = 0) -> None:
        self.params = params or AtumParameters()
        self.seed = seed
        self.topics: Dict[str, ASubTopic] = {}

    def create_topic(
        self, name: str, creator: str, prebuilt_subscribers: Sequence[str] = ()
    ) -> ASubTopic:
        """Create a topic (see :class:`ASubTopic` for ``prebuilt_subscribers``)."""
        if name in self.topics:
            raise ValueError(f"topic {name!r} already exists")
        topic = ASubTopic(
            name,
            creator,
            params=self.params,
            seed=self.seed + len(self.topics),
            prebuilt_subscribers=prebuilt_subscribers,
        )
        self.topics[name] = topic
        return topic


__all__ = ["Event", "ASubTopic", "ASubService"]
