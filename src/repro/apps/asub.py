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
    """One pub/sub topic, backed by one Atum instance."""

    def __init__(
        self,
        name: str,
        creator: str,
        params: Optional[AtumParameters] = None,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.params = params or AtumParameters()
        self.cluster = AtumCluster(self.params, seed=seed)
        self._subscriber_callbacks: Dict[str, Callable[[Event], None]] = {}
        self.received: Dict[str, List[Event]] = {}
        self.cluster.bootstrap(creator, deliver_fn=self._make_deliver(creator))
        self.received[creator] = []

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
        self,
        name: str,
        creator: str,
        prebuilt_subscribers: Optional[Sequence[str]] = None,
    ) -> ASubTopic:
        """Create a topic.

        ``prebuilt_subscribers`` builds the topic membership directly (without
        replaying joins); useful for experiments that start from a grown topic.
        """
        if name in self.topics:
            raise ValueError(f"topic {name!r} already exists")
        if prebuilt_subscribers is None:
            topic = ASubTopic(name, creator, params=self.params, seed=self.seed + len(self.topics))
        else:
            topic = ASubTopic.__new__(ASubTopic)
            topic.name = name
            topic.params = self.params
            topic.cluster = AtumCluster(self.params, seed=self.seed + len(self.topics))
            topic._subscriber_callbacks = {}
            topic.received = {address: [] for address in [creator, *prebuilt_subscribers]}
            addresses = [creator, *prebuilt_subscribers]
            topic.cluster.build_static(addresses)
            for address in addresses:
                topic.cluster.node(address).deliver_fn = topic._make_deliver(address)
        self.topics[name] = topic
        return topic

    def topic(self, name: str) -> ASubTopic:
        if name not in self.topics:
            raise KeyError(f"unknown topic {name!r}")
        return self.topics[name]


__all__ = ["Event", "ASubTopic", "ASubService"]
