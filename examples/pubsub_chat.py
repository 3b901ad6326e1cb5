#!/usr/bin/env python3
"""ASub example: a topic-based publish/subscribe service.

Creates two topics, subscribes a set of nodes to each, publishes events, and
shows that every subscriber of a topic (and only subscribers of that topic)
receives them.  Topic operations map one-to-one to the Atum API: create_topic
-> bootstrap, subscribe -> join, publish -> broadcast, unsubscribe -> leave.

Run with:  python examples/pubsub_chat.py
"""

from repro.apps.asub import ASubService
from repro.core.config import AtumParameters, SmrKind


def main() -> None:
    params = AtumParameters(
        hc=3, rwl=5, gmax=6, gmin=3, smr_kind=SmrKind.SYNC, round_duration=0.5,
    )
    service = ASubService(params, seed=7)

    news_subscribers = [f"reader-{i}" for i in range(15)]
    sports_subscribers = [f"fan-{i}" for i in range(10)]
    news = service.create_topic("news", creator="editor", prebuilt_subscribers=news_subscribers)
    sports = service.create_topic("sports", creator="commentator", prebuilt_subscribers=sports_subscribers)
    print(f"topic 'news' has {news.subscriber_count()} subscribers")
    print(f"topic 'sports' has {sports.subscriber_count()} subscribers")

    # Publish on both topics.
    news.publish("editor", {"headline": "Volatile groups scale beyond 1000 nodes"})
    news.publish("reader-3", {"headline": "Readers can publish too"})
    sports.publish("commentator", {"score": "3-1"})
    news.run(60.0)
    sports.run(60.0)

    for subscriber in ("reader-0", "reader-7"):
        events = news.events_received_by(subscriber)
        print(f"{subscriber} received {len(events)} news events: "
              f"{[e.payload['headline'] for e in events]}")
    print(f"fan-2 received {len(sports.events_received_by('fan-2'))} sports event(s)")
    print(f"fan-2 received {len(news.events_received_by('fan-2'))} news events (not subscribed)")

    # A subscriber loses interest and unsubscribes.
    news.unsubscribe("reader-14")
    news.cluster.run_until_membership_quiescent(max_time=600.0)
    print(f"after one unsubscribe, 'news' has {news.subscriber_count()} subscribers")


if __name__ == "__main__":
    main()
