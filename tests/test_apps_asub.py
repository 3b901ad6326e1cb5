"""Tests for ASub, the publish/subscribe service."""

import pytest

from repro.apps.asub import ASubService, ASubTopic
from repro.core.config import AtumParameters, SmrKind


def small_params():
    return AtumParameters(hc=3, rwl=5, gmax=6, gmin=3, round_duration=0.5)


class TestTopicLifecycle:
    def test_create_topic_bootstraps_creator(self):
        service = ASubService(small_params())
        topic = service.create_topic("news", creator="alice")
        assert topic.subscriber_count() == 1

    def test_duplicate_topic_rejected(self):
        service = ASubService(small_params())
        service.create_topic("news", creator="alice")
        with pytest.raises(ValueError):
            service.create_topic("news", creator="bob")

    def test_prebuilt_topic_has_all_subscribers(self):
        service = ASubService(small_params())
        subscribers = [f"s{i}" for i in range(20)]
        topic = service.create_topic("sports", creator="creator", prebuilt_subscribers=subscribers)
        assert topic.subscriber_count() == 21

    def test_a_bootstrapped_topic_starts_with_its_creator_only(self):
        topic = ASubTopic("t", creator="alice", params=small_params())
        assert topic.received == {"alice": []}
        assert sorted(topic.cluster.nodes) == ["alice"]

    def test_the_service_builds_a_prebuilt_topic_like_the_constructor(self):
        # One construction path: the same seed gives the same run either way.
        subscribers = [f"s{i}" for i in range(12)]
        direct = ASubTopic(
            "news", "alice", params=small_params(), seed=3, prebuilt_subscribers=subscribers
        )
        served = ASubService(small_params(), seed=3).create_topic(
            "news", creator="alice", prebuilt_subscribers=subscribers
        )
        runs = []
        for topic in (direct, served):
            assert sorted(topic.received) == sorted(["alice", *subscribers])
            broadcast_id = topic.publish("s4", "hello")
            topic.run(60.0)
            assert all(len(topic.events_received_by(s)) == 1 for s in topic.received)
            runs.append(topic.cluster.delivery_times(broadcast_id))
        assert runs[0] == runs[1]


class TestPublish:
    def test_publish_reaches_every_subscriber(self):
        service = ASubService(small_params())
        subscribers = [f"s{i}" for i in range(20)]
        topic = service.create_topic("news", creator="alice", prebuilt_subscribers=subscribers)
        topic.publish("alice", {"headline": "volatile groups!"})
        topic.run(60.0)
        for subscriber in ["alice", *subscribers]:
            events = topic.events_received_by(subscriber)
            assert len(events) == 1
            assert events[0].payload == {"headline": "volatile groups!"}
            assert events[0].publisher == "alice"

    def test_any_subscriber_can_publish(self):
        service = ASubService(small_params())
        subscribers = [f"s{i}" for i in range(15)]
        topic = service.create_topic("chat", creator="root", prebuilt_subscribers=subscribers)
        topic.publish("s3", "hello from s3")
        topic.run(60.0)
        assert all(len(topic.events_received_by(s)) == 1 for s in subscribers)

    def test_multiple_events_are_all_delivered(self):
        service = ASubService(small_params())
        subscribers = [f"s{i}" for i in range(12)]
        topic = service.create_topic("chat", creator="root", prebuilt_subscribers=subscribers)
        for index in range(3):
            topic.publish("root", f"event-{index}")
        topic.run(90.0)
        payloads = [event.payload for event in topic.events_received_by("s5")]
        assert sorted(payloads) == ["event-0", "event-1", "event-2"]

    def test_callback_invoked_on_delivery(self):
        captured = []
        params = small_params()
        topic = ASubTopic("t", creator="alice", params=params)
        topic._subscriber_callbacks["alice"] = captured.append
        topic.publish("alice", "self-delivery")
        topic.run(30.0)
        assert len(captured) == 1
        assert captured[0].payload == "self-delivery"


class TestSubscribeUnsubscribe:
    def test_subscribe_through_join(self):
        topic = ASubTopic("t", creator="alice", params=small_params())
        topic.subscribe("bob", contact="alice")
        topic.cluster.run_until_membership_quiescent(max_time=600.0)
        assert topic.subscriber_count() == 2
        topic.publish("alice", "welcome bob")
        topic.run(60.0)
        assert len(topic.events_received_by("bob")) == 1

    def test_unsubscribe_through_leave(self):
        service = ASubService(small_params())
        subscribers = [f"s{i}" for i in range(12)]
        topic = service.create_topic("t", creator="root", prebuilt_subscribers=subscribers)
        topic.unsubscribe("s0")
        topic.cluster.run_until_membership_quiescent(max_time=600.0)
        assert topic.subscriber_count() == 12  # 13 members minus the one that left
