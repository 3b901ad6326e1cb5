"""Unit tests for AtumNode internals: routing, gossip targets, forward policies."""

from types import SimpleNamespace

import pytest

from repro.core import AtumCluster, AtumParameters, SmrKind
from repro.core.node import AtumNode, BroadcastMessage, DirectMessage, SmrEnvelope
from repro.overlay.gossip import forward_cycles, forward_targets, stable_hash
from repro.smr.base import Operation


def small_params(**overrides):
    base = dict(hc=3, rwl=5, gmax=6, gmin=3, smr_kind=SmrKind.SYNC, round_duration=0.5,
                expected_system_size=30)
    base.update(overrides)
    return AtumParameters(**base)


def built_cluster(n=24, seed=0, **cluster_kwargs):
    cluster = AtumCluster(small_params(), seed=seed, **cluster_kwargs)
    cluster.build_static([f"n{i}" for i in range(n)])
    return cluster


# (policy, bcast_id, hc) -> targets, captured at commit 5c6dc87
# from the pre-refactor ``AtumNode._gossip_targets`` (string policies and hash
# arithmetic inline in core/node.py) over a synthetic neighbourhood: cycle c
# has neighbours ("p<c>", "s<c>"), except that the last cycle's successor is
# the own group and the message arrived from "p0" — so the cycle choice, the
# pred-before-succ order, the dedup and both filters are all pinned.
FORWARD_ORACLE = [
    ('flood', 'bc-n3-1', 2, ['s0', 'p1']),
    ('flood', 'bc-n3-1', 3, ['s0', 'p1', 's1', 'p2']),
    ('flood', 'bc-n3-1', 5, ['s0', 'p1', 's1', 'p2', 's2', 'p3', 's3', 'p4']),
    ('flood', 'bc-n17-42', 2, ['s0', 'p1']),
    ('flood', 'bc-n17-42', 3, ['s0', 'p1', 's1', 'p2']),
    ('flood', 'bc-n17-42', 5, ['s0', 'p1', 's1', 'p2', 's2', 'p3', 's3', 'p4']),
    ('flood', 'gm-golden-1', 2, ['s0', 'p1']),
    ('flood', 'gm-golden-1', 3, ['s0', 'p1', 's1', 'p2']),
    ('flood', 'gm-golden-1', 5, ['s0', 'p1', 's1', 'p2', 's2', 'p3', 's3', 'p4']),
    ('single', 'bc-n3-1', 2, ['s0']),
    ('single', 'bc-n3-1', 3, ['p1', 's1']),
    ('single', 'bc-n3-1', 5, ['s0']),
    ('single', 'bc-n17-42', 2, ['p1']),
    ('single', 'bc-n17-42', 3, ['p1', 's1']),
    ('single', 'bc-n17-42', 5, ['p1', 's1']),
    ('single', 'gm-golden-1', 2, ['s0']),
    ('single', 'gm-golden-1', 3, ['p1', 's1']),
    ('single', 'gm-golden-1', 5, ['p2', 's2']),
    ('double', 'bc-n3-1', 2, ['s0', 'p1']),
    ('double', 'bc-n3-1', 3, ['p1', 's1', 'p2']),
    ('double', 'bc-n3-1', 5, ['s0', 'p1', 's1']),
    ('double', 'bc-n17-42', 2, ['p1', 's0']),
    ('double', 'bc-n17-42', 3, ['p1', 's1', 'p2']),
    ('double', 'bc-n17-42', 5, ['p1', 's1', 'p2', 's2']),
    ('double', 'gm-golden-1', 2, ['s0', 'p1']),
    ('double', 'gm-golden-1', 3, ['p1', 's1', 'p2']),
    ('double', 'gm-golden-1', 5, ['p2', 's2', 'p3', 's3']),
    ('random', 'bc-n3-1', 2, ['s0']),
    ('random', 'bc-n3-1', 3, ['s0', 'p1', 's1']),
    ('random', 'bc-n3-1', 5, ['s0']),
    ('random', 'bc-n17-42', 2, ['s0', 'p1']),
    ('random', 'bc-n17-42', 3, ['s0', 'p1', 's1']),
    ('random', 'bc-n17-42', 5, ['s0', 'p1', 's1']),
    ('random', 'gm-golden-1', 2, ['s0']),
    ('random', 'gm-golden-1', 3, ['s0', 'p1', 's1']),
    ('random', 'gm-golden-1', 5, ['s0', 'p2', 's2']),
]


def oracle_pairs(hc):
    pairs = [(f"p{c}", f"s{c}") for c in range(hc)]
    pairs[-1] = (pairs[-1][0], "own")
    return tuple(pairs)


class TestForwardOracle:
    """The one selection function equals what the node did before it moved."""

    @pytest.mark.parametrize("policy,bcast_id,hc,expected", FORWARD_ORACLE)
    def test_selection_matches_parent_commit(self, policy, bcast_id, hc, expected):
        pairs = oracle_pairs(hc)
        cycles = forward_cycles(policy, bcast_id, hc)
        assert forward_targets(pairs, cycles, "own", "p0") == expected
        # ...and the node reaches the same answer through its own wiring.
        stub = SimpleNamespace(
            vgroup_view=SimpleNamespace(group_id="own"),
            directory=SimpleNamespace(cycle_neighbor_ids=lambda group_id: pairs),
            forward_fn=None,
            forward_policy=policy,
        )
        message = BroadcastMessage(bcast_id, "n", None, 10, 0.0)
        assert AtumNode._gossip_targets(stub, message, exclude="p0") == expected


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_differs_for_different_inputs(self):
        assert stable_hash("abc") != stable_hash("abd")


class TestRouting:
    def test_smr_envelope_for_wrong_group_is_ignored(self):
        cluster = built_cluster()
        node = cluster.node("n0")
        decided_before = len(node.replica.decided_log)
        node.on_message(SmrEnvelope(group_id="not-my-group", payload="junk"), "n1")
        assert len(node.replica.decided_log) == decided_before

    def test_direct_message_dispatched_to_registered_handler(self):
        cluster = built_cluster()
        received = []
        cluster.node("n1").register_direct_handler("ping", lambda payload, sender: received.append((payload, sender)))
        cluster.node("n0").send_direct("n1", "ping", {"x": 1})
        cluster.run(until=5.0)
        assert received == [({"x": 1}, "n0")]

    def test_direct_message_without_handler_is_dropped(self):
        cluster = built_cluster()
        cluster.node("n0").send_direct("n1", "unknown-kind", "payload")
        cluster.run(until=5.0)  # must not raise

    def test_mute_node_ignores_everything(self):
        cluster = built_cluster()
        received = []
        cluster.node("n2").register_direct_handler("ping", lambda p, s: received.append(p))
        cluster.node("n2").byzantine = "mute"
        cluster.node("n0").send_direct("n2", "ping", "x")
        cluster.run(until=5.0)
        assert received == []

    def test_silent_node_does_not_deliver_broadcasts(self):
        cluster = built_cluster(seed=2)
        cluster.node("n5").byzantine = "silent"
        bcast = cluster.broadcast("n0", "msg")
        cluster.run(until=60.0)
        assert not cluster.node("n5").has_delivered(bcast)


class TestGossipTargets:
    def test_flood_targets_are_unique_neighbor_groups(self):
        cluster = built_cluster()
        node = cluster.node("n0")
        message = BroadcastMessage("b1", "n0", "x", 10, 0.0)
        targets = node._gossip_targets(message, exclude="")
        own = node.group_id()
        assert own not in targets
        assert len(targets) == len(set(targets))
        neighbor_ids = {g for pair in cluster.cycle_neighbor_ids(own) for g in pair}
        assert set(targets) <= neighbor_ids

    def test_single_policy_selects_fewer_targets_than_flood(self):
        cluster = built_cluster(n=40)
        node = cluster.node("n0")
        message = BroadcastMessage("b2", "n0", "x", 10, 0.0)
        node.forward_policy = "flood"
        flood = node._gossip_targets(message, exclude="")
        node.forward_policy = "single"
        single = node._gossip_targets(message, exclude="")
        assert len(single) <= len(flood)
        assert len(single) >= 1

    def test_targets_deterministic_across_members_of_a_group(self):
        cluster = built_cluster(n=40)
        node_a = cluster.node("n0")
        group = node_a.group_id()
        peers = [cluster.node(m) for m in cluster.view_of_group(group).members]
        message = BroadcastMessage("b3", "n0", "x", 10, 0.0)
        for policy in ("flood", "single", "double", "random"):
            target_sets = []
            for peer in peers:
                peer.forward_policy = policy
                target_sets.append(tuple(peer._gossip_targets(message, exclude="")))
            assert len(set(target_sets)) == 1

    def test_custom_forward_fn_filters_targets(self):
        cluster = built_cluster(n=40)
        node = cluster.node("n0")
        message = BroadcastMessage("b4", "n0", "x", 10, 0.0)
        node.forward_fn = lambda m, gid: False
        assert node._gossip_targets(message, exclude="") == []

    def test_custom_forward_fn_is_asked_once_per_candidate_in_flood_order(self):
        cluster = built_cluster(n=40)
        node = cluster.node("n0")
        message = BroadcastMessage("b4", "n0", "x", 10, 0.0)
        flood = node._gossip_targets(message, exclude="")
        assert len(flood) >= 2
        asked = []

        def forward(m, gid):
            asked.append((m.bcast_id, gid))
            return gid != flood[1]

        node.forward_fn = forward
        # The application decides per neighbour; the built-in policy is out
        # of the picture, the source group is never asked.
        node.forward_policy = "single"
        targets = node._gossip_targets(message, exclude=flood[0])
        assert asked == [("b4", gid) for gid in flood[1:]]
        assert targets == flood[2:]

    def test_unknown_policy_raises(self):
        cluster = built_cluster()
        node = cluster.node("n0")
        node.forward_policy = "bogus"
        with pytest.raises(ValueError):
            node._gossip_targets(BroadcastMessage("b5", "n0", "x", 10, 0.0), exclude="")

    def test_exclude_source_group(self):
        cluster = built_cluster(n=40)
        node = cluster.node("n0")
        message = BroadcastMessage("b6", "n0", "x", 10, 0.0)
        all_targets = node._gossip_targets(message, exclude="")
        if all_targets:
            excluded = all_targets[0]
            remaining = node._gossip_targets(message, exclude=excluded)
            assert excluded not in remaining


class TestForwardsOnce:
    def test_a_broadcast_arriving_again_is_not_forwarded_again(self):
        # ``delivered`` is the only gate a forward needs: the per-node set of
        # (broadcast, vgroup) pairs that used to sit behind it never fired.
        cluster = built_cluster(n=40)
        node = cluster.node("n0")
        counter = cluster.sim.metrics.counter
        message = BroadcastMessage("b7", "n1", "x", 10, 0.0)
        neighbours = node._gossip_targets(message, exclude="")
        assert len(neighbours) >= 2
        node._on_group_message("gossip", message, neighbours[0], "gm-1")
        cluster.run(until=5.0)  # Sync: the forward waits for the round boundary
        assert counter("atum.gossip_forwards") == 1
        shares = counter("group.shares_sent")
        assert shares > 0
        # Again from a second source vgroup, and again as an SMR decision.
        node._on_group_message("gossip", message, neighbours[1], "gm-2")
        node._on_smr_decide(Operation("broadcast", message, "n1", "op-1"))
        cluster.run(until=10.0)
        assert counter("atum.gossip_forwards") == 1
        assert counter("group.shares_sent") == shares
        assert node.delivered_order == ["b7"]


class TestMembershipLifecycle:
    def test_clear_membership_stops_replica(self):
        cluster = built_cluster()
        node = cluster.node("n0")
        assert node.replica is not None
        node.clear_membership()
        assert node.replica is None
        assert not node.is_member

    def test_install_view_reconfigures_existing_replica(self):
        cluster = built_cluster()
        node = cluster.node("n0")
        view = node.vgroup_view
        new_view = view.add("phantom-member")
        node.install_view(new_view)
        assert "phantom-member" in node.replica.members

    def test_broadcast_counter_metric(self):
        cluster = built_cluster()
        cluster.broadcast("n0", "a")
        cluster.broadcast("n1", "b")
        assert cluster.sim.metrics.counter("atum.broadcasts_started") == 2

    def test_broadcast_ids_do_not_depend_on_earlier_clusters_in_the_process(self):
        # The id counter is per run: a process-global one made the id -- and,
        # through stable_hash(bcast_id), the cycles a "double" forward
        # travels -- depend on how many broadcasts earlier clusters sent.
        def ids_and_cycles():
            cluster = built_cluster(seed=11)
            ids = [cluster.broadcast(f"n{index}", index) for index in range(5)]
            # A re-created node with a reused address must not repeat an id.
            ids.append(cluster.broadcast("n0", "again"))
            return ids, [list(forward_cycles("double", i, 5)) for i in ids]

        first = ids_and_cycles()
        assert first == ids_and_cycles()
        assert first[0][0] == "bc-n0-1"
        assert len(set(first[0])) == 6
        assert len({tuple(cycles) for cycles in first[1]}) > 1

    def test_delivered_order_tracks_delivery_sequence(self):
        cluster = built_cluster(seed=5)
        first = cluster.broadcast("n0", "first")
        cluster.run(until=30.0)
        second = cluster.broadcast("n1", "second")
        cluster.run(until=60.0)
        order = cluster.node("n3").delivered_order
        assert order.index(first) < order.index(second)


class TestAsyncNodeBehaviour:
    def test_async_forwards_without_round_alignment(self):
        params = small_params(smr_kind=SmrKind.ASYNC)
        cluster = AtumCluster(params, seed=3)
        cluster.build_static([f"n{i}" for i in range(24)])
        start = cluster.sim.now
        bcast = cluster.broadcast("n0", "fast")
        cluster.run(until=60.0)
        latencies = cluster.delivery_latencies(bcast, start)
        assert cluster.delivery_fraction(bcast) == 1.0
        # No synchronous rounds: the whole dissemination completes well below
        # a single Sync round budget.
        assert max(latencies) < 5.0
