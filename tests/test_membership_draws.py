"""The membership engine's draws and views, pinned against the forms they replaced.

A walk selection runs the one hop loop (:func:`repro.overlay.random_walk.walk_end`),
a walk relay is drawn inline by the rejection sampling ``Random.randrange``
runs, an exchange builds one successor view per side and a view builds its
member set once.  Each test here runs the replaced form beside the engine's on
copies of one state and requires the same vertex, relays, views and RNG state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import AtumCluster
from repro.core.config import AtumParameters, SmrKind
from repro.group.vgroup import VGroupView
from repro.overlay.hgraph import HGraph
from repro.overlay.membership import MembershipEngine
from repro.overlay.random_walk import structural_walk
from repro.sim import Simulator


def make_engine(group_count, hc=3, rwl=6, graph_vertices=None, seed=0):
    """An engine over ``group_count`` one-member vgroups whose H-graph spans
    ``graph_vertices`` of them (default: all; more: vertices whose vgroup is gone)."""
    sim = Simulator(seed=seed)
    engine = MembershipEngine(sim, AtumParameters(hc=hc, rwl=rwl, gmin=1, gmax=8))
    ids = [f"vg-{index}" for index in range(max(group_count, graph_vertices or 0))]
    engine.graph = HGraph.random(ids, hc, random.Random(seed))
    for group_id in ids[:group_count]:
        engine.groups[group_id] = VGroupView.create(group_id, [f"{group_id}-m"])
        engine._group_ids.append(group_id)
    return sim, engine


def walk_select_before(engine, start_group):
    """``MembershipEngine._walk_select`` as it was: a ``structural_walk``."""
    if engine.graph is None or not engine.groups:
        return None
    start = start_group if start_group in engine.groups else engine._rng.choice(engine._group_ids)
    if len(engine.groups) == 1:
        return start
    outcome = structural_walk(engine.graph, start, engine.params.rwl, engine._rng)
    if outcome.selected not in engine.groups:
        return engine._rng.choice(engine._group_ids)
    return outcome.selected


@settings(max_examples=200, deadline=None)
@given(
    group_count=st.integers(min_value=1, max_value=12),
    gone=st.integers(min_value=0, max_value=4),
    hc=st.integers(min_value=1, max_value=4),
    rwl=st.integers(min_value=1, max_value=8),
    start=st.integers(min_value=0, max_value=16),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_a_walk_selection_lands_where_a_structural_walk_did(
    group_count, gone, hc, rwl, start, seed
):
    # ``gone`` graph vertices have no vgroup (the selected-vertex-gone
    # fallback), a start past the vgroups is unknown (the random-start
    # fallback), and one vgroup is the no-walk fallback.
    _, engine = make_engine(group_count, hc, rwl, graph_vertices=group_count + gone, seed=seed)
    start_group = f"vg-{start}"
    state = engine._rng.getstate()
    expected = walk_select_before(engine, start_group)
    expected_state = engine._rng.getstate()
    engine._rng.setstate(state)
    assert engine._walk_select(start_group) == expected
    assert engine._rng.getstate() == expected_state


def test_every_fallback_is_taken():
    # One vgroup: no walk and no draw.
    _, engine = make_engine(1)
    state = engine._rng.getstate()
    assert engine._walk_select("vg-0") == "vg-0"
    assert engine._rng.getstate() == state
    # An unknown start, and a walk that ends where no vgroup is, draw a vgroup.
    _, engine = make_engine(3, graph_vertices=40, seed=1)
    assert engine._walk_select("unknown") in engine.groups
    fell_back = 0
    for _ in range(50):
        probe = random.Random()
        probe.setstate(engine._rng.getstate())
        for _ in range(engine.params.rwl):
            probe.random()
        assert engine._walk_select("vg-0") in engine.groups
        fell_back += engine._rng.getstate() != probe.getstate()
    assert fell_back > 25


def charge_relays_before(engine, walk_count):
    """``_charge_walk_relays`` as it was: ``randrange`` and ``_reserve_relay``."""
    group_ids = engine._group_ids
    occupancy = engine.cost.walk_relay_occupancy(max(1, int(round(engine.average_group_size()))))
    for _ in range(walk_count * engine.params.rwl):
        relay = group_ids[engine._rng.randrange(len(group_ids))]
        duration = occupancy
        if engine.cost_perturbation is not None:
            duration = engine.cost_perturbation(relay, duration)
        start = max(
            engine.sim.now,
            engine._busy_until.get(relay, 0.0),
            engine._relay_busy_until.get(relay, 0.0),
        )
        engine._relay_busy_until[relay] = start + duration


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("group_count", [1, 2, 3, 4, 7, 8, 63, 64, 65])
def test_an_inline_relay_draw_is_a_randrange_draw(group_count, perturbed):
    def run(charge):
        sim, engine = make_engine(group_count, seed=group_count)
        sim.schedule_at(1.5, lambda: None)
        sim.run()
        for index, group_id in enumerate(engine._group_ids):
            if index % 3 == 0:
                engine._busy_until[group_id] = 1.0 + index * 0.25
            if index % 4 == 1:
                engine._relay_busy_until[group_id] = 2.0 + index * 0.125
        drawn = []

        def perturbation(group_id, duration):
            drawn.append(group_id)
            return duration * (1.0 + int(group_id[3:]) % 3)

        if perturbed:
            engine.cost_perturbation = perturbation
        charge(engine, 5)
        return drawn, dict(engine._relay_busy_until), engine._rng.getstate()

    before = run(charge_relays_before)
    after = run(lambda engine, walks: engine._charge_walk_relays(walks))
    assert after == before
    if perturbed:
        assert len(after[0]) == 5 * 6


@settings(max_examples=100, deadline=None)
@given(
    members=st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=10),
    arriving=st.integers(min_value=31, max_value=40),
    epoch=st.integers(min_value=0, max_value=50),
    pick=st.integers(min_value=0),
)
def test_an_exchange_builds_the_view_remove_then_add_built(members, arriving, epoch, pick):
    view = VGroupView.create("vg-1", [f"n{m}" for m in members], epoch=epoch)
    leaving = view.members[pick % view.size]
    swapped = view.exchange(leaving, f"n{arriving}")
    expected = view.remove(leaving).add(f"n{arriving}")
    assert swapped == expected
    assert (swapped.members, swapped.epoch) == (expected.members, epoch + 2)


def test_a_view_builds_its_member_set_once():
    view = VGroupView.create("vg-1", ["b", "a", "c"])
    assert view.member_set is view.member_set
    assert view.member_set == frozenset(view.members)
    assert hash(view) == hash(VGroupView.create("vg-1", ["a", "b", "c"]))


def test_every_layer_of_a_node_holds_its_view_s_own_member_set():
    params = AtumParameters(
        hc=3, rwl=6, gmin=4, gmax=8, heartbeat_period=1.0, smr_kind=SmrKind.ASYNC
    )
    cluster = AtumCluster(params, seed=3, enable_heartbeats=True)
    cluster.build_static([f"n{i}" for i in range(24)])
    cluster.engine.leave("n5")
    cluster.run_until_membership_quiescent()
    cluster.run_for(3.0)
    views = list(cluster.engine.groups.values())
    assert any(view.epoch > 0 for view in views)
    for view in views:
        for address in view.members:
            node = cluster.node(address)
            assert node.heartbeats.peers is view.members
            assert node.heartbeats._peer_set is view.member_set
            # A replica is built from its node's first view, then reconfigured.
            if view.epoch > 0:
                assert node.replica._member_set is view.member_set
            assert node.replica._member_set == view.member_set
    # The clock's tallies key on those sets themselves.
    tallies = cluster.heartbeat_clock._tallies
    assert tallies and all(any(key is view.member_set for view in views) for key in tallies)


def test_a_bare_peers_tuple_gets_a_set_that_agrees_with_it():
    cluster = AtumCluster(AtumParameters(heartbeat_period=1.0), seed=3, enable_heartbeats=True)
    cluster.build_static([f"n{i}" for i in range(6)])
    monitor = cluster.node("n0").heartbeats
    view_set = cluster.engine.group_of("n0").member_set
    cluster.run_for(1.5)
    assert monitor._peer_set is view_set
    # Assigned bare after a view's set was handed over: the tick builds the
    # tuple's own set instead of keeping the view's.
    monitor.peers = ("n0", "n1", "n2")
    cluster.run_for(1.0)
    assert monitor._peer_set == frozenset({"n0", "n1", "n2"})
    assert monitor._others == ("n1", "n2")
