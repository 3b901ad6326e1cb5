"""A vgroup's shared forward plan changes nothing but who builds it.

Each run below goes twice: once as is, where the first member of a vgroup to
forward a broadcast builds the plan and its co-members read it, and once with
a plan table that stores nothing, so that every member builds its own.  The
two runs must be the same run: the same deliveries at the same times, the
same shares, skips and deferred sends, the same number of kernel events and
the same draws from the network's random stream.
"""

import pytest

from repro.core import AtumCluster, AtumParameters, SmrKind
from repro.workloads.churn import ChurnConfig, ChurnWorkload


class _Plans(dict):
    """A plan table that counts the plans built into it."""

    def __init__(self):
        super().__init__()
        self.built = 0

    def __setitem__(self, key, plan):
        self.built += 1
        super().__setitem__(key, plan)


class _NoPlans(_Plans):
    """A plan table that keeps no plan: every forward builds its own."""

    def __setitem__(self, key, plan):
        self.built += 1


def _params(**overrides):
    base = dict(hc=3, rwl=5, gmax=6, gmin=3, smr_kind=SmrKind.SYNC, round_duration=0.5)
    base.update(overrides)
    return AtumParameters(**base)


def _broadcasts(cluster, origins, spacing=0.7):
    for index, origin in enumerate(origins):
        cluster.sim.schedule_at(1.0 + spacing * index, lambda o=origin: cluster.broadcast(o, o))


def _flood(forward_fn=None, byzantine=None, params=None, n=40):
    def build(plans):
        cluster = AtumCluster(params or _params(), seed=3)
        cluster._forward_plans = plans
        cluster.build_static([f"n{i}" for i in range(n)])
        for node in cluster.nodes.values():
            node.forward_fn = forward_fn
        if byzantine is not None:
            cluster.make_byzantine([byzantine], "equivocate")
        _broadcasts(cluster, ("n0", "n7", "n15", f"n{n - 10}"))
        cluster.run(until=30.0)
        return cluster

    return build


def _churn(plans):
    params = AtumParameters(hc=3, rwl=6, gmin=4, gmax=8, round_duration=0.5, heartbeat_period=5.0)
    cluster = AtumCluster(params, seed=2, enable_heartbeats=True)
    cluster._forward_plans = plans
    cluster.build_static([f"n{i}" for i in range(60)])
    config = ChurnConfig(rate_per_minute=60.0, duration=20.0, warmup=2.0)
    churn = ChurnWorkload(cluster.engine, config, join_fn=cluster.join)
    rng = cluster.sim.rng.stream("origins")

    def send():
        members = sorted(cluster.correct_member_addresses())
        cluster.broadcast(members[rng.randrange(len(members))], None)

    for index in range(6):
        cluster.sim.schedule_at(2.0 + 3.0 * index, send)
    churn.run()
    cluster.run_until_membership_quiescent()
    cluster.run_for(10.0)
    return cluster


def _fingerprint(cluster):
    counter = cluster.sim.metrics.counter
    return {
        "deliveries": {
            (address, bcast): time
            for address, node in sorted(cluster.nodes.items())
            for bcast, time in node.delivered.items()
        },
        "shares_sent": counter("group.shares_sent"),
        "forwards_suppressed": counter("atum.forwards_suppressed"),
        "forwards_deferred": counter("atum.forwards_deferred"),
        "events": cluster.sim.processed_events,
        "network_rng": cluster.network._rng.getstate(),
    }


ASKED = []


def _always(message, gid):
    ASKED.append((message.bcast_id, gid))
    return True


RUNS = {
    "sync_flood": _flood(),
    "forward_fn_always": _flood(forward_fn=_always),
    "equivocator": _flood(byzantine="n3"),
    "async": _flood(params=_params(smr_kind=SmrKind.ASYNC), n=24),
    "churn": _churn,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_shared_plan_is_the_run_of_a_plan_per_member(name):
    ASKED.clear()
    shared_plans, own_plans = _Plans(), _NoPlans()
    shared = _fingerprint(RUNS[name](shared_plans))
    asked_shared = list(ASKED)
    ASKED.clear()
    alone = _fingerprint(RUNS[name](own_plans))
    assert shared == alone
    assert ASKED == asked_shared
    assert shared["deliveries"] and shared["shares_sent"] > 0
    # The shared run built fewer plans than it forwarded: co-members read them.
    assert 0 < shared_plans.built < own_plans.built


def test_an_always_true_forward_fn_forwards_as_flood():
    ASKED.clear()
    flood = _fingerprint(_flood()(_Plans()))
    asked = _fingerprint(_flood(forward_fn=_always)(_Plans()))
    assert asked == flood
    assert ASKED
