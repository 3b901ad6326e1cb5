#!/usr/bin/env python3
"""Growth and churn example: volatile groups under a dynamic membership.

Grows a system from a single bootstrap node to 300 nodes at 10% of the system
size per minute, then applies continuous churn (leave + re-join) and reports
how the vgroup structure (splits, merges, shuffle exchanges) responds.

Run with:  python examples/churn_and_growth.py
"""

from repro.core.config import AtumParameters, SmrKind
from repro.overlay.membership import MembershipEngine
from repro.sim import Simulator
from repro.workloads import ChurnConfig, ChurnWorkload, GrowthConfig, GrowthWorkload


def main() -> None:
    params = AtumParameters.for_system_size(300, SmrKind.SYNC)
    sim = Simulator(seed=5)
    engine = MembershipEngine(sim, params)

    # --- growth ---------------------------------------------------------------
    growth = GrowthWorkload(
        engine,
        GrowthConfig(target_size=300, join_fraction_per_minute=0.10, provisioning_delay=15.0),
    )
    growth.run()
    print(f"grew to {engine.system_size} nodes in {sim.now:.0f} simulated seconds "
          f"({engine.group_count} vgroups, average size {engine.average_group_size():.1f})")
    print(f"splits so far: {int(sim.metrics.counter('membership.splits'))}, "
          f"exchange completion rate {growth.exchange_completion_rate():.2f}")

    # --- churn ----------------------------------------------------------------
    churn = ChurnWorkload(engine, ChurnConfig(rate_per_minute=0.15 * 300, duration=240.0))
    result = churn.run()
    print(f"applied {result.requested_rejoins} re-joins at 15% of the system per minute: "
          f"{'sustained' if result.sustained else 'NOT sustained'}")
    print(f"completed {result.completed_joins} joins and {result.completed_leaves} leaves; "
          f"mean join latency {result.mean_join_latency:.1f}s")
    print(f"merges so far: {int(sim.metrics.counter('membership.merges'))}")

    engine.validate()
    print("membership invariants hold after growth and churn")


if __name__ == "__main__":
    main()
