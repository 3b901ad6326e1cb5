"""Figure 13: exchange completion rate under aggressive growth.

Grows a system to 400 nodes at join rates of 8%, 20% and 24% of the current
size per minute.  Faster growth generates more concurrent shuffle operations,
so more node exchanges find their chosen partner vgroup busy and are
suppressed.  The paper reports that the exchange completion rate drops as the
join rate rises (flexibility is bought at the price of composition quality),
while the system grows faster.
"""

from repro.analysis import format_table
from repro.core.config import AtumParameters, SmrKind
from repro.overlay.membership import MembershipEngine
from repro.sim import Simulator
from repro.workloads import GrowthConfig, GrowthWorkload


def _grow_at(join_fraction: float, target: int, seed: int) -> GrowthWorkload:
    params = AtumParameters.for_system_size(target, SmrKind.SYNC)
    sim = Simulator(seed=seed)
    engine = MembershipEngine(sim, params)
    workload = GrowthWorkload(
        engine,
        GrowthConfig(
            target_size=target,
            join_fraction_per_minute=join_fraction,
            provisioning_delay=10.0,
            max_duration=40_000.0,
        ),
    )
    workload.run()
    return workload


def _run(scale):
    target = 400
    rows = []
    for join_fraction in (0.08, 0.20, 0.24):
        workload = _grow_at(join_fraction, target, seed=int(join_fraction * 100))
        rows.append(
            {
                "join_rate_percent_per_min": round(join_fraction * 100, 1),
                "time_to_400_nodes_s": round(workload.time_to_reach(target) or float("nan"), 1),
                "exchanges_attempted": int(
                    workload.sim.metrics.counter("membership.exchanges_attempted")
                ),
                "exchange_completion_rate": round(workload.exchange_completion_rate(), 3),
            }
        )
    return rows


def test_fig13_exchange_completion(benchmark, scale):
    rows = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Figure 13: exchange completion rate vs join rate (growth to N=400)"))

    by_rate = {row["join_rate_percent_per_min"]: row for row in rows}
    # Faster joining grows the system faster...
    assert by_rate[24.0]["time_to_400_nodes_s"] < by_rate[8.0]["time_to_400_nodes_s"]
    # ...but suppresses more exchanges (lower completion rate).
    assert by_rate[24.0]["exchange_completion_rate"] <= by_rate[8.0]["exchange_completion_rate"]
    # Every run produced a meaningful number of exchange attempts.
    assert all(row["exchanges_attempted"] > 100 for row in rows)
