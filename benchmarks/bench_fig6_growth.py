"""Figure 6: system growth speed.

Grows Sync and Async systems to 800 (and, at higher scale, 1400) nodes by
joining nodes at 8% of the current system size per minute, and reports the
size-over-time curve.  The paper observes exponential growth: because joins
land in randomly selected vgroups, many of them proceed concurrently, so the
absolute growth rate increases with system size.
"""

from repro.analysis import format_table
from repro.core.config import AtumParameters, SmrKind
from repro.overlay.membership import MembershipEngine
from repro.sim import Simulator
from repro.workloads import GrowthConfig, GrowthWorkload


def _grow(kind: SmrKind, target: int, seed: int) -> GrowthWorkload:
    params = AtumParameters.for_system_size(target, kind)
    sim = Simulator(seed=seed)
    engine = MembershipEngine(sim, params)
    workload = GrowthWorkload(
        engine,
        GrowthConfig(
            target_size=target,
            join_fraction_per_minute=0.08,
            provisioning_delay=30.0,
            max_duration=40_000.0,
        ),
    )
    workload.run()
    return workload


def _run(scale):
    targets = [800] if scale == 1 else [800, 1400]
    results = {}
    for kind in (SmrKind.SYNC, SmrKind.ASYNC):
        for target in targets:
            results[(kind, target)] = _grow(kind, target, seed=target)
    return results, targets


def test_fig6_growth(benchmark, scale):
    results, targets = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)
    rows = []
    for (kind, target), workload in results.items():
        checkpoints = {
            f"t_to_{fraction_label}": workload.time_to_reach(int(target * fraction))
            for fraction_label, fraction in (("25%", 0.25), ("50%", 0.5), ("100%", 1.0))
        }
        rows.append(
            {
                "engine": kind.value,
                "target_size": target,
                "reached": int(workload.engine.system_size),
                **{k: (round(v, 1) if v is not None else None) for k, v in checkpoints.items()},
                "exchange_completion": round(workload.exchange_completion_rate(), 3),
            }
        )
    print()
    print(format_table(rows, title="Figure 6: growth to target size at 8%/minute join rate"))

    for (kind, target), workload in results.items():
        assert workload.engine.system_size == target
        quarter = workload.time_to_reach(int(target * 0.25))
        half = workload.time_to_reach(int(target * 0.5))
        full = workload.time_to_reach(target)
        # Exponential growth: the second half of the growth is faster than the
        # first half (paper Figure 6's upward-curving lines).
        assert (full - half) < (half - quarter) * 1.2
        workload.engine.validate()
