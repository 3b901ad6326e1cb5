"""Figure 7: maximal tolerated churn rates.

For systems of 50 to 800 nodes, find the highest continuous churn rate
(re-joins per minute, with ~5-6 minute session times) the system sustains.
Three configurations are compared, as in the paper: Sync with (rwl, hc) =
(6, 8), Sync with (11, 5), and Async.  The paper reports that (a) absolute
tolerated churn grows with system size, (b) shorter random walks allow higher
churn, and (c) Async tolerates more churn than Sync (roughly 22.5% versus 18%
of the nodes per minute).
"""

from dataclasses import replace

from repro.analysis import format_table
from repro.core.config import AtumParameters, SmrKind
from repro.overlay.membership import MembershipEngine
from repro.sim import Simulator
from repro.workloads import max_sustainable_churn

CONFIGS = [
    {"label": "SYNC (rwl=6, hc=8)", "kind": SmrKind.SYNC, "rwl": 6, "hc": 8},
    {"label": "SYNC (rwl=11, hc=5)", "kind": SmrKind.SYNC, "rwl": 11, "hc": 5},
    {"label": "ASYNC (guideline)", "kind": SmrKind.ASYNC, "rwl": None, "hc": None},
]


def _engine_factory(system_size, config, seed):
    def factory():
        params = AtumParameters.for_system_size(system_size, config["kind"])
        if config["rwl"] is not None:
            params = replace(params, rwl=config["rwl"], hc=config["hc"])
        sim = Simulator(seed=seed)
        engine = MembershipEngine(sim, params)
        engine.build_static([f"n{i}" for i in range(system_size)])
        return engine

    return factory


def _run(scale):
    sizes = [50, 100, 200, 400] if scale == 1 else [50, 100, 200, 400, 800]
    duration = 90.0 * scale
    rows = []
    for size in sizes:
        row = {"system_size": size}
        for config in CONFIGS:
            candidate_fractions = [0.06, 0.10, 0.14, 0.18, 0.225, 0.27, 0.33, 0.40]
            rates = [fraction * size for fraction in candidate_fractions]
            best = max_sustainable_churn(
                _engine_factory(size, config, seed=size), rates_per_minute=rates, duration=duration
            )
            row[config["label"]] = round(best, 1)
            row[f"{config['label']} (%/min)"] = round(100.0 * best / size, 1)
        rows.append(row)
    return rows


def test_fig7_churn(benchmark, scale):
    rows = benchmark.pedantic(_run, args=(scale,), rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Figure 7: maximal sustained churn (re-joins/minute)"))

    sync_short = [row["SYNC (rwl=6, hc=8)"] for row in rows]
    sync_long = [row["SYNC (rwl=11, hc=5)"] for row in rows]
    asynchronous = [row["ASYNC (guideline)"] for row in rows]

    # (a) absolute tolerated churn grows with system size for every config.
    assert sync_short == sorted(sync_short)
    assert asynchronous == sorted(asynchronous)
    # (b) shorter random walks tolerate at least as much churn as longer ones.
    assert all(short >= long for short, long in zip(sync_short, sync_long))
    # (c) Async sustains at least as much churn as Sync.
    assert all(a >= s for a, s in zip(asynchronous, sync_long))
    # (d) the relative churn magnitude is in the paper's ballpark (>= ~10%/min
    #     for the largest system measured).
    assert rows[-1]["ASYNC (guideline) (%/min)"] >= 10.0
