"""`stack`: the repository's benchmark of the real ``AtumCluster`` path.

Two ways in, one measurement underneath:

* the driver's contract --
  ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures one
  workload and prints one JSON object as the last line of standard output
  (end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``);
* the whole suite -- ``run.py --seed 7 [--out report.json]`` runs all five
  workloads (timed repeats, then one traced run each), prints every metric by
  name with its unit and writes a report ``compare.py`` reads.

Every measurement is a fresh child interpreter with ``PYTHONHASHSEED=0``,
one after another (the sandbox has two cores; nothing runs concurrently).
Host metrics are medians over the children, in seconds rescaled to one
reference host's speed (``hostclock.py``: the sandbox's own speed swings by
1.8x within seconds); simulated metrics must be bit-identical across the
children or the run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (sibling module; needs HERE on the path)
from hostclock import HostClock, burst  # noqa: E402

CHILD_TIMEOUT_S = 170
MIN_REPEATS, MAX_REPEATS = 3, 12


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy number."""


# ---------------------------------------------------------------------- child


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(cluster, outcome) -> Dict[str, float]:
    """Exact per-layer counts, read from the public metrics registry."""
    c = cluster.sim.metrics.counter
    ops = outcome.completed
    sent = c("net.messages_sent")
    dropped = c("net.messages_lost") + c("net.messages_partitioned") + c("net.messages_undeliverable")
    decided = c("smr.decided")
    votes = c("smr.pbft.view_changes")
    # An AE pull is done when the ids land (through gossip, not a reply), which
    # the request layer counts apart from replied requests.
    requests_done = c("req.completed") + c("req.resolved_externally")
    counts = {
        "sim.events": float(cluster.sim.processed_events),
        "sim.events_per_op": _ratio(cluster.sim.processed_events, ops),
        "net.msgs_sent": sent,
        "net.msgs_delivered": c("net.messages_delivered"),
        "net.msgs_dropped": dropped,
        "net.bytes_sent": c("net.bytes_sent"),
        "net.msgs_per_op": _ratio(sent, ops),
        "net.requests.sent": c("req.sent"),
        "net.requests.completed": requests_done,
        "net.requests.timeouts": c("req.timeouts"),
        "net.requests.useful_ratio": _ratio(requests_done, c("req.sent")),
        "group.shares_sent": c("group.shares_sent"),
        "group.msgs_accepted": c("group.messages_accepted"),
        "group.shares_per_accept": _ratio(c("group.shares_sent"), c("group.messages_accepted")),
        "group.ae.summaries_sent": c("ae.summaries_sent"),
        "group.ae.shares_resent": c("ae.shares_resent"),
        # Useful = a summary that exposed a gap its receiver then pulled.
        "group.ae.useful_ratio": _ratio(c("ae.requests_sent"), c("ae.summaries_sent")),
        "overlay.joins_completed": c("membership.joins_completed"),
        "overlay.leaves_completed": c("membership.leaves_completed"),
        "overlay.splits": c("membership.splits"),
        "overlay.merges": c("membership.merges"),
        "overlay.exchanges_completed": c("membership.exchanges_completed"),
        "overlay.pending_at_end": 0.0,
        "smr.decided_ops": decided,
        "smr.view_change_votes": votes,
        "smr.view_change_votes_per_op": _ratio(votes, decided),
        "smr.checkpoints_stable": c("smr.checkpoint.stable"),
        "smr.transfers_completed": c("smr.checkpoint.transfers_completed"),
        "smr.catchup_sim_s_max": 0.0,
        "smr.msgs_per_decided_op": _ratio(sent, decided),
        "core.churn_bcast_delivered_share": 0.0,
        "faults.msgs_dropped": c("faults.messages_dropped"),
        "faults.msgs_duplicated": c("faults.messages_duplicated"),
        "faults.violations": float(len(cluster.monitor.violations)) if cluster.monitor else 0.0,
    }
    counts.update(outcome.extra)
    return counts


def traced_metrics(profile, counts: Dict[str, float]) -> Dict[str, float]:
    """Host time per module and the counts only the profile can see."""
    metrics: Dict[str, float] = {}
    for module in spec.MODULES:
        metrics[f"{module}.self_s"] = profile.self_s.get(module, 0.0)
    for module in spec.CALLS_MODULES:
        metrics[f"{module}.calls"] = float(profile.calls.get(module, 0))
    for layer in spec.LAYERS:
        layer_s = sum(s for module, s in profile.self_s.items() if module.startswith(layer + "."))
        metrics[f"{layer}.share"] = _ratio(layer_s, profile.wall_s)
    intercepted = float(profile.calls_named("_schedule_intercepted"))
    sent = counts["net.msgs_sent"]
    metrics["net.intercepted_calls"] = intercepted
    metrics["net.fastpath_share"] = 1.0 - _ratio(intercepted, sent)
    metrics["crypto.digest_calls_per_msg"] = _ratio(profile.calls.get("crypto.digest", 0), sent)
    metrics["core.mw.on_send_calls"] = float(profile.calls_named("on_send", "_count_send"))
    metrics["core.mw.on_deliver_calls"] = float(profile.calls_named("on_deliver"))
    metrics["trace.wall_s"] = profile.wall_s
    metrics["trace.attributed_share"] = _ratio(profile.attributed_s, profile.wall_s)
    return metrics


def child_main(args) -> int:
    """One measurement in this (fresh) interpreter; prints one JSON object."""
    # Counts from the parent's clock reading, so interpreter start-up is in.
    clock = HostClock(args.spawned_at, args.spawned_burst)
    clock.start()
    sys.path.insert(0, str(SRC))
    import workloads  # imports repro: part of the set-up the user pays
    from repro.sim.metrics import Histogram

    prepared = workloads.prepare(args.workload, args.seed, args.scale)
    if args.trace:
        from trace import ModuleProfile

        # No bursts under the profiler: they would be profiled, and the traced
        # child gives shares of its own wall, never an end-to-end number.
        setup_s, _ = clock.stop()
        profile = ModuleProfile(SRC / "repro", HERE, spec.MODULES)
        profile.run(prepared.timed)
        timed_s = raw_timed_s = profile.wall_s
    else:
        profile = None
        setup_s, _ = clock.lap()
        prepared.timed()
        timed_s, raw_timed_s = clock.stop()

    outcome = prepared.result()
    latency = Histogram(outcome.latencies)
    counts = layer_counts(prepared.cluster, outcome)
    sample = hashlib.sha256(repr(outcome.latencies).encode()).hexdigest()
    report = {
        "setup_s": setup_s,            # reference-host seconds (hostclock.py)
        "timed_s": timed_s,            # reference-host seconds, raw when traced
        "raw_timed_s": raw_timed_s,    # wall seconds of this host
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "errors": outcome.errors,
        # What must repeat exactly, run after run, for one (workload, seed).
        "fingerprint": {
            "sim.events": counts["sim.events"],
            "net.msgs_sent": counts["net.msgs_sent"],
            "attempted": outcome.attempted,
            "completed": outcome.completed,
            "samples": latency.count,
            "sim_latency_p50_s": latency.percentile(50.0),
            "sim_latency_p95_s": latency.percentile(95.0),
            "latency_sample_sha256": sample,
        },
        "counts": counts,
        "traced": traced_metrics(profile, counts) if profile is not None else None,
    }
    print(json.dumps(report))
    return 0


# --------------------------------------------------------------------- parent


def spawn(workload: str, seed: int, scale: str, trace: bool) -> dict:
    """Run one child to completion and return its report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", "1" if trace else "0",
        "--spawned-burst", repr(burst()),
        "--spawned-at", repr(time.perf_counter()),  # CLOCK_MONOTONIC is shared
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchError(f"{workload}: child exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def _same_fingerprint(workload: str, what: str, first: dict, other: dict) -> None:
    if first != other:
        differing = sorted(key for key in first if first[key] != other.get(key))
        raise BenchError(
            f"{workload}: not deterministic -- {what} differ in {differing}: "
            f"{ {k: (first[k], other.get(k)) for k in differing} }"
        )


def measure(
    workload: str,
    seed: int,
    scale: str,
    seconds: float,
    repeats: Optional[int],
    traced: bool,
) -> dict:
    """Timed repeats (and optionally the traced run) of one workload."""
    if scale == "full":
        spawn(workload, seed, "tiny", trace=False)  # discarded: warms the OS file cache
    children: List[dict] = []

    def enough() -> bool:
        if repeats is not None:
            return len(children) >= repeats
        measured_s = sum(child["raw_timed_s"] for child in children)
        return len(children) >= MAX_REPEATS or (
            len(children) >= MIN_REPEATS and measured_s >= seconds
        )

    while not enough():
        children.append(spawn(workload, seed, scale, trace=False))
    first = children[0]
    for other in children[1:]:
        _same_fingerprint(workload, "two repeats", first["fingerprint"], other["fingerprint"])
    errors = list(first["errors"])
    fingerprint = first["fingerprint"]
    ops = first["completed"]

    def host(values: List[float], unit: str) -> dict:
        quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"value": statistics.median(values), "unit": unit, "min": min(values),
                "max": max(values), "iqr": quartiles[2] - quartiles[0], "n": len(values)}

    def sim(value: float, unit: str) -> dict:
        return host([value] * len(children), unit)

    end_to_end = {
        "setup_s": host([c["setup_s"] for c in children], "s"),
        "ops_per_s": host([ops / c["timed_s"] for c in children], "ops/s"),
        "sim_latency_p50_s": sim(fingerprint["sim_latency_p50_s"], "sim_s"),
        "sim_latency_p95_s": sim(fingerprint["sim_latency_p95_s"], "sim_s"),
        "completed_share": sim(_ratio(ops, first["attempted"]), "fraction"),
        "peak_rss_mb": host([c["peak_rss_mb"] for c in children], "MB"),
    }

    per_layer = None
    if traced:
        traced_child = spawn(workload, seed, scale, trace=True)
        _same_fingerprint(
            workload, "the traced and untraced runs", fingerprint, traced_child["fingerprint"]
        )
        values = dict(traced_child["counts"])
        values.update(traced_child["traced"])
        values["sim.events_per_s"] = values["sim.events"] / statistics.median(
            c["timed_s"] for c in children
        )
        # Wall over wall: the traced child has no reference-host time.
        values["trace.overhead_ratio"] = traced_child["raw_timed_s"] / statistics.median(
            c["raw_timed_s"] for c in children
        )
        per_layer = {
            name: {"value": values[name], "unit": unit} for name, unit, _ in spec.PER_LAYER
        }

    return {
        "workload": workload,
        "attempted": first["attempted"],
        "failed": first["attempted"] - ops,
        "samples": fingerprint["samples"],
        "errors": errors,
        "fingerprint": fingerprint,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def run_metadata() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "scipy": scipy_version,
        "host.calib_s": burst(),  # hostclock's fixed kernel, timed once; never gated
    }


def print_workload(result: dict) -> None:
    print(f"== {result['workload']}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, {result['samples']} latency samples")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<28} {m['value']:>16.6f} {m['unit']:<9}"
              f" min {m['min']:.6f} max {m['max']:.6f} iqr {m['iqr']:.6f} n={m['n']}")
    for name, m in (result["per_layer"] or {}).items():
        print(f"  {name:<36} {m['value']:>16.6f} {m['unit']}")
    for error in result["errors"]:
        print(f"  INCORRECT: {error}")


def suite(args) -> int:
    """All workloads, the flood/mw differential check, and the report."""
    report = {"benchmark": "stack", "seed": args.seed, "scale": args.scale,
              "meta": run_metadata(), "workloads": {}}
    print(f"stack benchmark, seed {args.seed}, scale {args.scale}: {report['meta']}")
    for name, _ in spec.WORKLOADS:
        result = measure(name, args.seed, args.scale, args.seconds, args.repeats, traced=True)
        print_workload(result)
        report["workloads"][name] = result
    flood, hooked = (report["workloads"][n] for n in ("bcast_sync_flood", "bcast_sync_mw"))
    # Standing differential check (ROADMAP 5b): a hook that decides nothing
    # must not change a single event, message or latency.
    _same_fingerprint("bcast_sync_mw", "it and bcast_sync_flood",
                      flood["fingerprint"], hooked["fingerprint"])
    report["correct"] = not any(r["errors"] for r in report["workloads"].values())
    report["claim"] = None  # this benchmark defines the names; it claims no gain
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if report["correct"] else 1


def driver(args) -> int:
    """One workload under the driver's contract: one JSON object, last line."""
    traced = bool(args.trace)
    result = measure(args.workload, args.seed, args.scale, args.seconds,
                     1 if traced and args.repeats is None else args.repeats, traced)
    print_workload(result)
    metrics = result["per_layer"] if traced else result["end_to_end"]
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


def listing() -> int:
    print(json.dumps({
        "workloads": [name for name, _ in spec.WORKLOADS],
        "end_to_end": [[name, unit] for name, unit, _, _ in spec.END_TO_END],
        "per_layer": [[name, unit] for name, unit, _ in spec.PER_LAYER],
    }, indent=1))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="host seconds of timed region to collect per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--repeats", type=int, help="fixed number of timed repeats")
    parser.add_argument("--out", help="suite mode: also write the report here")
    parser.add_argument("--list", action="store_true", help="print workload and metric names")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-burst", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.list:
        return listing()
    if not (SRC / "repro").is_dir():
        print(f"stack benchmark: {SRC / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    try:
        return driver(args) if args.workload else suite(args)
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"stack benchmark failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
