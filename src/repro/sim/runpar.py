"""Sharded parallel scenario runner: fan seeded simulations across cores.

Scenario sweeps (the paper figures, parameter scans, robustness grids) are
embarrassingly parallel: every shard is an independent, seeded simulation.
This module fans a list of seeds across worker processes and merges the
per-shard metric snapshots **deterministically** — results depend only on the
seeds and the scenario, never on worker count or completion order:

* shards are dispatched with ``Pool.map``, whose results come back in input
  order, and merged in that order;
* counters are summed and histogram samples concatenated in seed order, so
  float accumulation order is fixed;
* the default start method is ``fork`` where available, so workers inherit
  the parent interpreter's hash salt — a shard computes bit-identical results
  inline, in a forked worker, or under ``workers=1``.

A shard function must be **picklable** (a module-level function) and return a
plain-dict snapshot::

    {"counters": {name: float}, "histograms": {name: [samples...]}}

:func:`repro.faults.scenarios.scenario_shard` is the shard the fault matrix
fans out; the determinism tests drive it through :func:`run_sharded`.

Knobs
-----

* ``workers`` — worker process count; ``None`` reads ``ATUM_RUNPAR_WORKERS``
  and falls back to ``os.cpu_count()``.  ``workers<=1`` (or a single shard)
  runs serially in-process, with no multiprocessing dependency.
* shard seeding — each shard receives one seed from ``seeds``; derive
  disjoint streams inside the scenario via :func:`repro.sim.rng.derive_seed`.
"""

from __future__ import annotations

import os
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.metrics import Histogram

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "ATUM_RUNPAR_WORKERS"

ShardResult = Dict[str, Any]


def resolve_target(target: "str | Callable[..., ShardResult]") -> Callable[..., ShardResult]:
    """Resolve a shard function from a ``"module:function"`` path (or pass through)."""
    if callable(target):
        return target
    module_name, _, attr = target.partition(":")
    if not attr:
        raise ValueError(f"shard target {target!r} must look like 'module:function'")
    fn = getattr(import_module(module_name), attr)
    if not callable(fn):
        raise TypeError(f"shard target {target!r} is not callable")
    return fn


def _target_path(target: "str | Callable[..., ShardResult]") -> Optional[str]:
    """Importable ``module:function`` path of ``target``, or ``None``.

    ``None`` means the callable cannot be re-imported by a worker process
    (lambda, nested function, ``functools.partial``, methods); such targets
    still work, but only serially.
    """
    if isinstance(target, str):
        return target
    module = getattr(target, "__module__", None)
    qualname = getattr(target, "__qualname__", None)
    if not module or not qualname or "." in qualname or "<" in qualname:
        return None
    return f"{module}:{qualname}"


def _run_shard(job: Tuple[str, int, Dict[str, Any]]) -> ShardResult:
    """Worker entry point: resolve the target by path and run one seed."""
    target_path, seed, kwargs = job
    return resolve_target(target_path)(seed, **kwargs)


def default_workers() -> int:
    """Worker count from ``ATUM_RUNPAR_WORKERS``, else ``os.cpu_count()``."""
    raw = os.environ.get(WORKERS_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def run_sharded(
    target: "str | Callable[..., ShardResult]",
    seeds: Sequence[int],
    workers: Optional[int] = None,
    kwargs: Optional[Dict[str, Any]] = None,
) -> List[ShardResult]:
    """Run ``target(seed, **kwargs)`` for every seed; results in seed order.

    With ``workers > 1`` shards run in a multiprocessing pool (``fork`` start
    method where available, so workers share the parent's hash salt); the
    returned list order is always the input seed order regardless of which
    worker finished first.
    """
    kwargs = kwargs or {}
    seeds = list(seeds)
    if workers is None:
        workers = default_workers()
    workers = min(workers, len(seeds)) if seeds else 1
    # Callables that workers cannot re-import (lambdas, partials, nested
    # functions) degrade to a serial run instead of crashing the pool.
    target_path = _target_path(target)
    if workers <= 1 or len(seeds) <= 1 or target_path is None:
        fn = resolve_target(target)
        return [fn(seed, **kwargs) for seed in seeds]

    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    context = mp.get_context("fork" if "fork" in methods else "spawn")
    jobs = [(target_path, seed, kwargs) for seed in seeds]
    with context.Pool(processes=workers) as pool:
        return pool.map(_run_shard, jobs)


def merge_shards(results: Iterable[ShardResult]) -> ShardResult:
    """Deterministically merge shard snapshots (in the given order).

    Counters are summed and histogram samples concatenated in iteration
    order, so the merged result is bit-identical however the shards were
    computed.  The merged ``histograms`` values are :class:`Histogram`
    instances ready for ``mean``/``percentile``/``cdf`` queries.
    """
    counters: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}
    shards = 0
    for result in results:
        shards += 1
        for name, value in result.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + value
        for name, samples in result.get("histograms", {}).items():
            histogram = histograms.get(name)
            if histogram is None:
                histogram = histograms[name] = Histogram()
            histogram.samples.extend(samples)
    return {"shards": shards, "counters": counters, "histograms": histograms}


def run_and_merge(
    target: "str | Callable[..., ShardResult]",
    seeds: Sequence[int],
    workers: Optional[int] = None,
    kwargs: Optional[Dict[str, Any]] = None,
) -> ShardResult:
    """Convenience wrapper: :func:`run_sharded` then :func:`merge_shards`."""
    return merge_shards(run_sharded(target, seeds, workers=workers, kwargs=kwargs))


__all__ = [
    "WORKERS_ENV",
    "ShardResult",
    "resolve_target",
    "default_workers",
    "run_sharded",
    "merge_shards",
    "run_and_merge",
]
