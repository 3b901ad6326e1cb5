"""Sharded parallel scenario runner: fan seeded simulations across cores.

Scenario sweeps (the paper figures, parameter scans, robustness grids) are
embarrassingly parallel: every shard is an independent, seeded simulation.
:func:`run_sharded` maps a shard function over a list of argument tuples —
one tuple per shard — across worker processes, and the results depend only
on those arguments, never on worker count or completion order:

* shards are dispatched with ``Pool.map``, whose results come back in input
  order, so a caller that folds them folds in a fixed order;
* the default start method is ``fork`` where available, so workers inherit
  the parent interpreter's hash salt — a shard computes bit-identical results
  inline, in a forked worker, or under ``workers=1``.

A shard function must be **picklable** (a module-level function) and return
a picklable value.  :func:`repro.faults.scenarios.run_scenario` is the shard
the fault matrix fans out, one ``(seed, scenario_name)`` tuple per cell::

    run_sharded("repro.faults.scenarios:run_scenario",
                [(7, "broadcast/none"), (11, "broadcast/none")], workers=2)

Knobs
-----

* ``workers`` — worker process count; ``None`` reads ``ATUM_RUNPAR_WORKERS``
  and falls back to ``os.cpu_count()``.  ``workers<=1`` (or a single shard)
  runs serially in-process, with no multiprocessing dependency.
* shard seeding — each shard receives its seed among its arguments; derive
  disjoint streams inside the scenario via :func:`repro.sim.rng.derive_seed`.
"""

from __future__ import annotations

import os
from importlib import import_module
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "ATUM_RUNPAR_WORKERS"


def resolve_target(target: "str | Callable[..., Any]") -> Callable[..., Any]:
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


def _target_path(target: "str | Callable[..., Any]") -> Optional[str]:
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


def _run_shard(job: Tuple[str, Tuple[Any, ...]]) -> Any:
    """Worker entry point: resolve the target by path and run one shard."""
    target_path, args = job
    return resolve_target(target_path)(*args)


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
    target: "str | Callable[..., Any]",
    cells: Sequence[Tuple[Any, ...]],
    workers: Optional[int] = None,
) -> List[Any]:
    """Run ``target(*args)`` for every ``args`` in ``cells``; results in input order.

    With ``workers > 1`` shards run in a multiprocessing pool (``fork`` start
    method where available, so workers share the parent's hash salt); the
    returned list order is always the input order regardless of which
    worker finished first.
    """
    cells = list(cells)
    if workers is None:
        workers = default_workers()
    workers = min(workers, len(cells)) if cells else 1
    # Callables that workers cannot re-import (lambdas, partials, nested
    # functions) degrade to a serial run instead of crashing the pool.
    target_path = _target_path(target)
    if workers <= 1 or len(cells) <= 1 or target_path is None:
        fn = resolve_target(target)
        return [fn(*args) for args in cells]

    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    context = mp.get_context("fork" if "fork" in methods else "spawn")
    jobs = [(target_path, args) for args in cells]
    with context.Pool(processes=workers) as pool:
        return pool.map(_run_shard, jobs)


__all__ = [
    "WORKERS_ENV",
    "resolve_target",
    "default_workers",
    "run_sharded",
]
