"""atumlint — AST-based determinism & protocol-hygiene analysis for this repo.

Every guarantee the reproduction makes (byte-identical golden traces,
multiprocess == serial ``runpar`` merges, a zero-violation fault matrix)
rests on conventions that used to be enforced by review alone: all
randomness through named seeded streams, no wall-clock time on protocol
paths, no order-unstable iteration feeding sends or RNG draws, counted
(never silently swallowed) exceptions, ``__slots__`` consistency on
hot-path classes, registry-checked metric names.  This package turns those
conventions into a machine-checked pass:

* :mod:`repro.lint.core` — findings, pragma suppression, the rule registry
  and the two-pass project index (per-module ASTs plus a cross-module class
  table for inherited-``__slots__`` resolution).
* :mod:`repro.lint.rules` — the rule classes (``ATL001`` .. ``ATL008``).
  Adding a rule is one subclass with a ``@register_rule`` decorator.
* :mod:`repro.lint.metrics_scan` — the ATL006 scanner and the generators
  for :mod:`repro.lint.metrics_registry` and ``docs/METRICS.md``.

CLI: ``python -m repro.lint --check`` (see ``--help``).

The one waiver is a suppression pragma on the flagged line, with a reason::

    value = time.perf_counter()  # atumlint: allow[ATL002] harness wall-clock, not sim time
"""

from repro.lint.core import (
    Finding,
    ProjectIndex,
    Rule,
    register_rule,
    registered_rules,
    run_lint,
)

__all__ = [
    "Finding",
    "ProjectIndex",
    "Rule",
    "register_rule",
    "registered_rules",
    "run_lint",
]
