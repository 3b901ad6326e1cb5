"""ATL006 support: scan metric names, generate the registry and METRICS.md.

The registry (:mod:`repro.lint.metrics_registry`) is *generated* from the
code and committed: the lint rule validates every metric name literal
against it, and the CLI's stale check fails when the committed registry
and a fresh scan disagree in either direction.  Regenerating is therefore
a deliberate, reviewable act — the diff of the registry file IS the list
of added/removed metric names.

``docs/METRICS.md`` renders the same data as the authoritative index of
every counter/histogram/series name: kind, owning modules, and whether
the name is a ``FAULT_MATRIX.json`` row column.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.core import discover_files
from repro.lint.rules import iter_metric_name_literals

#: Metric names *read* in this module reach ``FAULT_MATRIX.json`` rows; the
#: names it only writes (plan and workload bookkeeping) do not.
MATRIX_MODULE = "repro/faults/scenarios.py"

REGISTRY_HEADER = '''"""GENERATED metric-name registry — do not edit by hand.

Regenerate with ``python -m repro.lint --gen-metrics`` after adding or
removing a metric; ``python -m repro.lint --check`` fails while this file
and the code disagree.  Maps every counter/histogram/series name literal
used anywhere in ``src/repro`` to its kind, the modules that use it, and
whether it surfaces as a ``FAULT_MATRIX.json`` row column.
"""

METRICS = {
'''


@dataclass
class MetricInfo:
    name: str
    kind: str  # "counter" | "histogram" | "series"
    modules: List[str] = field(default_factory=list)
    matrix_column: bool = False


def scan_metrics(targets: Sequence[Path], root: Path) -> Dict[str, MetricInfo]:
    """Collect every literal metric name under ``targets``."""
    found: Dict[str, MetricInfo] = {}
    kinds: Dict[str, Set[str]] = {}
    for path in discover_files(targets):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        module_rel = relpath[4:] if relpath.startswith("src/") else relpath
        for _line, kind, name, read in iter_metric_name_literals(tree):
            info = found.get(name)
            if info is None:
                info = found[name] = MetricInfo(name=name, kind=kind)
                kinds[name] = set()
            kinds[name].add(kind)
            if module_rel not in info.modules:
                info.modules.append(module_rel)
            if read and module_rel == MATRIX_MODULE:
                info.matrix_column = True
    for name, info in found.items():
        # A name used as both .increment and .counter is one counter; a
        # genuine kind clash (counter vs histogram) keeps the first kind
        # and shows both module lists — the doc makes the clash visible.
        info.modules.sort()
        if kinds[name] == {"series"}:
            info.kind = "series"
        elif "histogram" in kinds[name] and "counter" not in kinds[name]:
            info.kind = "histogram"
        elif "counter" in kinds[name]:
            info.kind = "counter"
    return found


def render_registry(metrics: Dict[str, MetricInfo]) -> str:
    lines = [REGISTRY_HEADER]
    for name in sorted(metrics):
        info = metrics[name]
        modules = ", ".join(repr(m) for m in info.modules)
        lines.append(
            f"    {name!r}: {{\n"
            f"        \"kind\": {info.kind!r},\n"
            f"        \"modules\": ({modules}{',' if len(info.modules) == 1 else ''}),\n"
            f"        \"matrix_column\": {info.matrix_column},\n"
            f"    }},\n"
        )
    lines.append('}\n\n__all__ = ["METRICS"]\n')
    return "".join(lines)


DOC_HEADER = """# Metrics index

GENERATED from the metric-name registry — regenerate with
`python -m repro.lint --gen-metrics-doc` (CI fails if this file is stale).

Every counter, histogram and time-series name used anywhere in
`src/repro`, as validated by atumlint rule **ATL006**: a name literal not
in this index is a lint error (typo or unregistered addition), and an
index entry no longer used anywhere fails the stale-registry check.
Names marked as *matrix column* are read by `repro.faults.scenarios` into
`FAULT_MATRIX.json` rows.

| Metric | Kind | Matrix column | Used in |
|---|---|---|---|
"""


def render_doc(metrics: Dict[str, MetricInfo]) -> str:
    rows = []
    for name in sorted(metrics):
        info = metrics[name]
        modules = "<br>".join(f"`{m}`" for m in info.modules)
        matrix = "yes" if info.matrix_column else ""
        rows.append(f"| `{name}` | {info.kind} | {matrix} | {modules} |")
    counts: Dict[str, int] = {}
    for info in metrics.values():
        counts[info.kind] = counts.get(info.kind, 0) + 1
    summary = ", ".join(f"{counts[k]} {k}s" for k in sorted(counts))
    return DOC_HEADER + "\n".join(rows) + f"\n\n{len(metrics)} names ({summary}).\n"


def registry_diff(
    scanned: Dict[str, MetricInfo], registered: Dict[str, dict]
) -> Tuple[List[str], List[str]]:
    """``(missing_from_registry, orphaned_in_registry)`` name lists."""
    missing = sorted(name for name in scanned if name not in registered)
    orphaned = sorted(name for name in registered if name not in scanned)
    return missing, orphaned


__all__ = [
    "MetricInfo",
    "scan_metrics",
    "render_registry",
    "render_doc",
    "registry_diff",
    "MATRIX_MODULE",
]
