"""atumlint CLI: ``python -m repro.lint [targets ...]``.

Modes
-----
(default)            lint, print findings, exit 1 if any
--check              strict CI mode: also fail on a stale metrics registry
                     or a stale docs/METRICS.md
--gen-metrics        regenerate src/repro/lint/metrics_registry.py
--gen-metrics-doc    regenerate docs/METRICS.md
--json PATH          additionally write the findings report as JSON
--list-rules         print the rule table and exit
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.core import run_lint, registered_rules
from repro.lint.metrics_scan import (
    registry_diff,
    render_doc,
    render_registry,
    scan_metrics,
)


def find_root(start: Path) -> Path:
    """The repo root: nearest ancestor containing ``src/repro``."""
    for candidate in [start, *start.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="atumlint: determinism & protocol-hygiene static analysis",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        help="files/directories to lint (default: src/repro under the repo root)",
    )
    parser.add_argument("--root", type=Path, default=None, help="repo root override")
    parser.add_argument(
        "--check",
        action="store_true",
        help="strict CI mode: fail on findings, a stale metrics registry or "
        "a stale docs/METRICS.md",
    )
    parser.add_argument(
        "--rules", default=None, help="comma-separated rule ids (default: all)"
    )
    parser.add_argument("--json", type=Path, default=None, help="write findings JSON")
    parser.add_argument(
        "--gen-metrics",
        action="store_true",
        help="regenerate src/repro/lint/metrics_registry.py",
    )
    parser.add_argument(
        "--gen-metrics-doc", action="store_true", help="regenerate docs/METRICS.md"
    )
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-finding output"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    root = (args.root or find_root(Path.cwd())).resolve()
    targets = (
        [Path(t) for t in args.targets] if args.targets else [root / "src" / "repro"]
    )
    registry_path = root / "src" / "repro" / "lint" / "metrics_registry.py"
    doc_path = root / "docs" / "METRICS.md"

    if args.list_rules:
        for rule_id, cls in sorted(registered_rules().items()):
            print(f"{rule_id}  {cls.title}")
        return 0

    if args.gen_metrics or args.gen_metrics_doc:
        metrics = scan_metrics(targets, root)
        if args.gen_metrics:
            registry_path.write_text(render_registry(metrics), encoding="utf-8")
            print(f"wrote {registry_path.relative_to(root)} ({len(metrics)} names)")
        if args.gen_metrics_doc:
            doc_path.parent.mkdir(parents=True, exist_ok=True)
            doc_path.write_text(render_doc(metrics), encoding="utf-8")
            print(f"wrote {doc_path.relative_to(root)}")
        return 0

    rule_ids = (
        [r.strip() for r in args.rules.split(",") if r.strip()] if args.rules else None
    )
    findings = run_lint(targets, root, rule_ids)

    failures: List[str] = []
    if not args.quiet:
        for finding in findings:
            print(finding)
    if findings:
        failures.append(f"{len(findings)} finding(s)")

    if args.check:
        from repro.lint.metrics_registry import METRICS

        scanned = scan_metrics(targets, root)
        stale_registry, orphaned_registry = registry_diff(scanned, METRICS)
        for name in stale_registry:
            print(f"metric {name!r} used in code but missing from the registry")
        for name in orphaned_registry:
            print(f"metric {name!r} in the registry but no longer used anywhere")
        if stale_registry or orphaned_registry:
            failures.append(
                "stale metrics registry (run python -m repro.lint --gen-metrics)"
            )
        if doc_path.exists():
            doc_stale = doc_path.read_text(encoding="utf-8") != render_doc(scanned)
        else:
            doc_stale = True
        if doc_stale:
            print("docs/METRICS.md is stale (run python -m repro.lint --gen-metrics-doc)")
            failures.append("stale docs/METRICS.md")

    if args.json is not None:
        report = {
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "message": f.message,
                    "snippet": f.snippet,
                }
                for f in findings
            ],
            "ok": not failures,
        }
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    if failures:
        print(f"atumlint: FAIL ({'; '.join(failures)})", file=sys.stderr)
        return 1
    print("atumlint: OK (0 findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
