"""Smoke test of the `stack` benchmark: names, units and the JSON agree.

Runs the whole suite once at ``--scale tiny`` (never a measurement) and
checks that every workload emits every metric ``BENCHMARK.json`` names.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

STACK = Path(__file__).resolve().parents[1]
REPO = STACK.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(STACK / "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_tiny_suite_emits_every_metric_named_in_benchmark_json(tmp_path):
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    listed = json.loads(_run("--list"))
    assert listed["workloads"] == [w["name"] for w in declared["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        assert listed[kind] == [[m["name"], m["unit"]] for m in declared[kind]]

    out = tmp_path / "report.json"
    stdout = _run("--scale", "tiny", "--repeats", "1", "--seed", "7", "--out", str(out))
    report = json.loads(out.read_text())
    assert stdout.rstrip().endswith('"claim": null\n}')
    assert report["correct"] is True
    assert list(report["workloads"]) == listed["workloads"]
    for result in report["workloads"].values():
        assert result["failed"] == 0 and not result["errors"]
        for kind in ("end_to_end", "per_layer"):
            emitted = [[name, m["unit"]] for name, m in result[kind].items()]
            assert emitted == listed[kind]
            for name, unit in emitted:
                assert NAME.fullmatch(name) and unit
