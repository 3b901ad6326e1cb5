"""ATL002: wall-clock reads outside benchmarks/."""

from lint_utils import REPO_ROOT, lint_fixture, rules_of
from repro.lint import run_lint


def test_flags_time_perfcounter_and_datetime_now():
    findings = lint_fixture("atl002_bad.py", rules=["ATL002"])
    assert rules_of(findings) == ["ATL002", "ATL002", "ATL002"]
    messages = "\n".join(f.message for f in findings)
    assert "time.time" in messages
    assert "time.perf_counter" in messages
    assert "datetime.now" in messages
    assert "sim.now" in messages


def test_only_benchmarks_may_read_the_wall_clock():
    run = REPO_ROOT / "benchmarks" / "stack" / "run.py"
    assert "perf_counter" in run.read_text(encoding="utf-8")
    assert run_lint([run], root=REPO_ROOT, rule_ids=["ATL002"]) == []


def test_reasoned_pragmas_suppress_everything():
    assert lint_fixture("atl002_ok.py") == []
