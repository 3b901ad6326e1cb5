"""Whole-repo atumlint smoke: src/repro must have no finding."""

from lint_utils import REPO_ROOT, SRC
from repro.lint import run_lint
from repro.lint.__main__ import main


def test_src_repro_has_zero_findings():
    findings = run_lint([SRC], root=REPO_ROOT)
    assert findings == [], "\n".join(str(f) for f in findings)


def test_cli_check_mode_passes_end_to_end(capsys):
    # The exact CI invocation: default targets, strict mode (every finding,
    # metrics registry and METRICS.md staleness).
    assert main(["--root", str(REPO_ROOT), "--check", "--quiet"]) == 0
    assert "atumlint: OK" in capsys.readouterr().out
