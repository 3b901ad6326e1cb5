"""atumlint infrastructure: pragma hygiene, plug-in rules, CLI."""

import json

import pytest

from lint_utils import FIXTURES, REPO_ROOT, lint_fixture, rules_of
from repro.lint import run_lint, register_rule, registered_rules
from repro.lint.core import Rule, _RULE_REGISTRY
from repro.lint.__main__ import find_root, main


# --------------------------------------------------------------- pragma hygiene


class TestPragmaHygiene:
    def test_reasonless_pragma_is_atl000_and_does_not_suppress(self):
        findings = lint_fixture("atl000_bad.py")
        rules = rules_of(findings)
        # The reason-less allow[ATL001] pragma does NOT suppress the ATL001
        # finding on its line, and itself surfaces as ATL000.
        assert rules.count("ATL001") == 1
        assert rules.count("ATL000") == 2

    def test_unknown_rule_in_pragma_is_reported(self):
        findings = [f for f in lint_fixture("atl000_bad.py") if f.rule == "ATL000"]
        assert any("unknown rule ATL999" in f.message for f in findings)
        assert any("without a reason" in f.message for f in findings)

    def test_unknown_rule_id_selection_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            run_lint([FIXTURES / "atl001_bad.py"], root=REPO_ROOT, rule_ids=["NOPE"])


# --------------------------------------------------------------- plug-in rules


class TestPluginRegistration:
    def test_new_rule_is_one_registered_class(self):
        @register_rule
        class FixtureRule(Rule):
            rule_id = "ATL900"
            title = "fixture plug-in rule"

            def check(self, module, project):
                yield self.finding(module, 1, "plug-in fired")

        try:
            assert "ATL900" in registered_rules()
            findings = run_lint(
                [FIXTURES / "atl004_bad.py"], root=REPO_ROOT, rule_ids=["ATL900"]
            )
            assert [f.message for f in findings] == ["plug-in fired"]
        finally:
            _RULE_REGISTRY.pop("ATL900", None)

    def test_duplicate_rule_id_rejected(self):
        registered_rules()  # ensure the built-in rules are registered
        with pytest.raises(ValueError, match="duplicate rule id"):

            @register_rule
            class Clash(Rule):
                rule_id = "ATL001"

    def test_reserved_rule_id_rejected(self):
        with pytest.raises(ValueError, match="non-reserved"):

            @register_rule
            class Reserved(Rule):
                rule_id = "ATL000"


# ------------------------------------------------------------------------- CLI


class TestCli:
    def test_find_root_walks_up(self):
        assert find_root(FIXTURES) == REPO_ROOT

    def test_list_rules_exits_zero(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("ATL001", "ATL008"):
            assert rule_id in out

    def test_violating_fixture_fails(self, capsys):
        code = main([str(FIXTURES / "atl001_bad.py"), "--root", str(REPO_ROOT)])
        assert code == 1
        assert "ATL001" in capsys.readouterr().out

    def test_clean_fixture_passes_and_writes_json(self, tmp_path, capsys):
        report_path = tmp_path / "findings.json"
        code = main(
            [
                str(FIXTURES / "atl008_ok.py"),
                "--root",
                str(REPO_ROOT),
                "--json",
                str(report_path),
                "--quiet",
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["findings"] == []

    def test_a_finding_in_a_temporary_root_fails_check(self, tmp_path, capsys):
        # A line pragma is the one waiver: with no baseline to absorb it, a
        # violating file fails --check in any root.
        target = tmp_path / "src" / "repro" / "violating.py"
        target.parent.mkdir(parents=True)
        target.write_text((FIXTURES / "atl007_bad.py").read_text())
        assert main([str(target), "--root", str(tmp_path), "--check"]) == 1
        captured = capsys.readouterr()
        assert "ATL007" in captured.out
        assert "atumlint: FAIL (5 finding(s);" in captured.err

    def test_a_stale_metrics_doc_fails_check(self, tmp_path, monkeypatch, capsys):
        # The repo's own sources against a copy of docs/METRICS.md: the copy
        # passes, one edited line fails, and so does a missing doc.
        monkeypatch.chdir(REPO_ROOT)
        doc = tmp_path / "docs" / "METRICS.md"
        doc.parent.mkdir()
        doc.write_text((REPO_ROOT / "docs" / "METRICS.md").read_text())
        argv = ["src/repro", "--root", str(tmp_path), "--check", "--quiet"]
        argv += ["--rules", "ATL006"]  # the doc check scans every file either way
        assert main(argv) == 0
        capsys.readouterr()
        doc.write_text(doc.read_text() + "\none more line\n")
        assert main(argv) == 1
        assert "atumlint: FAIL (stale docs/METRICS.md)" in capsys.readouterr().err
        doc.unlink()
        assert main(argv) == 1
        assert "atumlint: FAIL (stale docs/METRICS.md)" in capsys.readouterr().err

    def test_a_metric_missing_from_the_registry_fails_check(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        extra = tmp_path / "extra.py"
        extra.write_text(
            "def count(metrics):\n    metrics.increment(\"lint.unregistered_name\")\n"
        )
        argv = ["src/repro", str(extra), "--root", str(tmp_path), "--check", "--quiet"]
        argv += ["--rules", "ATL006"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (
            "metric 'lint.unregistered_name' used in code but missing from the registry"
            in captured.out
        )
        assert "stale metrics registry" in captured.err
