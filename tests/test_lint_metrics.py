"""ATL006 support: metrics registry generation, docs/METRICS.md, stale checks."""

from lint_utils import REPO_ROOT, SRC
from repro.lint.metrics_registry import METRICS
from repro.lint.metrics_scan import (
    MATRIX_MODULE,
    registry_diff,
    render_doc,
    render_registry,
    scan_metrics,
)


def fresh_scan():
    return scan_metrics([SRC], REPO_ROOT)


class TestRegistryFreshness:
    def test_registry_matches_a_fresh_scan_in_both_directions(self):
        missing, orphaned = registry_diff(fresh_scan(), METRICS)
        assert missing == [], "metric used in code but absent from the registry"
        assert orphaned == [], "registry entry no longer used anywhere"

    def test_regenerating_the_registry_is_a_noop(self):
        committed = (SRC / "lint" / "metrics_registry.py").read_text(encoding="utf-8")
        assert render_registry(fresh_scan()) == committed

    def test_regenerating_the_doc_is_a_noop(self):
        committed = (REPO_ROOT / "docs" / "METRICS.md").read_text(encoding="utf-8")
        assert render_doc(fresh_scan()) == committed


class TestRegistryContents:
    def test_matrix_columns_are_marked(self):
        scanned = fresh_scan()
        matrix_names = [n for n, info in scanned.items() if info.matrix_column]
        assert matrix_names, "scenarios.py reads metric literals into matrix rows"
        for name in matrix_names:
            assert MATRIX_MODULE in scanned[name].modules
            assert METRICS[name]["matrix_column"] is True
        # A name the matrix module only writes never reaches a report row.
        written = scanned["faults.flash_join_failed"]
        assert MATRIX_MODULE in written.modules
        assert written.matrix_column is False

    def test_both_arms_of_a_conditional_name_are_registered(self):
        for name in ("membership.evictions_started", "membership.leaves_started"):
            assert "repro/overlay/membership.py" in METRICS[name]["modules"]

    def test_registry_records_kind_and_owning_modules(self):
        entry = METRICS["invariants.check_errors"]
        assert entry["kind"] == "counter"
        assert any("faults/invariants.py" in m for m in entry["modules"])

    def test_doc_lists_every_registered_name(self):
        doc = (REPO_ROOT / "docs" / "METRICS.md").read_text(encoding="utf-8")
        for name in METRICS:
            assert f"`{name}`" in doc


class TestRegistryDiff:
    def test_detects_missing_and_orphaned(self):
        scanned = {"a.used": object(), "b.new": object()}
        registered = {"a.used": {}, "c.gone": {}}
        missing, orphaned = registry_diff(scanned, registered)
        assert missing == ["b.new"]
        assert orphaned == ["c.gone"]
