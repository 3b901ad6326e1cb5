"""Tests for the analysis helpers (robustness, CDFs, tables)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    all_vgroups_robust_probability,
    format_table,
    latency_summary,
    monte_carlo_vgroup_failure,
    optimal_group_size_table,
    vgroup_failure_probability,
)
from repro.analysis.cdf import percentile
from repro.analysis.robustness import logarithmic_group_size


class TestRobustness:
    def test_paper_example_small_group(self):
        # Section 3.1: g=4, p=0.05, synchronous -> failure probability ~0.014.
        probability = vgroup_failure_probability(4, 0.05, synchronous=True)
        assert probability == pytest.approx(0.014, abs=0.002)

    def test_paper_example_large_group(self):
        # Section 3.1: g=20, p=0.05 -> ~1.13e-8.
        probability = vgroup_failure_probability(20, 0.05, synchronous=True)
        assert probability == pytest.approx(1.134e-8, rel=0.05)

    def test_larger_groups_are_more_robust(self):
        small = vgroup_failure_probability(6, 0.06)
        large = vgroup_failure_probability(24, 0.06)
        assert large < small

    def test_async_engine_less_robust_than_sync(self):
        sync = vgroup_failure_probability(12, 0.10, synchronous=True)
        asyn = vgroup_failure_probability(12, 0.10, synchronous=False)
        assert asyn > sync

    def test_k4_keeps_all_groups_robust_at_6_percent(self):
        # Section 3.1: with k = 4 and 6% faults, all vgroups robust w.p. ~0.999.
        system_size = 2000
        group_size = logarithmic_group_size(system_size, k=4)
        probability = all_vgroups_robust_probability(system_size, group_size, 0.06)
        assert probability > 0.99

    def test_all_robust_decreases_with_system_size_at_fixed_group_size(self):
        small = all_vgroups_robust_probability(500, 10, 0.05)
        large = all_vgroups_robust_probability(50_000, 10, 0.05)
        assert large < small

    def test_monte_carlo_matches_analytic(self):
        analytic = vgroup_failure_probability(8, 0.2)
        estimated = monte_carlo_vgroup_failure(8, 0.2, trials=20_000)
        assert estimated == pytest.approx(analytic, abs=0.02)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            vgroup_failure_probability(8, 1.5)

    def test_optimal_group_size_table_monotone_in_k(self):
        rows = optimal_group_size_table(2000, 0.06)
        probabilities = [row["all_robust_probability"] for row in rows]
        assert probabilities == sorted(probabilities)


@settings(max_examples=30, deadline=None)
@given(
    group_size=st.integers(min_value=1, max_value=40),
    probability=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_failure_probability_is_a_probability(group_size, probability):
    value = vgroup_failure_probability(group_size, probability)
    assert 0.0 <= value <= 1.0 + 1e-12


class TestCdf:
    def test_percentile(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert math.isnan(percentile([], 50))
        with pytest.raises(ValueError):
            percentile(samples, -1)

    def test_latency_summary_keys(self):
        summary = latency_summary([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["max"] == 3.0
        empty = latency_summary([])
        assert empty["count"] == 0 and math.isnan(empty["mean"])


class TestTables:
    def test_format_table_contains_headers_and_values(self):
        text = format_table([{"n": 200, "latency": 5.5}, {"n": 400, "latency": 6.25}], title="Fig")
        assert "Fig" in text
        assert "n" in text and "latency" in text
        assert "400" in text and "6.25" in text

    def test_format_empty_table(self):
        assert "(no rows)" in format_table([], title="empty")
