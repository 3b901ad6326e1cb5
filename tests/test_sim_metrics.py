"""Unit tests for metrics primitives."""

import math
import pickle
import struct
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import Histogram, MetricsRegistry


def bits(value):
    """The IEEE-754 bytes of a double: ``==`` that tells -0.0 and NaN apart."""
    return struct.pack("<d", value)


class TestHistogram:
    def test_mean_and_extremes(self):
        histogram = Histogram()
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.record(value)
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.percentile(0) == 1.0
        assert histogram.maximum == 4.0
        assert histogram.count == 4

    def test_percentiles(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.record(float(value))
        assert histogram.percentile(50) == pytest.approx(50.0)
        assert histogram.percentile(99) == pytest.approx(99.0)
        assert histogram.percentile(100) == pytest.approx(100.0)

    def test_percentile_out_of_range(self):
        histogram = Histogram()
        histogram.record(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(150)

    def test_empty_histogram_returns_nan(self):
        histogram = Histogram()
        assert math.isnan(histogram.mean)
        assert math.isnan(histogram.percentile(50))

    def test_interleaved_records_and_queries_stay_correct(self):
        """The cached sorted view must reconcile after every batch of records."""
        histogram = Histogram()
        reference = []
        for round_index in range(5):
            for value in [float((7 * round_index + i) % 13) for i in range(20)]:
                histogram.record(value)
                reference.append(value)
            ordered = sorted(reference)
            assert histogram.percentile(0) == ordered[0]
            assert histogram.percentile(100) == ordered[-1]
            for p in (25, 50, 95):
                rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
                assert histogram.percentile(p) == ordered[rank]
            assert histogram.mean == pytest.approx(sum(reference) / len(reference))
            assert histogram.maximum == max(reference)

    def test_direct_appends_to_samples_stay_consistent(self):
        """Legacy pattern: appending to the public ``samples`` array directly
        must reconcile into mean/min/max and the sorted view."""
        histogram = Histogram()
        histogram.record(2.0)
        histogram.samples.extend([5.0, 1.0])
        assert histogram.mean == pytest.approx(8.0 / 3.0)
        assert histogram.percentile(0) == 1.0
        assert histogram.maximum == 5.0
        assert histogram.percentile(100) == 5.0
        assert histogram.count == 3

    def test_record_after_direct_append_reconciles_first(self):
        """Regression: record() after a direct append must fold the appended
        value in, not mistake its index for the recorded one."""
        histogram = Histogram()
        histogram.record(1.0)
        histogram.samples.append(2.0)
        histogram.record(3.0)
        assert histogram.mean == pytest.approx(2.0)
        histogram2 = Histogram()
        histogram2.record(5.0)
        histogram2.samples.append(-10.0)
        histogram2.record(7.0)
        assert histogram2.percentile(0) == -10.0
        assert histogram2.maximum == 7.0

    def test_shrinking_samples_recomputes_accumulators(self):
        """Regression: ``del samples[:]``/pop() on the public array must not crash or
        leave stale stats (the pre-optimisation implementation tolerated any
        mutation)."""
        histogram = Histogram()
        histogram.record(1.0)
        del histogram.samples[:]
        histogram.record(2.0)
        assert histogram.mean == 2.0
        assert histogram.percentile(0) == 2.0
        histogram2 = Histogram()
        histogram2.record(5.0)
        histogram2.record(9.0)
        assert histogram2.maximum == 9.0
        histogram2.samples.pop()
        assert histogram2.maximum == 5.0
        assert histogram2.mean == 5.0
        assert histogram2.percentile(100) == 5.0

    def test_clear_then_regrow_is_detected(self):
        """Regression: ``del samples[:]``+extend() to an equal-or-longer length must not
        be mistaken for an appended tail (detected via the last accumulated
        element)."""
        histogram = Histogram()
        histogram.samples.extend([1.0, 2.0, 3.0])
        assert histogram.percentile(50) == 2.0  # warm the sorted view
        del histogram.samples[:]
        histogram.samples.extend([10.0, 20.0, 30.0, 40.0, 50.0])
        assert histogram.mean == pytest.approx(30.0)
        assert histogram.percentile(0) == 10.0
        assert histogram.maximum == 50.0
        assert histogram.percentile(50) == 30.0

    def test_constructor_seeds_accumulators(self):
        histogram = Histogram(samples=[3.0, 1.0, 2.0])
        assert histogram.count == 3
        assert histogram.percentile(0) == 1.0
        assert histogram.maximum == 3.0
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.percentile(50) == 2.0


class TestPackedSamples:
    """``samples`` is an ``array('d')``: same numbers, a fifth of the memory."""

    def test_a_sample_costs_eight_bytes_and_sixteen_once_queried(self):
        count = 100_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            histogram = Histogram()
            for index in range(count):
                histogram.record(index * 0.5)
            unqueried = tracemalloc.get_traced_memory()[0] - before
            assert histogram.percentile(50) == 24_999.5
            queried = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert unqueried <= 9 * count
        assert queried <= 17 * count

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
            min_size=1,
            max_size=5,
        )
    )
    def test_statistics_are_bit_identical_to_a_sorted_list(self, batches):
        """Query after every batch, so the second batch on goes through the
        fold-the-tail and merge-two-runs paths; the reference is a plain list,
        summed batch by batch as the lazy accumulator sums it."""
        histogram = Histogram()
        reference, total = [], 0.0
        for batch in batches:
            histogram.samples.extend(batch)
            reference.extend(batch)
            total += sum(batch)
            if not reference:
                assert math.isnan(histogram.mean)
                continue
            ordered = sorted(reference)
            assert bits(histogram.mean) == bits(total / len(reference))
            assert bits(histogram.maximum) == bits(max(reference))
            for p in (0, 25, 50, 95, 100):
                rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
                assert bits(histogram.percentile(p)) == bits(ordered[rank])
        assert list(map(bits, histogram.samples)) == list(map(bits, reference))

    def test_an_int_reads_back_as_the_equal_float(self):
        histogram = Histogram([3])
        histogram.record(-1)
        assert list(histogram.samples) == [3, -1]
        assert all(type(value) is float for value in histogram.samples)
        assert histogram.maximum == 3 and type(histogram.maximum) is float
        assert histogram.percentile(0) == -1 and type(histogram.percentile(0)) is float
        assert histogram.percentile(100) == 3 and type(histogram.percentile(100)) is float
        with pytest.raises(TypeError):
            histogram.record(None)

    def test_pickle_round_trip_keeps_samples_and_answers(self):
        histogram = Histogram([3.0, 1.0, 2.0])
        assert histogram.percentile(50) == 2.0  # pickle the cached view too
        histogram.record(0.5)
        clone = pickle.loads(pickle.dumps(histogram))
        assert clone.samples == histogram.samples
        assert isinstance(clone.samples, array) and clone.samples.typecode == "d"
        assert (clone.mean, clone.percentile(0), clone.percentile(50)) == (1.625, 0.5, 1.0)


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("x")
        metrics.increment("x", 2.5)
        assert metrics.counter("x") == pytest.approx(3.5)
        assert metrics.counter("missing") == 0.0

    def test_observe(self):
        metrics = MetricsRegistry()
        metrics.observe("lat", 1.0)
        metrics.observe("lat", 3.0)
        assert metrics.histogram("lat").mean == pytest.approx(2.0)
        assert metrics.histogram("lat").count == 2
