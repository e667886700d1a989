"""Tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.stats import cdf_at, mad, median, percentile


class TestMedianMad:
    def test_median_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_even(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_median_empty_is_nan(self):
        assert math.isnan(median([]))

    def test_mad_simple(self):
        # median=2, deviations = [1, 0, 1] -> MAD = 1
        assert mad([1.0, 2.0, 3.0]) == 1.0

    def test_mad_constant_is_zero(self):
        assert mad([5.0] * 10) == 0.0

    def test_mad_empty_is_nan(self):
        assert math.isnan(mad([]))

    def test_mad_robust_to_outlier(self):
        values = [1.0, 1.0, 1.0, 1.0, 100.0]
        assert mad(values) == 0.0  # the outlier does not move the MAD


class TestPercentile:
    def test_p90(self):
        values = list(range(1, 101))
        assert percentile(values, 90) == pytest.approx(90.1)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))


class TestCdfAt:
    def test_reads_fractions(self):
        values = [1.0, 2.0, 3.0, 4.0]
        result = cdf_at(values, [0.5, 2.0, 10.0])
        assert list(result) == pytest.approx([0.0, 0.5, 1.0])

    def test_empty_values_gives_nan(self):
        assert all(math.isnan(x) for x in cdf_at([], [1.0]))

    @given(
        values=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=100),
        threshold=st.floats(min_value=-10, max_value=110),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_count(self, values, threshold):
        result = cdf_at(values, [threshold])[0]
        expected = sum(1 for v in values if v <= threshold) / len(values)
        assert result == pytest.approx(expected)
