"""Tests for the statistics helpers."""

import math

import numpy as np
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


def numpy_median(values) -> float:
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.median(np.asarray(values, dtype=np.float64)))


def numpy_mad(values) -> float:
    with np.errstate(invalid="ignore", over="ignore"):
        array = np.asarray(values, dtype=np.float64)
        return float(np.median(np.abs(array - np.median(array))))


def same_bits(result, expected, values) -> bool:
    """Equal bit for bit, NaN to NaN; a zero median of values that hold
    ``-0.0`` may take either sign (``np.median`` picks by partition)."""
    if math.isnan(expected):
        return math.isnan(result)
    if expected == 0.0 and any(math.copysign(1.0, v) < 0 and v == 0.0 for v in values):
        return result == 0.0
    return result.hex() == expected.hex()


class TestMedianMatchesNumpy:
    """``median`` and ``mad`` sort in Python; ``np.median`` is the oracle."""

    # Daily series are short: a day to a few weeks of values.
    series = st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(min_value=0.0, max_value=2.0),
            st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf, -math.inf]),
        ),
        max_size=30,
    )

    @settings(max_examples=400, deadline=None)
    @given(values=series)
    def test_bit_for_bit(self, values):
        for ours, oracle in ((median, numpy_median), (mad, numpy_mad)):
            result = ours(values)
            assert type(result) is float
            if values:
                assert same_bits(result, oracle(values), values), (ours, values)
            else:
                assert math.isnan(result)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.0, math.nan, 2.0], math.nan),
            ([math.inf, -math.inf], math.nan),
            ([1e308, 1.7e308], math.inf),
            ([3, 1, 2, 4], 2.5),
            ([-math.inf, 0.0, 5.0], 0.0),
        ],
    )
    def test_edges(self, values, expected):
        assert same_bits(median(values), expected, values)
        assert same_bits(median(values), numpy_median(values), values)


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
