"""Fixed-bucket histograms (``repro.obs.histogram``): percentile edges,
state round trips and merges."""

from __future__ import annotations

import math

import pytest

from repro.obs.histogram import Histogram


class TestHistogram:
    def test_empty_percentiles_are_nan(self):
        histogram = Histogram("wait", {})
        assert math.isnan(histogram.percentile(50.0))
        assert math.isnan(histogram.mean)
        summary = histogram.summary()
        assert summary["count"] == 0
        assert math.isnan(summary["p99"])

    def test_single_sample_reports_that_sample(self):
        histogram = Histogram("wait", {})
        histogram.observe(0.42)
        for p in (0.0, 50.0, 99.0, 100.0):
            assert histogram.percentile(p) == pytest.approx(0.42)
        assert histogram.mean == pytest.approx(0.42)

    def test_percentiles_clamped_to_observed_range(self):
        histogram = Histogram("wait", {}, buckets=(1.0, 10.0, 100.0))
        for value in (2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.percentile(0.0) >= 2.0
        assert histogram.percentile(100.0) <= 4.0

    def test_percentiles_are_monotonic(self):
        histogram = Histogram("wait", {})
        for value in (0.004, 0.02, 0.02, 0.3, 1.5, 7.0, 40.0, 40.0, 90.0, 2000.0):
            histogram.observe(value)
        estimates = [histogram.percentile(p) for p in (10, 25, 50, 75, 90, 99)]
        assert estimates == sorted(estimates)

    def test_overflow_bucket_catches_huge_values(self):
        histogram = Histogram("wait", {}, buckets=(1.0,))
        histogram.observe(1e9)
        assert histogram.counts[-1] == 1
        assert histogram.percentile(50.0) == pytest.approx(1e9)

    def test_nan_observation_rejected(self):
        histogram = Histogram("wait", {})
        with pytest.raises(ValueError, match="NaN"):
            histogram.observe(float("nan"))

    def test_bad_bucket_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("wait", {}, buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("wait", {}, buckets=())

    def test_bad_percentile_rejected(self):
        histogram = Histogram("wait", {})
        histogram.observe(1.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            histogram.percentile(101.0)

    def test_summary_includes_p999(self):
        histogram = Histogram("wait", {})
        for value in (0.01, 0.1, 1.0, 10.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p999"] == pytest.approx(histogram.percentile(99.9))
        assert summary["p99"] <= summary["p999"] <= summary["max"]

    def test_state_roundtrip(self):
        histogram = Histogram("wait", {"scheduler": "s1"})
        for value in (0.02, 0.5, 9.0):
            histogram.observe(value)
        restored = Histogram.from_state(
            histogram.state(), name="wait", labels={"scheduler": "s1"}
        )
        assert restored.summary() == histogram.summary()
        assert restored.state() == histogram.state()

    def test_empty_state_roundtrip(self):
        histogram = Histogram("wait", {})
        restored = Histogram.from_state(histogram.state())
        assert restored.count == 0
        assert math.isnan(restored.percentile(50.0))

    def test_merge_state_accumulates(self):
        first = Histogram("wait", {})
        second = Histogram("wait", {})
        both = Histogram("wait", {})
        for value in (0.02, 0.5):
            first.observe(value)
            both.observe(value)
        for value in (9.0, 40.0):
            second.observe(value)
            both.observe(value)
        first.merge_state(second.state())
        merged, expected = first.summary(), both.summary()
        assert merged.keys() == expected.keys()
        for key in expected:
            # Mean differs by float-summation order; approx covers it.
            assert merged[key] == pytest.approx(expected[key])

    def test_merge_state_rejects_mismatched_bounds(self):
        first = Histogram("wait", {}, buckets=(1.0, 2.0))
        second = Histogram("wait", {}, buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bounds differ"):
            first.merge_state(second.state())

    @pytest.mark.parametrize(
        "change",
        [
            {"counts": None},
            {"counts": [0, "1"]},
            {"bounds": 1.0},
            {"total": "2.0"},
            {"min": []},
        ],
    )
    def test_malformed_state_rejected(self, change):
        state = {**Histogram("wait", {}, buckets=(1.0,)).state(), **change}
        with pytest.raises(ValueError, match="histogram state needs numbers"):
            Histogram.from_state(state)
        with pytest.raises(ValueError, match="histogram state needs numbers"):
            Histogram("wait", {}, buckets=(1.0,)).merge_state(state)

    @pytest.mark.parametrize(
        "state", [None, [], "bounds", {"bounds": [1.0], "counts": [0, 0]}]
    )
    def test_state_without_every_key_rejected(self, state):
        with pytest.raises(ValueError, match="histogram state needs numbers"):
            Histogram.from_state(state)
