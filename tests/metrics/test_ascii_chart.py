"""Tests for the terminal chart renderer."""

import pytest

from repro.metrics.ascii_chart import line_chart


class TestLineChart:
    def test_renders_points(self):
        chart = line_chart({"a": [(0.0, 0.0), (1.0, 1.0)]}, width=20, height=5)
        lines = chart.splitlines()
        assert any("*" in line for line in lines)
        assert "legend: * a" in chart

    def test_extreme_points_at_corners(self):
        chart = line_chart({"a": [(0.0, 0.0), (1.0, 1.0)]}, width=20, height=5)
        rows = [line for line in chart.splitlines() if "|" in line]
        assert rows[0].endswith("*".ljust(1) + " " * 19) or "*" in rows[0]
        assert "*" in rows[-1]

    def test_two_series_distinct_glyphs(self):
        chart = line_chart(
            {"first": [(0, 1)], "second": [(1, 0)]}, width=20, height=5
        )
        assert "* first" in chart
        assert "+ second" in chart

    def test_log_axes_drop_nonpositive(self):
        chart = line_chart(
            {"a": [(0.0, 1.0), (10.0, 2.0), (100.0, 3.0)]},
            width=20,
            height=5,
            log_x=True,
        )
        assert "10" in chart  # axis label in original units

    def test_log_axis_all_dropped_raises(self):
        with pytest.raises(ValueError, match="no plottable"):
            line_chart({"a": [(-1.0, 1.0)]}, log_x=True)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            line_chart({"a": [(0, 0)]}, width=2, height=2)

    def test_title_and_labels(self):
        chart = line_chart(
            {"a": [(0, 0), (1, 1)]},
            title="My Chart",
            x_label="time",
            y_label="busyness",
        )
        assert chart.startswith("My Chart")
        assert "time" in chart
        assert "busyness" in chart

    def test_constant_series_does_not_crash(self):
        chart = line_chart({"flat": [(0.0, 5.0), (1.0, 5.0)]}, width=20, height=5)
        assert "*" in chart

