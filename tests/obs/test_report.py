"""HTML report generation, including empty/degenerate traces."""

from __future__ import annotations

import json

import pytest

from repro.experiments import cli
from repro.obs.report import _svg_line_chart, generate_report, write_report
from repro.obs.summary import TraceSummary

from tests.obs.test_perfetto import RECORDS


def _summary(records=RECORDS):
    return TraceSummary.from_records(records)


class TestSvgChart:
    def test_series_render_as_polylines_with_legend(self):
        svg = _svg_line_chart(
            "Chart", [("a", [(0.0, 0.0), (1.0, 1.0)]), ("b", [(0.0, 1.0)])]
        )
        assert svg.count("<polyline") == 1  # single-point series -> circle
        assert svg.count("<circle") == 1
        assert ">a</text>" in svg and ">b</text>" in svg

    def test_no_data_placeholder(self):
        svg = _svg_line_chart("Chart", [])
        assert "no data" in svg
        assert "<polyline" not in svg

    def test_non_finite_points_are_dropped(self):
        svg = _svg_line_chart(
            "Chart", [("a", [(0.0, float("nan")), (1.0, float("inf"))])]
        )
        assert "no data" in svg

    def test_labels_are_escaped(self):
        svg = _svg_line_chart("<script>", [("<b>", [(0.0, 1.0), (1.0, 2.0)])])
        assert "<script>" not in svg
        assert "&lt;script&gt;" in svg


class TestGenerateReport:
    def test_contains_charts_and_percentile_table(self):
        page = generate_report([("run", _summary())])
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page
        assert "Cell utilization" in page
        assert "Scheduler busy fraction" in page
        assert "Conflict rate" in page
        assert "p999_s" not in page  # no run.metrics in the fixture records
        assert "no run.metrics histograms" in page

    def test_empty_trace_renders_placeholders(self):
        page = generate_report([("empty", _summary([]))])
        assert "<svg" not in page  # nothing to chart
        assert "no data" in page
        assert "--timeline-interval" in page

    def test_trace_without_timeline_still_gets_conflict_chart(self):
        records = [
            {
                "name": "sched.attempt",
                "t": float(i),
                "sched": "s1",
                "job": i,
                "fields": {"t0": float(i), "claims": 1, "conflicted": True},
            }
            for i in range(4)
        ]
        page = generate_report([("conflicts", _summary(records))])
        assert "Conflicted commits per bin" in page

    def test_multi_trace_comparison(self):
        page = generate_report([("a", _summary()), ("b", _summary())])
        assert "Comparison" in page
        assert page.count("<section") == 3

    def test_labels_are_escaped(self):
        page = generate_report([("<script>alert(1)</script>", _summary())])
        assert "<script>alert(1)</script>" not in page

    def test_needs_at_least_one_trace(self):
        with pytest.raises(ValueError, match="at least one"):
            generate_report([])


class TestCli:
    def _write_trace(self, path, records=RECORDS):
        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def test_cli_writes_report(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        self._write_trace(trace)
        output = tmp_path / "report.html"
        assert cli.main(["report", str(trace), "--output", str(output)]) == 0
        page = output.read_text()
        assert "<svg" in page
        assert "rendered to" in capsys.readouterr().err

    def test_cli_multiple_traces(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(first)
        self._write_trace(second)
        output = tmp_path / "report.html"
        assert cli.main(["report", str(first), str(second),
                         "--output", str(output)]) == 0
        page = output.read_text()
        assert "Comparison" in page
        assert "a.jsonl" in page and "b.jsonl" in page

    def test_cli_missing_file_exits_2(self, tmp_path):
        assert cli.main([
            "report", str(tmp_path / "absent.jsonl"),
            "--output", str(tmp_path / "report.html"),
        ]) == 2

    def test_cli_malformed_trace_exits_2(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("{not json\n")
        assert cli.main([
            "report", str(trace), "--output", str(tmp_path / "report.html"),
        ]) == 2

    def test_write_report_on_degenerate_trace(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        output = tmp_path / "report.html"
        assert write_report([str(trace)], str(output)) > 0
        assert "no data" in output.read_text()
