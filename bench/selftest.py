"""Checks of the harness's own arithmetic on made-up inputs.

Run with ``python -m pytest bench/selftest.py``. Not part of tier-1
(``testpaths = ["tests"]``); nothing here runs a simulation — for that
there is ``python bench/run.py --selfcheck``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import calibrate
import report
import spans

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_summarize_reports_median_min_max_count_and_every_value():
    assert report.summarize([3.0, 1.0, 2.0]) == {
        "median": 2.0, "min": 1.0, "max": 3.0, "n": 3, "values": [3.0, 1.0, 2.0],
    }  # fmt: skip
    assert report.summarize([4.0, 1.0, 2.0, 3.0])["median"] == 2.5


def test_calibrated_sum_divides_by_slowdown_then_takes_each_parts_median():
    # Three repetitions of two parts worth 1 s and 2 s; the second ran
    # on a host twice as slow, the third had one part disturbed.
    parts = [[1.0, 2.0], [2.0, 4.0], [1.0, 9.0]]
    slowdowns = [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]
    assert report.calibrated_sum(parts, slowdowns) == 3.0
    with pytest.raises(ValueError):
        report.calibrated_sum([[1.0, 2.0], [1.0]], [[1.0, 1.0], [1.0]])


def test_stopwatch_relates_each_part_to_the_speed_samples_around_it(monkeypatch):
    samples = iter([2.0, 2.0, 4.0, 4.0, 4.0])
    monkeypatch.setattr(calibrate, "RESAMPLE_AFTER_S", 0.0)
    watch = calibrate.Stopwatch(lambda: next(samples) * calibrate.NOMINAL_S)
    watch.add("setup", 0.5)
    for kind in ("setup", "run", "run"):
        watch.lap(kind)
    assert len(watch.parts["setup"]) == 2 and len(watch.parts["run"]) == 2
    # Samples 2 2 | 4 | 4 | 4: the first part sees 2, 2, 4, 4 around it.
    assert watch.slowdowns("setup") == pytest.approx([2.0, 3.0])
    assert watch.slowdowns("run") == pytest.approx([4.0, 4.0])


def test_mean_field_skips_nan_and_failed_rows():
    rows = [{"wait": 1.0}, {"wait": float("nan")}, {"error": "boom"}, {"wait": 3.0}]
    assert report.mean_field(rows, "wait") == 2.0
    assert report.mean_field([{"wait": float("nan")}], "wait") != report.mean_field([], "wait")


def test_diff_rows_is_exact_to_the_last_bit():
    golden = [{"a": 0.1 + 0.2, "n": 1}, {"a": float("nan"), "n": 2}]
    same = json.loads(json.dumps(golden))
    assert report.diff_rows(same, golden) == {}
    off_by_one_ulp = [{"a": 0.3, "n": 1}, golden[1]]
    failed = report.diff_rows(off_by_one_ulp, golden)
    assert list(failed) == [0] and "a 0.3 != 0.30000000000000004" in failed[0]


def test_diff_rows_counts_missing_and_extra_rows():
    assert report.diff_rows([], [{"a": 1}]) == {0: "row missing"}
    assert report.diff_rows([{"a": 1}, {"a": 2}], [{"a": 1}]) == {1: "row not expected"}


def test_rows_digest_follows_the_rows():
    rows = [{"a": 1.5, "b": 2}]
    assert report.rows_digest(rows) == report.rows_digest([{"b": 2, "a": 1.5}])
    assert report.rows_digest(rows) != report.rows_digest([{"a": 1.5000000000000002, "b": 2}])


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert report.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert report.spread([5.0] * 10) == 0.0


def test_worse_by_respects_direction():
    assert report.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert report.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert report.worse_by(10.0, 9.0, "higher") == pytest.approx(0.1)


def test_check_bounds_flags_drift_and_spread_but_not_setup_spread():
    metrics = [
        {"name": "run_s", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "better": "lower", "bound": 0.2},
    ]
    steady = {"run_s": [1.0, 1.01, 0.99, 1.0], "setup_s": [1.0, 2.0, 0.5, 1.0]}
    assert report.check_bounds(steady, steady, metrics) == []
    slower = {"run_s": [1.1, 1.11, 1.09, 1.1], "setup_s": steady["setup_s"]}
    assert report.check_bounds(steady, slower, metrics) == [
        "run_s: second median worse by 0.1000 > bound 0.05"
    ]
    assert report.check_bounds(slower, steady, metrics) == []
    noisy = {"run_s": [1.0, 1.5, 0.5, 1.0], "setup_s": steady["setup_s"]}
    assert any("spread" in line for line in report.check_bounds(noisy, steady, metrics))


def test_tracer_self_time_excludes_children_and_callbacks_adopt_them():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: None, "inner")

    def callback():
        inner()
        inner()

    with tracer.span("sim.loop"):
        callback()
        tracer.record(callback, 1.0)
        tracer.record(inner, 0.5)
    calls, total, self_s = tracer.stats["callback.other"]
    children = tracer.stats["inner"][1]
    assert (calls, total) == (2, 1.5)
    assert self_s == pytest.approx(1.5 - children)
    assert tracer.counts["sim.events.other"] == 2
    # The loop's children are the two callbacks, whole.
    loop_calls, loop_total, loop_self = tracer.stats["sim.loop"]
    assert loop_self == pytest.approx(loop_total - 1.5)
    by_id = {span[3]: span for span in tracer.raw}
    first_inner = tracer.raw[0]
    assert by_id[first_inner[4]][0] == "callback.other"


def test_tracer_reports_a_vanished_target_instead_of_raising(capsys):
    tracer = spans.Tracer()
    tracer.install(
        [("gone", "json", "no_such_function"), ("kept", "json", "decoder.JSONDecoder.decode")]
    )
    try:
        assert tracer.missing == ["gone"]
        assert "json.no_such_function not found" in capsys.readouterr().err
        assert json.loads("[1]") == [1] and tracer.stats["kept"][0] == 1
    finally:
        json.decoder.JSONDecoder.decode = json.decoder.JSONDecoder.decode.__wrapped__


def test_benchmark_json_matches_the_harness():
    import run

    assert SPEC["paths"] == ["bench"]
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    assert end_to_end == {"setup_s", "run_s", "jobs_per_s", "peak_rss_mb", "sim_scheduled_fraction"}
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
