"""Perfetto export: structural validity of the trace-event document."""

from __future__ import annotations

import json

from repro.experiments import cli
from repro.obs.perfetto import export_perfetto

RECORDS = [
    {
        "name": "run.start",
        "t": 0.0,
        "fields": {"trace_version": 2, "architecture": "omega", "cluster": "B", "seed": 3},
    },
    {
        "name": "sched.attempt",
        "t": 10.0,
        "sched": "s1",
        "job": 1,
        "attempt": 1,
        "fields": {"t0": 5.0, "conflict_retry": False, "outcome": "scheduled"},
    },
    {
        "name": "timeline.cell",
        "t": 60.0,
        "fields": {
            "cpu_util": 0.5,
            "mem_util": 0.25,
            "pending": 2,
            "machines_down": 0,
            "scheds_down": 0,
            "active_faults": 0,
        },
    },
    {
        "name": "timeline.sched",
        "t": 60.0,
        "sched": "s1",
        "fields": {
            "queue_depth": 1,
            "busy_frac": 0.5,
            "down": False,
            "conflicts": 0,
            "conflict_rate": 0.0,
            "scheduled": 1,
            "abandoned": 0,
            "abandon_rate": 0.0,
        },
    },
]


def _events(document, phase=None):
    events = document["traceEvents"]
    if phase is None:
        return events
    return [e for e in events if e["ph"] == phase]


class TestExport:
    def test_document_is_valid_json(self):
        document = export_perfetto(RECORDS)
        rehydrated = json.loads(json.dumps(document))
        assert rehydrated["traceEvents"]
        assert rehydrated["displayTimeUnit"] == "ms"

    def test_run_start_becomes_named_process(self):
        document = export_perfetto(RECORDS)
        names = [
            e["args"]["name"]
            for e in _events(document, "M")
            if e["name"] == "process_name"
        ]
        assert names == ["run 1: omega B seed=3"]

    def test_scheduler_becomes_named_thread(self):
        document = export_perfetto(RECORDS)
        threads = {
            e["args"]["name"]: e["tid"]
            for e in _events(document, "M")
            if e["name"] == "thread_name"
        }
        assert "s1" in threads

    def test_attempts_are_duration_events(self):
        document = export_perfetto(RECORDS)
        (attempt,) = _events(document, "X")
        assert attempt["name"] == "sched.attempt"
        assert attempt["ts"] == 5.0 * 1e6
        assert attempt["dur"] == 5.0 * 1e6
        assert attempt["args"]["outcome"] == "scheduled"

    def test_timeline_samples_become_counters(self):
        document = export_perfetto(RECORDS)
        counters = {e["name"] for e in _events(document, "C")}
        assert {
            "cell utilization",
            "pending jobs",
            "active faults",
            "s1 busy_frac",
            "s1 queue_depth",
            "s1 conflict_rate",
        } <= counters
        utilization = next(
            e for e in _events(document, "C") if e["name"] == "cell utilization"
        )
        assert utilization["args"] == {"cpu": 0.5, "mem": 0.25}

    def test_timestamps_monotonic_per_track(self):
        document = export_perfetto(RECORDS * 3)  # several runs' worth
        by_track = {}
        for event in document["traceEvents"]:
            if event["ph"] == "M":
                continue
            by_track.setdefault((event["pid"], event["tid"]), []).append(
                event["ts"]
            )
        assert by_track
        for timestamps in by_track.values():
            assert timestamps == sorted(timestamps)

    def test_each_run_gets_its_own_pid(self):
        document = export_perfetto(RECORDS * 2)
        pids = {e["pid"] for e in document["traceEvents"] if e["ph"] != "M"}
        assert pids == {1, 2}

    def test_records_before_any_run_start_land_in_pid_zero(self):
        document = export_perfetto(RECORDS[1:])
        pids = {e["pid"] for e in document["traceEvents"]}
        assert pids == {0}

    def test_empty_trace(self):
        document = export_perfetto([])
        assert document["traceEvents"] == []
        json.dumps(document)

    def test_non_finite_values_are_sanitized(self):
        record = {
                "name": "x",
            "t": 1.0,
            "sched": "s1",
            "fields": {"bad": float("inf")},
        }
        document = export_perfetto([record])
        encoded = json.dumps(document)
        assert "Infinity" not in encoded


class TestCli:
    def test_cli_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        with trace.open("w") as handle:
            for record in RECORDS:
                handle.write(json.dumps(record) + "\n")
        output = tmp_path / "out.perfetto.json"
        assert cli.main(["perfetto", str(trace), "--output", str(output)]) == 0
        document = json.loads(output.read_text())
        assert document["traceEvents"]
        assert "ui.perfetto.dev" in capsys.readouterr().err

    def test_cli_default_output_path(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        trace.write_text(json.dumps(RECORDS[0]) + "\n")
        assert cli.main(["perfetto", str(trace)]) == 0
        assert (tmp_path / "run.jsonl.perfetto.json").exists()

    def test_cli_missing_file_exits_2(self, tmp_path):
        assert cli.main(["perfetto", str(tmp_path / "absent.jsonl")]) == 2

    def test_cli_malformed_trace_exits_2(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("{not json\n")
        assert cli.main(["perfetto", str(trace)]) == 2
