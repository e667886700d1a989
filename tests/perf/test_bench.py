"""Benchmark harness: result schema, expectation logic, and the
baseline regression gate (timing *values* are not asserted here —
floors belong to `omega-sim bench` itself)."""

import copy
import json

import pytest

from repro.perf import bench


@pytest.fixture(scope="module")
def smoke_results():
    return bench.run_benchmarks(smoke=True, jobs=2)


class TestRunBenchmarks:
    def test_schema_complete(self, smoke_results):
        assert smoke_results["format_version"] == bench.FORMAT_VERSION
        assert smoke_results["smoke"] is True
        machine = smoke_results["machine"]
        assert machine["cpu_count"] >= 1
        for key in ("platform", "python", "numpy"):
            assert machine[key]
        benchmarks = smoke_results["benchmarks"]
        assert set(benchmarks) == {
            "snapshot_resync",
            "placement_pack",
            "paper_scale",
            "event_loop",
            "tracing_overhead",
            "sweep_serial_parallel",
            "sanitizer_overhead",
            "predictor_overhead",
            "federation_overhead",
        }
        assert benchmarks["snapshot_resync"]["speedup"] > 0
        assert benchmarks["placement_pack"]["placements_per_s"] > 0
        assert benchmarks["placement_pack"]["legacy_placements_per_s"] > 0
        assert benchmarks["placement_pack"]["speedup"] > 0
        paper = benchmarks["paper_scale"]
        assert paper["events_processed"] > 0
        assert paper["machines"] > 0
        assert len(paper["rows"]) == paper["points"] > 0
        for row in paper["rows"]:
            assert row["events_processed"] > 0
            assert row["wall_s"] > 0
        assert benchmarks["event_loop"]["events_per_s"] > 0
        tracing = benchmarks["tracing_overhead"]
        for mode in ("plain", "noop", "active", "timeline"):
            assert tracing[f"{mode}_events_per_s"] > 0
        assert tracing["noop_throughput_ratio"] > 0
        sanitizer = benchmarks["sanitizer_overhead"]
        for mode in ("plain", "off", "on"):
            assert sanitizer[f"{mode}_ops_per_s"] > 0
        assert sanitizer["off_throughput_ratio"] > 0
        assert sanitizer["on_overhead_x"] > 0
        predictor = benchmarks["predictor_overhead"]
        for mode in ("plain", "off", "on"):
            assert predictor[f"{mode}_attempts_per_s"] > 0
        assert predictor["off_throughput_ratio"] > 0
        assert predictor["on_overhead_x"] > 0
        federation = benchmarks["federation_overhead"]
        assert federation["events_processed"] > 0
        assert federation["plain_events_per_s"] > 0
        assert federation["federated_events_per_s"] > 0
        assert federation["federated_throughput_ratio"] > 0

    def test_json_serializable(self, smoke_results):
        assert json.loads(json.dumps(smoke_results))

    def test_tracing_bench_restores_the_recorder(self):
        from repro import obs

        before = obs.get_recorder()
        bench.bench_tracing_overhead(events=200, repeats=1, timeline_every=50.0)
        assert obs.get_recorder() is before

    def test_sanitizer_bench_restores_active_state(self):
        from repro.analysis import sanitizer as _san

        assert _san.ACTIVE is None
        result = bench.bench_sanitizer_overhead(
            num_machines=50, operations=2_000, repeats=1
        )
        assert _san.ACTIVE is None
        assert result["on_overhead_x"] > 0

    def test_serial_parallel_rows_identical(self, smoke_results):
        assert smoke_results["benchmarks"]["sweep_serial_parallel"][
            "identical_rows"
        ]

    def test_expectations_present(self, smoke_results):
        names = {e["name"] for e in smoke_results["expectations"]}
        assert names == {
            "resync_speedup",
            "placement_speedup",
            "paper_scale_shape",
            "tracing_noop_throughput",
            "serial_parallel_identical",
            "parallel_speedup",
            "sanitizer_off_throughput",
            "predictor_off_throughput",
            "federation_overhead",
        }
        by_name = {e["name"]: e for e in smoke_results["expectations"]}
        # Row identity is enforced even in smoke mode; timing floors are
        # recorded but unenforced at smoke sizes — except the sanitizer
        # off-mode floor (guard cost is size-independent) and the
        # placement kernel speedup (enforced with a smoke-size floor so
        # CI catches kernel regressions).
        assert by_name["serial_parallel_identical"]["enforced"]
        assert by_name["sanitizer_off_throughput"]["enforced"]
        assert by_name["placement_speedup"]["enforced"]
        # The 1-cell federation's per-event overhead is size-independent,
        # so its throughput floor holds even at smoke sizes.
        assert by_name["federation_overhead"]["enforced"]
        assert not by_name["paper_scale_shape"]["enforced"]
        assert not by_name["resync_speedup"]["enforced"]
        assert not by_name["tracing_noop_throughput"]["enforced"]
        assert not by_name["parallel_speedup"]["enforced"]
        for expectation in smoke_results["expectations"]:
            if not expectation["enforced"]:
                assert expectation["reason"]

    def test_smoke_floors_are_lower_than_full_floors(self):
        assert bench.PLACEMENT_SPEEDUP_FLOOR_SMOKE <= bench.PLACEMENT_SPEEDUP_FLOOR

    def test_full_mode_requires_paper_scale_shape(self, smoke_results):
        results = copy.deepcopy(smoke_results)
        results["smoke"] = False
        by_name = {
            e["name"]: e for e in bench.evaluate_expectations(results)
        }
        shape = by_name["paper_scale_shape"]
        assert shape["enforced"]
        assert not shape["passed"]  # smoke sizes cannot claim the proof


class TestGate:
    def test_smoke_run_passes_gate(self, smoke_results):
        assert bench.gate(smoke_results) == []

    def test_enforced_expectation_failure_fails_gate(self, smoke_results):
        results = copy.deepcopy(smoke_results)
        results["benchmarks"]["sweep_serial_parallel"]["identical_rows"] = False
        results["expectations"] = bench.evaluate_expectations(results)
        failures = bench.gate(results)
        assert any("serial_parallel_identical" in f for f in failures)

    def test_unenforced_expectation_does_not_fail_gate(self, smoke_results):
        results = copy.deepcopy(smoke_results)
        results["benchmarks"]["snapshot_resync"]["speedup"] = 0.1
        results["expectations"] = bench.evaluate_expectations(results)
        assert bench.gate(results) == []

    def test_full_mode_enforces_resync_floor(self, smoke_results):
        results = copy.deepcopy(smoke_results)
        results["smoke"] = False
        results["benchmarks"]["snapshot_resync"]["speedup"] = 0.1
        results["expectations"] = bench.evaluate_expectations(results)
        failures = bench.gate(results)
        assert any("resync_speedup" in f for f in failures)

    def test_full_mode_enforces_tracing_floor(self, smoke_results):
        results = copy.deepcopy(smoke_results)
        results["smoke"] = False
        results["benchmarks"]["tracing_overhead"]["noop_throughput_ratio"] = 0.1
        results["expectations"] = bench.evaluate_expectations(results)
        failures = bench.gate(results)
        assert any("tracing_noop_throughput" in f for f in failures)

    def test_parallel_floor_gated_on_cores(self, smoke_results):
        results = copy.deepcopy(smoke_results)
        results["smoke"] = False
        results["machine"]["cpu_count"] = 8
        # Pin the other full-mode floors so only parallel_speedup varies.
        results["benchmarks"]["snapshot_resync"]["speedup"] = 2.0
        results["benchmarks"]["tracing_overhead"]["noop_throughput_ratio"] = 1.0
        results["benchmarks"]["placement_pack"]["speedup"] = 6.0
        results["benchmarks"]["paper_scale"]["machines"] = 10_000
        results["benchmarks"]["paper_scale"]["horizon_days"] = 3.0
        results["benchmarks"]["sweep_serial_parallel"]["speedup"] = 1.1
        results["expectations"] = bench.evaluate_expectations(results)
        assert any("parallel_speedup" in f for f in bench.gate(results))
        results["machine"]["cpu_count"] = 1
        results["expectations"] = bench.evaluate_expectations(results)
        assert bench.gate(results) == []

    def test_baseline_regression_detected(self, smoke_results):
        baseline = copy.deepcopy(smoke_results)
        current = copy.deepcopy(smoke_results)
        current["benchmarks"]["event_loop"]["events_per_s"] = (
            baseline["benchmarks"]["event_loop"]["events_per_s"] * 0.5
        )
        failures = bench.gate(current, baseline, tolerance=0.25)
        assert any("event_loop.events_per_s" in f for f in failures)

    def test_regression_within_tolerance_passes(self, smoke_results):
        baseline = copy.deepcopy(smoke_results)
        current = copy.deepcopy(smoke_results)
        current["benchmarks"]["event_loop"]["events_per_s"] = (
            baseline["benchmarks"]["event_loop"]["events_per_s"] * 0.9
        )
        assert bench.gate(current, baseline, tolerance=0.25) == []

    def test_machine_shape_mismatch_skips_throughput(self, smoke_results):
        baseline = copy.deepcopy(smoke_results)
        baseline["machine"]["cpu_count"] = smoke_results["machine"]["cpu_count"] + 4
        current = copy.deepcopy(smoke_results)
        current["benchmarks"]["event_loop"]["events_per_s"] = 1.0
        assert bench.gate(current, baseline, tolerance=0.25) == []


class TestRender:
    def test_report_mentions_every_benchmark(self, smoke_results):
        report = bench.render_report(smoke_results)
        for name in smoke_results["benchmarks"]:
            assert name in report
        assert "smoke" in report

    def test_cli_smoke_exit_zero(self, tmp_path):
        from repro.experiments.cli import main

        out = tmp_path / "bench.json"
        rc = main(["bench", "--smoke", "--jobs", "2", "--output", str(out)])
        assert rc == 0
        saved = json.loads(out.read_text())
        assert saved["smoke"] is True

    def test_cli_bad_baseline_exits_two(self, tmp_path):
        from repro.experiments.cli import main

        rc = main(["bench", "--smoke", "--baseline", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_cli_corrupt_baseline_exits_two(self, tmp_path, capsys):
        from repro.experiments.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text("{truncated")
        rc = main(["bench", "--smoke", "--baseline", str(baseline)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "omega-sim bench:" in err and "not valid JSON" in err

    def test_cli_list_shaped_baseline_exits_two(self, tmp_path, capsys):
        from repro.experiments.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text("[1, 2, 3]\n")
        rc = main(["bench", "--smoke", "--baseline", str(baseline)])
        assert rc == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_cli_tampered_baseline_exits_two(self, tmp_path, capsys):
        from repro.experiments.cli import main
        from repro.recovery.artifacts import write_json_artifact

        doc = {"benchmarks": {}, "machine": {}, "smoke": True}
        baseline = tmp_path / "baseline.json"
        write_json_artifact(baseline, doc)
        mangled = json.loads(baseline.read_text())
        mangled["machine"] = {"cpu_count": 999}  # stale content_hash
        baseline.write_text(json.dumps(mangled))
        rc = main(["bench", "--smoke", "--baseline", str(baseline)])
        assert rc == 2
        assert "integrity check" in capsys.readouterr().err

    def test_cli_output_is_loadable_artifact(self, tmp_path):
        from repro.experiments.cli import main
        from repro.recovery.artifacts import load_json_artifact

        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--output", str(out)]) == 0
        doc = load_json_artifact(out, require=("benchmarks", "machine"))
        assert doc["smoke"] is True


class TestCompare:
    def _saved(self, tmp_path, name, results):
        from repro.recovery.artifacts import write_json_artifact

        path = tmp_path / name
        write_json_artifact(path, results)
        return str(path)

    def test_render_compare_delta_table(self, smoke_results):
        new = copy.deepcopy(smoke_results)
        new["benchmarks"]["placement_pack"]["placements_per_s"] *= 2.0
        table = bench.render_compare(smoke_results, new)
        assert "placement_pack.placements_per_s" in table
        assert "+100.0%" in table
        assert "paper_scale.events_per_s" in table

    def test_compare_and_gate_against_pr8_artifact(self, smoke_results):
        # BENCH_PR8.json still carries the deleted commit_batch
        # benchmark; a document without it must compare and gate cleanly.
        from pathlib import Path

        from repro.recovery.artifacts import load_json_artifact

        pr8 = load_json_artifact(
            Path(__file__).resolve().parents[2] / "BENCH_PR8.json",
            require=("benchmarks", "machine"),
        )
        assert "commit_batch" in pr8["benchmarks"]
        assert "commit_batch" not in smoke_results["benchmarks"]
        table = bench.render_compare(pr8, smoke_results)
        assert "placement_pack.placements_per_s" in table
        assert "paper_scale.events_per_s" in table
        assert "commit_batch" not in table
        # Same machine shape and mode, so the per-metric loop runs.
        baseline = copy.deepcopy(pr8)
        baseline["machine"] = smoke_results["machine"]
        baseline["smoke"] = smoke_results["smoke"]
        failures = bench.gate(smoke_results, baseline, tolerance=0.25)
        assert not any("commit_batch" in failure for failure in failures)

    def test_render_compare_notes_machine_mismatch(self, smoke_results):
        new = copy.deepcopy(smoke_results)
        new["machine"]["cpu_count"] = smoke_results["machine"]["cpu_count"] + 4
        table = bench.render_compare(smoke_results, new)
        assert "machine shapes differ" in table

    def test_render_compare_notes_smoke_mismatch(self, smoke_results):
        new = copy.deepcopy(smoke_results)
        new["smoke"] = not smoke_results["smoke"]
        table = bench.render_compare(smoke_results, new)
        assert "smoke modes differ" in table

    def test_cli_compare_exit_zero(self, tmp_path, capsys, smoke_results):
        from repro.experiments.cli import main

        old = self._saved(tmp_path, "old.json", smoke_results)
        new = self._saved(tmp_path, "new.json", smoke_results)
        assert main(["bench", "--compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "snapshot_resync.speedup" in out
        assert "+0.0%" in out

    def test_cli_compare_missing_input_exits_two(self, tmp_path, capsys, smoke_results):
        from repro.experiments.cli import main

        old = self._saved(tmp_path, "old.json", smoke_results)
        rc = main(["bench", "--compare", old, str(tmp_path / "nope.json")])
        assert rc == 2
        assert "omega-sim bench:" in capsys.readouterr().err

    def test_cli_compare_corrupt_input_exits_two(self, tmp_path, capsys, smoke_results):
        from repro.experiments.cli import main

        new = self._saved(tmp_path, "new.json", smoke_results)
        corrupt = tmp_path / "old.json"
        corrupt.write_text("{truncated")
        rc = main(["bench", "--compare", str(corrupt), new])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_cli_compare_schema_invalid_exits_two(self, tmp_path, capsys, smoke_results):
        from repro.experiments.cli import main

        new = self._saved(tmp_path, "new.json", smoke_results)
        invalid = self._saved(tmp_path, "old.json", {"machine": {}})
        rc = main(["bench", "--compare", invalid, new])
        assert rc == 2
        assert "benchmarks" in capsys.readouterr().err
