"""The runtime determinism gate: double-run trace comparison."""

import math

import pytest

from repro.analysis.determinism import (
    DeterminismReport,
    canonical_record,
    diff_traces,
    main,
    run_gate,
    values_equal,
)
from repro.experiments.registry import EXPERIMENTS, run


class TestValuesEqual:
    def test_nan_equals_nan(self):
        assert values_equal(float("nan"), float("nan"))
        assert values_equal({"wait": math.nan}, {"wait": math.nan})

    def test_distinct_floats_differ(self):
        assert not values_equal(1.0, 1.0 + 1e-12)

    def test_nested_structures(self):
        assert values_equal([{"a": (1, 2.0)}], [{"a": (1, 2.0)}])
        assert not values_equal([{"a": 1}], [{"a": 2}])


class TestDiffTraces:
    def test_identical_traces_have_no_divergence(self):
        trace = [{"kind": "event", "name": "txn.begin", "t": 1.0}]
        assert diff_traces(trace, list(trace)) == []

    def test_wall_time_ignored(self):
        a = [{"kind": "span", "name": "s", "wall_ms": 1.0}]
        b = [{"kind": "span", "name": "s", "wall_ms": 99.0}]
        assert diff_traces(a, b) == []

    def test_nested_wall_fields_ignored(self):
        a = [{"kind": "event", "fields": {"wall_ms": 1.0, "n": 2}}]
        b = [{"kind": "event", "fields": {"wall_ms": 3.0, "n": 2}}]
        assert diff_traces(a, b) == []

    def test_divergence_reported_with_index(self):
        a = [{"t": 0.0}, {"t": 1.0}]
        b = [{"t": 0.0}, {"t": 2.0}]
        divergences = diff_traces(a, b)
        assert len(divergences) == 1
        assert divergences[0].startswith("record 1:")

    def test_length_mismatch_reported(self):
        assert "record count differs" in diff_traces([{}], [])[0]

    def test_divergence_cap(self):
        a = [{"t": float(i)} for i in range(50)]
        b = [{"t": float(i) + 1.0} for i in range(50)]
        divergences = diff_traces(a, b, max_divergences=5)
        assert divergences[-1].startswith("...")
        assert len(divergences) == 6

    def test_canonical_record_strips_wall(self):
        record = {"kind": "span", "wall_ms": 3.0, "fields": {"wall_ms": 1.0}}
        assert canonical_record(record) == {"kind": "span", "fields": {}}


class TestRunGate:
    def test_deterministic_experiment_passes(self):
        report = run_gate(
            lambda recorder: run(
                EXPERIMENTS["fig5c"],
                dict(t_jobs=(1.0,), clusters=("A",), horizon=600.0, seed=7, scale=0.02),
                recorder=recorder,
            )
        )
        assert report.identical, report.render()
        assert report.records_a == report.records_b > 0

    def test_each_run_gets_a_fresh_recorder(self):
        recorders = []
        run_gate(lambda recorder: recorders.append(recorder))
        first, second = recorders
        assert first is not second and first.enabled and second.enabled

    def test_nondeterministic_experiment_fails(self):
        calls = iter([1, 2])

        def flaky(recorder):
            recorder.event("step", value=next(calls))
            return []

        report = run_gate(flaky)
        assert not report.identical
        assert any("record 0" in line for line in report.divergences)

    def test_divergent_return_value_fails(self):
        calls = iter(["a", "b"])

        def quiet_flaky(recorder):
            recorder.event("step", value=1)
            return next(calls)

        report = run_gate(quiet_flaky)
        assert report.divergences == [
            "experiment return values differ between runs"
        ]

    def test_report_render(self):
        good = DeterminismReport(records_a=3, records_b=3)
        assert "IDENTICAL" in good.render()
        bad = DeterminismReport(records_a=3, records_b=3, divergences=["record 0: x"])
        assert "DIVERGED" in bad.render()


class TestRunParallelGate:
    @staticmethod
    def _experiment(jobs, recorder):
        return run(
            EXPERIMENTS["fig5c"],
            dict(
                t_jobs=(1.0,),
                clusters=("A",),
                horizon=0.2 * 3600.0,
                seed=3,
                scale=0.02,
            ),
            jobs=jobs,
            recorder=recorder,
        )

    def test_serial_vs_parallel_identical(self):
        report = run_gate(self._experiment, jobs=2)
        assert report.identical
        assert report.records_a == report.records_b > 0

    def test_rejects_degenerate_worker_count(self):
        with pytest.raises(ValueError, match="needs >= 2 workers, got 1"):
            run_gate(self._experiment, jobs=1)

    def test_divergent_parallel_rows_fail(self):
        def experiment(jobs, recorder):
            # A fake "experiment" whose result depends on the worker
            # count — exactly what the gate exists to catch.
            return [{"jobs": jobs}]

        report = run_gate(experiment, jobs=2)
        assert report.divergences == [
            "experiment rows differ between --jobs 1 and --jobs 2"
        ]


class TestGateCli:
    def test_main_passes_on_small_run(self, capsys):
        code = main(
            ["--experiment", "fig5c", "--scale", "0.02", "--hours", "0.2", "--seed", "3"]
        )
        assert code == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_main_compare_jobs_passes(self, capsys):
        code = main(
            [
                "--experiment", "fig5c", "--scale", "0.02", "--hours", "0.2",
                "--seed", "3", "--compare-jobs", "2",
            ]
        )
        assert code == 0
        assert "IDENTICAL" in capsys.readouterr().out

    def test_main_compare_jobs_rejects_one(self, capsys):
        code = main(
            [
                "--experiment", "fig5c", "--scale", "0.02", "--hours", "0.2",
                "--compare-jobs", "1",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("kill_after", ["0", "-1"])
    def test_main_kill_after_rejects_below_one(self, capsys, kill_after):
        code = main(
            ["--experiment", "fig8", "--kill-resume", "--kill-after", kill_after]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"determinism gate: --kill-after must be >= 1, got {kill_after}\n"

    def test_kill_resume_ignores_a_stale_checkpoint(self, tmp_path):
        """A checkpoint left in the artifacts directory by an earlier
        gate is removed, so the victim is really killed mid-run and
        its own checkpoint is the one resumed."""
        from repro.recovery.gate import DEFAULT_KILL_AFTER, run_kill_resume_gate

        stale = tmp_path / "checkpoint"
        stale.mkdir()
        (stale / "points.jsonl").write_text("{}\n" * DEFAULT_KILL_AFTER)
        report = run_kill_resume_gate(
            experiment="fig8", scale=0.05, hours=0.3, artifacts_dir=tmp_path
        )
        assert report.identical, report.render()
