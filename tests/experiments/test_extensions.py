"""Tests for the extension wiring: preemption in the harness, ablation
drivers, CLI additions."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.cli import main, render_plot
from repro.experiments.common import LightweightConfig, run_lightweight
from repro.experiments.mesos import pathology_points, pathology_preset
from repro.experiments.registry import EXPERIMENTS, run, run_point
from repro.workload.job import DEFAULT_PRECEDENCE, JobType
from tests.conftest import tiny_preset


class TestHarnessPreemption:
    @pytest.fixture(scope="class")
    def busy_preset(self):
        return dataclasses.replace(tiny_preset(), initial_utilization=0.85)

    def test_preemption_config_builds_and_runs(self, busy_preset):
        result = run_lightweight(
            LightweightConfig(
                preset=busy_preset,
                architecture="omega",
                horizon=1200.0,
                seed=2,
                enable_preemption=True,
            )
        )
        assert result.jobs_scheduled > 0
        # Accounting symmetry: everything the service scheduler evicted
        # was lost by the batch side.
        assert result.role_total("service", "preemptions_caused") == result.role_total(
            "batch", "tasks_lost_to_preemption"
        )

    def test_preemption_off_never_evicts(self, busy_preset):
        result = run_lightweight(
            LightweightConfig(
                preset=busy_preset,
                architecture="omega",
                horizon=1200.0,
                seed=2,
                enable_preemption=False,
            )
        )
        assert result.role_total("service", "preemptions_caused") == 0

    def test_generator_assigns_precedence_bands(self):
        assert DEFAULT_PRECEDENCE[JobType.SERVICE] > DEFAULT_PRECEDENCE[JobType.BATCH]


class TestAblationDrivers:
    def test_retry_rows_shape(self):
        rows = run(EXPERIMENTS["ablation-retry"], dict(scale=0.05, horizon=600.0))
        assert {row["retry_position"] for row in rows} == {"head", "tail"}

    def test_initial_utilization_rows_shape(self):
        rows = run(
            EXPERIMENTS["ablation-util"],
            dict(values=(0.2, 0.7), scale=0.05, horizon=600.0),
        )
        assert [row["initial_utilization"] for row in rows] == [0.2, 0.7]

    def test_backoff_rows_shape(self):
        rows = run(
            EXPERIMENTS["ablation-backoff"],
            dict(values=(0.0, 10.0), scale=0.05, horizon=600.0),
        )
        assert [row["cooldown_s"] for row in rows] == [0.0, 10.0]

    def test_preemption_rows_shape(self):
        rows = run(
            EXPERIMENTS["ablation-preemption"], dict(scale=0.05, horizon=900.0)
        )
        by_mode = {row["preemption"]: row for row in rows}
        assert set(by_mode) == {"on", "off"}
        assert by_mode["off"]["tasks_preempted"] == 0

    def test_pathology_rows(self):
        points = pathology_points(
            t_jobs=(0.1,),
            architectures=("omega",),
            horizon=600.0,
            num_machines=60,
        )
        rows = [run_point(point) for point in points]
        assert len(rows) == 1
        assert rows[0]["architecture"] == "omega"

    def test_pathology_preset_has_big_tasks(self):
        preset = pathology_preset()
        rng = np.random.default_rng(0)
        samples = preset.batch.cpu_per_task.sample_many(rng, 5000)
        assert (samples > 1.5).mean() == pytest.approx(0.03, abs=0.01)


class TestCliAdditions:
    def test_ablation_command_runs(self, capsys):
        assert main(["ablation-util", "--scale", "0.05", "--hours", "0.2"]) == 0
        output = capsys.readouterr().out
        assert "initial_utilization" in output

    def test_plot_flag_renders_chart(self, capsys):
        assert (
            main(["ablation-util", "--scale", "0.05", "--hours", "0.2", "--plot"]) == 0
        )
        output = capsys.readouterr().out
        assert "legend:" in output

    def test_plot_unsupported_command_is_an_error(self, capsys):
        """A command without a ``Plot`` does not offer ``--plot``."""
        with pytest.raises(SystemExit) as exited:
            main(["table1", "--plot"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --plot" in capsys.readouterr().err

    def test_render_plot_series_grouping(self):
        rows = [
            {"cluster": "A", "rate_factor": 1.0, "busy_batch": 0.1},
            {"cluster": "A", "rate_factor": 2.0, "busy_batch": 0.2},
            {"cluster": "B", "rate_factor": 1.0, "busy_batch": 0.05},
        ]
        chart = render_plot("fig8", rows)
        assert chart is not None
        assert "A" in chart and "B" in chart
