"""Timeline sampler: determinism, windowing, and CLI plumbing."""

from __future__ import annotations

import json
import math
from functools import partial

import pytest

from repro import obs
from repro.analysis.determinism import run_parallel_gate
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.experiments.registry import EXPERIMENTS, Experiment, run
from repro.obs import timeline
from repro.workload import preset_by_name
from repro.world import RunContext


def _traced_run(seed: int = 1, interval: float | None = 120.0,
                horizon: float = 1800.0, **kwargs):
    config = LightweightConfig(
        preset=preset_by_name("B").scaled(0.02),
        horizon=horizon,
        seed=seed,
        timeline_interval=interval,
        **kwargs,
    )
    recorder = obs.TraceRecorder()
    simulation = LightweightSimulation(config, RunContext(recorder))
    simulation.build()
    simulation.run()
    return recorder.records, simulation


def _timeline_records(records):
    return [r for r in records if r["name"].startswith("timeline.")]


class TestSampling:
    def test_sample_count_is_floor_of_horizon_over_interval(self):
        records, simulation = _traced_run(interval=300.0, horizon=1000.0)
        cells = [r for r in records if r["name"] == "timeline.cell"]
        assert len(cells) == 3  # ticks at t=300, 600, 900
        assert simulation.timeline_sampler.samples_taken == 3
        assert [r["t"] for r in cells] == [300.0, 600.0, 900.0]

    def test_sched_series_covers_every_scheduler(self):
        records, simulation = _traced_run()
        scheds = {r["sched"] for r in records if r["name"] == "timeline.sched"}
        assert scheds == {s.name for s in simulation.schedulers}

    def test_sampled_values_are_bounded(self):
        records, _ = _traced_run()
        for record in _timeline_records(records):
            fields = record["fields"]
            if record["name"] == "timeline.cell":
                assert 0.0 <= fields["cpu_util"] <= 1.0
                assert 0.0 <= fields["mem_util"] <= 1.0
                assert fields["pending"] >= 0
                assert fields["active_faults"] >= 0
            else:
                assert 0.0 <= fields["busy_frac"] <= 1.0
                assert fields["conflict_rate"] >= 0.0
                assert fields["abandon_rate"] >= 0.0
                assert fields["queue_depth"] >= 0

    def test_off_by_default(self):
        records, simulation = _traced_run(interval=None)
        assert simulation.timeline_sampler is None
        assert _timeline_records(records) == []

    def test_run_metrics_record_carries_histogram_states(self):
        records, _ = _traced_run()
        metrics = [r for r in records if r["name"] == "run.metrics"]
        assert len(metrics) == 1
        histograms = metrics[0]["fields"]["histograms"]
        assert any(h["name"] == "jobs.wait_seconds" for h in histograms)
        for entry in histograms:
            assert entry["state"]["count"] == sum(entry["state"]["counts"])

    def test_interval_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                _traced_run(interval=bad)
            with pytest.raises(ValueError, match="positive and finite"):
                timeline.TimelineSampler(None, None, [], [], interval=bad)


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        records_a, _ = _traced_run(seed=7)
        records_b, _ = _traced_run(seed=7)
        dumps = lambda records: [  # noqa: E731
            json.dumps({k: v for k, v in r.items() if k != "wall_ms"},
                       sort_keys=True)
            for r in _timeline_records(records)
        ]
        assert dumps(records_a) == dumps(records_b)
        assert len(dumps(records_a)) > 0

    def test_serial_vs_parallel_identical(self):
        params = dict(
            t_jobs=(1.0,), clusters=("A",), horizon=900.0, seed=3, scale=0.05,
            timeline_interval=120.0,
        )
        report = run_parallel_gate(partial(run, EXPERIMENTS["fig5c"], params), jobs=2)
        assert report.identical, report.render()
        assert report.records_a > 0


class TestDefaultInterval:
    """``run`` puts its ``timeline_interval`` on the configs it runs —
    there is no process-wide default for a config to read."""

    @staticmethod
    def _experiment(configs):
        return Experiment(
            "sampled", "", points=lambda: [(config, {}) for config in configs]
        )

    def test_run_puts_default_on_every_config(self, monkeypatch):
        from repro.experiments import registry

        preset = preset_by_name("A").scaled(0.02)
        configs = [LightweightConfig(preset=preset, horizon=60.0) for _ in range(2)]
        assert [config.timeline_interval for config in configs] == [None, None]
        monkeypatch.setattr(registry, "run_point", lambda point, recorder, **_: {})
        run(self._experiment(configs), {"timeline_interval": 45.0})
        assert [config.timeline_interval for config in configs] == [45.0, 45.0]
        # Nothing lingers: a config built afterwards does not sample.
        assert LightweightConfig(preset=preset).timeline_interval is None

    def test_explicit_config_value_wins(self, monkeypatch):
        from repro.experiments import registry

        config = LightweightConfig(
            preset=preset_by_name("A").scaled(0.02), timeline_interval=10.0
        )
        monkeypatch.setattr(registry, "run_point", lambda point, recorder, **_: {})
        run(self._experiment([config]), {"timeline_interval": 45.0})
        assert config.timeline_interval == 10.0

    def test_set_default_rejects_nonpositive(self):
        def never():
            raise AssertionError("points were built despite a bad interval")

        experiment = Experiment("sampled", "", points=never)
        with pytest.raises(ValueError, match="positive"):
            run(experiment, {"timeline_interval": 0.0})


class TestKillResumePlumbing:
    def test_cli_command_carries_timeline_interval(self):
        from repro.recovery.gate import _cli_command

        base = _cli_command("fig8", seed=0, scale=0.05, hours=0.3)
        assert "--timeline-interval" not in base
        command = _cli_command(
            "fig8", seed=0, scale=0.05, hours=0.3, timeline_interval=120.0
        )
        assert command[-2:] == ["--timeline-interval", "120.0"]
