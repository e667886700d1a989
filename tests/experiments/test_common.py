"""Tests for the lightweight-simulator harness."""

import pytest

from repro import obs
from repro.experiments.common import (
    ARCHITECTURES,
    LightweightConfig,
    LightweightSimulation,
    geometric_grid,
    run_lightweight,
)
from repro.experiments.sweeps import result_row
from repro.metrics.ascii_chart import format_table
from repro.schedulers.base import DecisionTimeModel
from repro.workload.job import JobType
from repro.world import RunContext
from tests.conftest import tiny_preset


@pytest.fixture
def preset():
    return tiny_preset()


class TestConfig:
    def test_unknown_architecture_rejected(self, preset):
        with pytest.raises(ValueError, match="unknown architecture") as error:
            LightweightConfig(preset=preset, architecture="quantum")
        assert str(error.value).endswith(f"choose from {tuple(ARCHITECTURES)}")

    def test_invalid_horizon(self, preset):
        with pytest.raises(ValueError):
            LightweightConfig(preset=preset, horizon=0.0)

    def test_default_period_is_quarter_horizon(self, preset):
        config = LightweightConfig(preset=preset, horizon=4000.0)
        assert config.period == 1000.0

    def test_period_caps_at_a_day(self, preset):
        config = LightweightConfig(preset=preset, horizon=10 * 86400.0)
        assert config.period == 86400.0


class TestHarness:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_every_architecture_runs(self, preset, architecture):
        result = run_lightweight(
            LightweightConfig(
                preset=preset, architecture=architecture, horizon=600.0, seed=1
            )
        )
        assert result.jobs_submitted > 0
        assert result.jobs_scheduled > 0
        assert 0.0 <= result.final_cpu_utilization <= 1.0

    def test_identical_workload_across_architectures(self, preset):
        """The cornerstone of the section 4 comparisons: the same seed
        produces the same job stream for every architecture."""
        counts = {}
        for architecture in ("monolithic-single", "mesos", "omega"):
            result = run_lightweight(
                LightweightConfig(
                    preset=preset, architecture=architecture, horizon=900.0, seed=7
                )
            )
            counts[architecture] = result.jobs_submitted
        assert len(set(counts.values())) == 1

    def test_deterministic_given_seed(self, preset):
        config = LightweightConfig(preset=preset, horizon=900.0, seed=3)
        first = run_lightweight(config)
        second = run_lightweight(
            LightweightConfig(preset=preset, horizon=900.0, seed=3)
        )
        assert first.jobs_scheduled == second.jobs_scheduled
        assert first.mean_wait(JobType.BATCH) == second.mean_wait(JobType.BATCH)
        assert first.final_cpu_utilization == second.final_cpu_utilization

    def test_seed_changes_outcome(self, preset):
        first = run_lightweight(LightweightConfig(preset=preset, horizon=900.0, seed=1))
        second = run_lightweight(LightweightConfig(preset=preset, horizon=900.0, seed=2))
        def fingerprint(r):
            return (r.events_processed, r.final_cpu_utilization)

        assert fingerprint(first) != fingerprint(second)

    def test_initial_utilization_override(self, preset):
        low = run_lightweight(
            LightweightConfig(
                preset=preset, horizon=60.0, seed=0, initial_utilization=0.1
            )
        )
        high = run_lightweight(
            LightweightConfig(
                preset=preset, horizon=60.0, seed=0, initial_utilization=0.8
            )
        )
        assert high.final_cpu_utilization > low.final_cpu_utilization

    def test_utilization_sampling(self, preset):
        result = run_lightweight(
            LightweightConfig(
                preset=preset,
                horizon=600.0,
                seed=0,
                utilization_sample_interval=100.0,
            )
        )
        assert len(result.utilization_series) == 6
        times = [t for t, _, _ in result.utilization_series]
        assert times == sorted(times)

    def test_multiple_batch_schedulers_names(self, preset):
        result = run_lightweight(
            LightweightConfig(
                preset=preset, horizon=300.0, seed=0, num_batch_schedulers=3
            )
        )
        assert len(result.batch_scheduler_names) == 3

    def test_build_twice_rejected(self, preset):
        simulation = LightweightSimulation(LightweightConfig(preset=preset))
        simulation.build()
        with pytest.raises(RuntimeError):
            simulation.build()

    def test_role_validation(self, preset):
        result = run_lightweight(LightweightConfig(preset=preset, horizon=300.0))
        with pytest.raises(ValueError, match="role"):
            result.busyness("mystery")


class TestRunIsolation:
    """Ids belong to their run, ledger or allocator: what one world
    numbers never depends on another world in the process."""

    def test_interleaved_worlds_match_their_solo_runs(self):
        """Job ids steer results (``SchedulerPool`` routes on
        ``job_id % n``), so two worlds built side by side must each
        draw their own."""
        configs = [
            LightweightConfig(
                preset=tiny_preset(batch_rate=3.0),
                num_batch_schedulers=3,
                batch_model=DecisionTimeModel(t_job=0.8, t_task=0.05),
                horizon=600.0,
                seed=seed,
            )
            for seed in (1, 2)
        ]
        worlds = [LightweightSimulation(config).build() for config in configs]
        together = [result_row(world.run()) for world in worlds]
        # Sensitivity: ids that ran on would rotate the second routing.
        assert worlds[0].metrics.jobs_submitted % 3
        alone = [result_row(run_lightweight(config)) for config in configs]
        assert together == alone

    def test_preemption_record_ids_repeat_across_runs(self, preset):
        """An invariant report naming "orphaned record N" must name the
        same N however many runs the process made before."""

        def live_record_ids():
            world = LightweightSimulation(
                LightweightConfig(
                    preset=preset, enable_preemption=True, horizon=600.0, seed=1
                )
            )
            world.run()
            by_machine = world.ledger._by_machine
            return sorted(i for records in by_machine.values() for i in records)

        first = live_record_ids()
        assert first and first == live_record_ids()

    def test_mesos_worlds_each_number_offers_from_one(self, preset):
        recorder = obs.TraceRecorder()
        worlds = [
            LightweightSimulation(
                LightweightConfig(
                    preset=preset, architecture="mesos", horizon=300.0, seed=seed
                ),
                RunContext(recorder),
            ).build()
            for seed in (1, 2)
        ]
        for world in worlds:
            world.run()
        offers = [
            record["fields"]["offer"]
            for record in recorder.records
            if record["name"] == "mesos.offer_issued"
        ]
        assert offers.count(1) == 2
        second_run = offers[offers.index(1, 1) :]
        assert second_run == list(range(1, len(second_run) + 1))


class TestHelpers:
    def test_geometric_grid(self):
        grid = geometric_grid(0.01, 100.0, 5)
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(100.0)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_geometric_grid_validation(self):
        with pytest.raises(ValueError):
            geometric_grid(1.0, 10.0, 1)
        with pytest.raises(ValueError):
            geometric_grid(10.0, 1.0, 3)

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 0.123456}, {"a": 22, "b": "text"}]
        rendered = format_table(rows)
        lines = rendered.splitlines()
        assert lines[0].startswith("a")
        assert "0.1235" in rendered
        assert len(lines) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        rendered = format_table(rows, columns=["b"])
        assert "a" not in rendered.splitlines()[0]
