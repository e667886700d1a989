"""Tests for Poisson workload generation and the initial fill."""

import itertools

import numpy as np
import pytest

from repro.sim import Simulator
from repro.workload.generator import InitialFill, StandingTask, WorkloadGenerator
from repro.workload.job import JobType
from tests.conftest import tiny_preset


@pytest.fixture
def preset():
    return tiny_preset()


class TestWorkloadGenerator:
    def _run(self, preset, horizon=2000.0, rate_factor=1.0, seed=0):
        sim = Simulator()
        jobs = []
        generator = WorkloadGenerator(
            sim,
            preset.batch,
            JobType.BATCH,
            np.random.default_rng(seed),
            jobs.append,
            horizon,
            itertools.count(1),
            rate_factor=rate_factor,
        )
        generator.start()
        sim.run()
        return sim, jobs, generator

    def test_generates_expected_count(self, preset):
        _, jobs, generator = self._run(preset, horizon=4000.0)
        expected = preset.batch.arrival_rate * 4000.0
        assert len(jobs) == pytest.approx(expected, rel=0.25)
        assert generator.jobs_generated == len(jobs)

    def test_all_arrivals_within_horizon(self, preset):
        _, jobs, _ = self._run(preset, horizon=1000.0)
        assert all(0 < job.submit_time <= 1000.0 for job in jobs)

    def test_arrivals_strictly_ordered(self, preset):
        _, jobs, _ = self._run(preset)
        times = [job.submit_time for job in jobs]
        assert times == sorted(times)

    def test_rate_factor_scales_arrivals(self, preset):
        _, base_jobs, _ = self._run(preset, horizon=4000.0)
        _, scaled_jobs, _ = self._run(preset, horizon=4000.0, rate_factor=3.0)
        assert len(scaled_jobs) == pytest.approx(3 * len(base_jobs), rel=0.25)

    def test_deterministic_given_seed(self, preset):
        _, first, _ = self._run(preset, seed=5)
        _, second, _ = self._run(preset, seed=5)
        assert [j.submit_time for j in first] == [j.submit_time for j in second]
        assert [j.num_tasks for j in first] == [j.num_tasks for j in second]

    def test_job_fields_sampled_from_params(self, preset):
        _, jobs, _ = self._run(preset, horizon=4000.0)
        assert all(job.job_type is JobType.BATCH for job in jobs)
        assert all(job.num_tasks >= 1 for job in jobs)
        assert all(job.cpu_per_task > 0 for job in jobs)
        assert all(job.duration > 0 for job in jobs)

    def test_validation(self, preset):
        sim = Simulator()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="horizon"):
            WorkloadGenerator(
                sim, preset.batch, JobType.BATCH, rng, print, -1.0, iter(())
            )
        with pytest.raises(ValueError, match="rate_factor"):
            WorkloadGenerator(
                sim, preset.batch, JobType.BATCH, rng, print, 100.0, iter(()),
                rate_factor=0.0,
            )


class TestInitialFill:
    def test_reaches_cpu_target(self, preset):
        fill = InitialFill(preset)
        tasks = fill.generate(np.random.default_rng(0))
        total_cpu = sum(task.cpu for task in tasks)
        target = preset.total_cpu * preset.initial_utilization
        assert total_cpu >= target
        # Overshoot is at most one task.
        assert total_cpu - target < max(task.cpu for task in tasks) + 1e-9

    def test_service_majority_of_standing_cpu(self, preset):
        tasks = InitialFill(preset).generate(np.random.default_rng(1))
        service_cpu = sum(t.cpu for t in tasks if t.job_type is JobType.SERVICE)
        total_cpu = sum(t.cpu for t in tasks)
        assert service_cpu / total_cpu == pytest.approx(
            InitialFill.SERVICE_CPU_SHARE, abs=0.1
        )

    def test_service_standing_tasks_are_long_lived(self, preset):
        """Standing service tasks must persist for the simulation's
        horizon, or utilization decays unrealistically."""
        tasks = InitialFill(preset).generate(np.random.default_rng(2))
        service_durations = [
            t.duration for t in tasks if t.job_type is JobType.SERVICE
        ]
        assert np.median(service_durations) > 86400.0

    def test_target_override(self, preset):
        fill = InitialFill(preset, target_utilization=0.2)
        tasks = fill.generate(np.random.default_rng(3))
        total_cpu = sum(task.cpu for task in tasks)
        assert total_cpu == pytest.approx(preset.total_cpu * 0.2, rel=0.2)

    def test_zero_target_is_empty(self, preset):
        fill = InitialFill(preset, target_utilization=0.0)
        assert fill.generate(np.random.default_rng(0)) == []

    def test_invalid_target(self, preset):
        with pytest.raises(ValueError):
            InitialFill(preset, target_utilization=1.0)

    def test_standing_task_is_frozen(self):
        task = StandingTask(cpu=1.0, mem=2.0, duration=10.0, job_type=JobType.BATCH)
        with pytest.raises(AttributeError):
            task.cpu = 2.0  # type: ignore[misc]
