"""Tests for Poisson workload generation and the initial fill."""

import dataclasses
import itertools
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.sim import Simulator
from repro.workload.clusters import PRESETS, preset_by_name
from repro.workload.distributions import Constant, LogNormal, Mixture
from repro.workload.generator import InitialFill, StandingTasks, WorkloadGenerator
from repro.workload.job import JobType
from tests.conftest import mesos_pathology_preset, tiny_preset


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
        total_cpu = sum(tasks.cpu)
        target = preset.total_cpu * preset.initial_utilization
        assert total_cpu >= target
        # Overshoot is at most one task.
        assert total_cpu - target < max(tasks.cpu) + 1e-9

    def test_service_majority_of_standing_cpu(self, preset):
        tasks = InitialFill(preset).generate(np.random.default_rng(1))
        service_cpu = sum(
            cpu for cpu, job_type in zip(tasks.cpu, tasks.job_type)
            if job_type is JobType.SERVICE
        )
        total_cpu = sum(tasks.cpu)
        assert service_cpu / total_cpu == pytest.approx(
            InitialFill.SERVICE_CPU_SHARE, abs=0.1
        )

    def test_service_standing_tasks_are_long_lived(self, preset):
        """Standing service tasks must persist for the simulation's
        horizon, or utilization decays unrealistically."""
        tasks = InitialFill(preset).generate(np.random.default_rng(2))
        service_durations = [
            duration
            for duration, job_type in zip(tasks.duration, tasks.job_type)
            if job_type is JobType.SERVICE
        ]
        assert np.median(service_durations) > 86400.0

    def test_target_override(self, preset):
        fill = InitialFill(preset, target_utilization=0.2)
        tasks = fill.generate(np.random.default_rng(3))
        total_cpu = sum(tasks.cpu)
        assert total_cpu == pytest.approx(preset.total_cpu * 0.2, rel=0.2)

    def test_zero_target_is_empty(self, preset):
        fill = InitialFill(preset, target_utilization=0.0)
        assert fill.generate(np.random.default_rng(0)) == StandingTasks()

    def test_invalid_target(self, preset):
        with pytest.raises(ValueError):
            InitialFill(preset, target_utilization=1.0)


def scalar_loop_generate(preset, target_utilization, rng) -> StandingTasks:
    """The oracle: ``InitialFill.generate`` as it was before it drew in
    blocks, one scalar ``sample`` per field and one task per iteration."""
    target_cpu = preset.total_cpu * target_utilization
    tasks = StandingTasks()
    filled = 0.0
    service_budget = target_cpu * InitialFill.SERVICE_CPU_SHARE
    service_filled = 0.0
    while filled < target_cpu:
        if service_filled < service_budget:
            params, job_type = preset.service, JobType.SERVICE
        else:
            params, job_type = preset.batch, JobType.BATCH
        cpu = params.cpu_per_task.sample(rng)
        if job_type is JobType.SERVICE:
            duration = InitialFill.SERVICE_RESIDUAL.sample(rng)
        else:
            duration = params.task_duration.sample(rng)
        tasks.cpu.append(cpu)
        tasks.mem.append(params.mem_per_task.sample(rng))
        tasks.duration.append(duration)
        tasks.job_type.append(job_type)
        filled += cpu
        if job_type is JobType.SERVICE:
            service_filled += cpu
    return tasks


def bits(tasks) -> list[tuple]:
    return [
        (cpu.hex(), mem.hex(), duration.hex(), job_type)
        for cpu, mem, duration, job_type in zip(
            tasks.cpu, tasks.mem, tasks.duration, tasks.job_type, strict=True
        )
    ]


class SpyRng:
    """A generator that notes the shape of each block drawn from it."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.blocks: list[tuple] = []

    def lognormal(self, mean, sigma, size=None):
        if size is not None:
            self.blocks.append(size)
        return self._rng.lognormal(mean, sigma, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def assert_same_fill(preset, utilization, seed) -> tuple[StandingTasks, SpyRng]:
    """Same tasks bit for bit, and the stream left where the scalar loop
    leaves it (``populate`` goes on to draw the machine order from it)."""
    rng, oracle_rng = SpyRng(seed), np.random.default_rng(seed)
    tasks = InitialFill(preset, utilization).generate(rng)
    assert bits(tasks) == bits(scalar_loop_generate(preset, utilization, oracle_rng))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert rng.permutation(50).tolist() == oracle_rng.permutation(50).tolist()
    return tasks, rng


def with_cpu(preset, service_cpu=None, batch_cpu=None):
    """``preset`` with the per-task CPU samplers swapped."""
    service, batch = preset.service, preset.batch
    if service_cpu is not None:
        service = dataclasses.replace(service, cpu_per_task=service_cpu)
    if batch_cpu is not None:
        batch = dataclasses.replace(batch, cpu_per_task=batch_cpu)
    return dataclasses.replace(preset, service=service, batch=batch)


class TestInitialFillMatchesScalarLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("utilization", [0.0, 0.01, 0.25, 0.6, 0.8])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name, utilization, seed):
        tasks, rng = assert_same_fill(PRESETS[name], utilization, seed)
        assert bool(tasks) == bool(rng.blocks) == (utilization > 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_service_phase_overshoots_a_tiny_target(self, preset, seed):
        tasks, _ = assert_same_fill(preset, 1e-6, seed)
        assert tasks.job_type == [JobType.SERVICE]

    @pytest.mark.parametrize("seed", range(5))
    def test_overdrawn_first_block_is_rewound(self, preset, seed):
        # A target of a few dozen rounds: the block's 16 spare rounds overdraw.
        tasks, rng = assert_same_fill(preset, 0.5, seed)
        service = tasks.job_type.count(JobType.SERVICE)
        # the block ran past the stopping round; exactly that many redrawn
        assert rng.blocks[0][0] > service
        assert rng.blocks[1] == (service, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_short_first_block_is_topped_up_and_only_the_last_redrawn(self, seed):
        # A target of a thousand rounds: the first block falls short, the
        # second overdraws and is rewound to the rounds still needed.
        tasks, rng = assert_same_fill(tiny_preset(num_machines=400), 0.5, seed)
        service = tasks.job_type.count(JobType.SERVICE)
        (first, _), (second, _), (redrawn, _) = rng.blocks[:3]
        assert first < service < first + second
        assert redrawn == service - first

    @pytest.mark.parametrize("seed", range(5))
    def test_underdrawn_first_block_is_topped_up(self, preset, seed):
        # Clipped far below its analytic mean, so the size estimate is short.
        small = LogNormal(median=1.0, sigma=0.5, high=0.2)
        tasks, rng = assert_same_fill(with_cpu(preset, service_cpu=small), 0.5, seed)
        service = tasks.job_type.count(JobType.SERVICE)
        assert rng.blocks[0][0] < rng.blocks[0][0] + rng.blocks[1][0] <= service

    @pytest.mark.parametrize("seed", range(3))
    def test_other_samplers_take_the_scalar_loop(self, preset, seed):
        mixed = Mixture(
            [LogNormal(median=0.3, sigma=0.4, low=0.1, high=1.0), Constant(1.6)],
            [0.7, 0.3],
        )
        tasks, rng = assert_same_fill(with_cpu(preset, batch_cpu=mixed), 0.5, seed)
        # the all-LogNormal service phase still draws blocks; batch does not
        batch = tasks.rows(tasks.job_type.index(JobType.BATCH), len(tasks))
        assert set(batch.job_type) == {JobType.BATCH}
        assert 1.6 in batch.cpu
        assert rng.blocks[-1] == (len(tasks) - len(batch), 3)
        tasks, rng = assert_same_fill(mesos_pathology_preset(), 0.6, seed)
        assert tasks and not rng.blocks

    @pytest.mark.parametrize(
        "stuck",
        [
            {"service_cpu": Constant(0.0)},  # scalar loop
            {"batch_cpu": Constant(0.0)},
            {"service_cpu": LogNormal(median=1.0, sigma=0.5, high=0.0)},  # blocks
            {"batch_cpu": LogNormal(median=1.0, sigma=0.5, high=0.0)},
        ],
    )
    def test_cpu_draw_that_cannot_advance_is_an_error(self, preset, stuck):
        (sampler,) = stuck.values()
        with pytest.raises(ValueError) as error:
            InitialFill(with_cpu(preset, **stuck)).generate(np.random.default_rng(0))
        assert repr(sampler) in str(error.value) and "\n" not in str(error.value)


class TestPackedColumns:
    """The amounts are packed C doubles, and :meth:`StandingTasks.rows`
    views them without copying."""

    @pytest.mark.parametrize("make_preset", [tiny_preset, mesos_pathology_preset])
    def test_generated_columns_are_packed_doubles(self, make_preset):
        # tiny: LogNormal blocks; mesos pathology: the scalar loop
        tasks = InitialFill(make_preset()).generate(np.random.default_rng(0))
        assert len(tasks) > 0
        for column in (tasks.cpu, tasks.mem, tasks.duration):
            assert type(column) is array and column.typecode == "d"

    def test_rows_share_the_parents_buffer(self, preset):
        tasks = InitialFill(preset).generate(np.random.default_rng(0))
        part = tasks.rows(2, 5)
        assert len(part) == 3 and part.job_type == tasks.job_type[2:5]
        for name in ("cpu", "mem", "duration"):
            column, view = getattr(tasks, name), getattr(part, name)
            assert type(view) is memoryview and view.obj is column
            column[3] = 1234.5
            assert view[1] == 1234.5
            assert list(view) == list(column[2:5])

    def test_sequences_are_packed(self):
        tasks = StandingTasks([1, 2.5], (0.5, 0.25), np.array([10.0, 20.0]), [JobType.BATCH] * 2)
        for column in (tasks.cpu, tasks.mem, tasks.duration):
            assert type(column) is array and column.typecode == "d"
        assert list(tasks.cpu) == [1.0, 2.5]
        assert list(tasks.duration) == [10.0, 20.0]

    @pytest.mark.parametrize("short", ["cpu", "mem", "duration", "job_type"])
    def test_columns_of_unequal_length_are_refused(self, short):
        columns = {
            "cpu": [1.0] * 3,
            "mem": [2.0] * 3,
            "duration": [3.0] * 3,
            "job_type": [JobType.BATCH] * 3,
        }
        columns[short] = columns[short][:2]
        lengths = ", ".join("2" if name == short else "3" for name in columns)
        with pytest.raises(ValueError, match=f"job_type have {lengths}$"):
            StandingTasks(**columns)

    def test_paper_scale_fill_allocates_under_70_bytes_per_task(self):
        """A 10k-machine cell's fill peaks at about 57 B a task (8 B per
        packed amount, one ``job_type`` pointer, the block's transients);
        three lists of boxed floats peaked at 132 B."""
        b = preset_by_name("B")
        fill = InitialFill(b.scaled(10_000 / b.num_machines))
        fill.generate(np.random.default_rng(1))  # warm any first-call caches
        tracemalloc.start()
        try:
            tasks = fill.generate(np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tasks) > 40_000
        assert peak / len(tasks) < 70
