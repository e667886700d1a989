"""Tests for the specialized MapReduce scheduler."""

import itertools

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.mapreduce.model import MapReduceJob, MapReduceProfile
from repro.mapreduce.policies import (
    MaxParallelismPolicy,
    NoAccelerationPolicy,
    RelativeJobSizePolicy,
)
from repro.mapreduce.scheduler import MapReduceScheduler, MapReduceWorkload
from repro.schedulers.base import DecisionTimeModel
from repro.sim import Simulator
from tests.conftest import make_job


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(50, cpu_per_machine=4.0, mem_per_machine=16.0))


def make_mr_scheduler(sim, metrics, state, policy, seed=0):
    return MapReduceScheduler(
        "mapreduce",
        sim,
        metrics,
        state,
        np.random.default_rng(seed),
        DecisionTimeModel(t_job=0.1, t_task=0.0),
        policy,
    )


def mr_job(workers=10, maps=200, reduces=50):
    profile = MapReduceProfile(
        maps=maps,
        reduces=reduces,
        map_duration=60.0,
        reduce_duration=60.0,
        workers_configured=workers,
        cpu_per_worker=1.0,
        mem_per_worker=2.0,
    )
    return MapReduceJob.from_profile(profile, submit_time=0.0, job_id=1)


class TestOpportunisticGrants:
    def test_max_parallelism_grants_extra_workers(self, sim, metrics, state):
        scheduler = make_mr_scheduler(sim, metrics, state, MaxParallelismPolicy())
        job = mr_job(workers=10, maps=100, reduces=0)
        scheduler.submit(job)
        sim.run(until=1.0)
        assert job.granted_workers == 100
        assert scheduler.speedups == [pytest.approx(10.0)]
        assert state.used_cpu == 100.0

    def test_grant_shortens_duration(self, sim, metrics, state):
        scheduler = make_mr_scheduler(sim, metrics, state, MaxParallelismPolicy())
        job = mr_job(workers=10, maps=100, reduces=0)
        scheduler.submit(job)
        sim.run(until=1.0)
        # 100 maps x 60 s on 100 workers = 60 s instead of 600 s.
        assert job.duration == pytest.approx(60.0)
        sim.run(until=100.0)
        assert state.used_cpu == 0.0  # all workers freed at completion

    def test_no_acceleration_matches_configured(self, sim, metrics, state):
        scheduler = make_mr_scheduler(sim, metrics, state, NoAccelerationPolicy())
        job = mr_job(workers=10)
        scheduler.submit(job)
        sim.run(until=1.0)
        assert job.granted_workers == 10
        assert scheduler.speedups == [pytest.approx(1.0)]

    def test_relative_job_size_caps_at_4x(self, sim, metrics, state):
        scheduler = make_mr_scheduler(sim, metrics, state, RelativeJobSizePolicy())
        job = mr_job(workers=10, maps=500)
        scheduler.submit(job)
        sim.run(until=1.0)
        assert job.granted_workers == 40

    def test_grant_limited_by_cluster_room(self, sim, metrics):
        small_state = CellState(Cell.homogeneous(5, 4.0, 16.0))  # 20 cores
        scheduler = make_mr_scheduler(
            sim, metrics, small_state, MaxParallelismPolicy()
        )
        job = mr_job(workers=4, maps=1000)
        scheduler.submit(job)
        sim.run(until=1.0)
        assert 4 <= job.granted_workers <= 20

    def test_elastic_grant_below_configured_when_cluster_tight(self, sim, metrics):
        tiny = CellState(Cell.homogeneous(2, 4.0, 16.0))  # 8 cores
        tiny.claim(0, 4.0, 16.0)
        tiny.claim(1, 2.0, 2.0)
        scheduler = make_mr_scheduler(sim, metrics, tiny, MaxParallelismPolicy())
        job = mr_job(workers=10, maps=100)  # asks for 10, only 2 fit
        scheduler.submit(job)
        sim.run(until=1.0)
        assert job.granted_workers == 2
        assert job.is_fully_scheduled  # elastic: placed pool becomes the job
        assert scheduler.speedups[0] < 1.0  # a slowdown, honestly recorded

    def test_plain_jobs_take_the_omega_path(self, sim, metrics, state):
        scheduler = make_mr_scheduler(sim, metrics, state, MaxParallelismPolicy())
        plain = make_job(num_tasks=3, duration=100.0)
        scheduler.submit(plain)
        sim.run(until=1.0)
        assert plain.is_fully_scheduled
        assert state.used_cpu == 3.0
        assert scheduler.speedups == []

    def test_worker_accounting(self, sim, metrics, state):
        scheduler = make_mr_scheduler(sim, metrics, state, MaxParallelismPolicy())
        scheduler.submit(mr_job(workers=10, maps=50))
        sim.run(until=1.0)
        assert scheduler.workers_configured_total == 10
        assert scheduler.workers_granted_total == 50


class TestMapReduceWorkload:
    def test_generates_mr_jobs(self):
        sim = Simulator()
        jobs = []
        workload = MapReduceWorkload(
            sim, rate=0.05, rng=np.random.default_rng(0), submit=jobs.append,
            horizon=2000.0, job_ids=itertools.count(1),
        )
        workload.start()
        sim.run()
        assert len(jobs) > 0
        assert all(isinstance(job, MapReduceJob) for job in jobs)
        assert workload.jobs_generated == len(jobs)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MapReduceWorkload(
                sim, rate=0.0, rng=None, submit=print, horizon=10.0, job_ids=iter(())
            )
        with pytest.raises(ValueError):
            MapReduceWorkload(
                sim, rate=1.0, rng=None, submit=print, horizon=0.0, job_ids=iter(())
            )
