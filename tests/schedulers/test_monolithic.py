"""Tests for the monolithic scheduler (single-path and multi-path)."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.schedulers.base import DecisionTimeModel
from repro.schedulers.monolithic import MonolithicScheduler
from repro.workload.job import JobType
from tests.conftest import make_job


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(6, cpu_per_machine=4.0, mem_per_machine=16.0))


def single(sim, metrics, state, t_job=1.0):
    return MonolithicScheduler(
        "monolithic", sim, metrics, state, np.random.default_rng(0),
        DecisionTimeModel(t_job=t_job, t_task=0.0),
    )


class TestSinglePath:
    def test_same_decision_time_for_both_types(self, sim, metrics, state):
        scheduler = single(sim, metrics, state, t_job=2.0)
        batch = make_job(job_type=JobType.BATCH)
        service = make_job(job_type=JobType.SERVICE)
        assert scheduler.decision_time(batch) == scheduler.decision_time(service) == 2.0

    def test_never_conflicts(self, sim, metrics, state):
        scheduler = single(sim, metrics, state)
        jobs = [make_job(num_tasks=3) for _ in range(5)]
        for job in jobs:
            scheduler.submit(job)
        sim.run(until=30.0)
        assert all(job.conflicts == 0 for job in jobs)
        assert metrics.schedulers[scheduler.name].transactions_attempted == 0

    def test_head_of_line_blocking(self, sim, metrics, state):
        """A slow decision delays every job behind it — the single-path
        pathology of Figure 5a."""
        scheduler = single(sim, metrics, state, t_job=10.0)
        slow = make_job(job_type=JobType.SERVICE)
        stuck = make_job(job_type=JobType.BATCH)
        scheduler.submit(slow)
        scheduler.submit(stuck)
        sim.run(until=30.0)
        assert stuck.wait_time == pytest.approx(10.0)

    def test_places_against_authoritative_state(self, sim, metrics, state):
        scheduler = single(sim, metrics, state)
        job = make_job(num_tasks=4, cpu=1.0, mem=1.0, duration=100.0)
        scheduler.submit(job)
        sim.run(until=5.0)
        assert state.used_cpu == 4.0

    def test_partial_placement_requeues(self, sim, metrics):
        tiny_state = CellState(Cell.homogeneous(1, 4.0, 16.0))
        scheduler = single(sim, metrics, tiny_state)
        job = make_job(num_tasks=6, cpu=1.0, mem=1.0, duration=3.0)
        scheduler.submit(job)
        sim.run(until=2.0)
        assert job.placed_tasks == 4
        assert not job.is_fully_scheduled
        sim.run(until=10.0)  # first wave ends at ~4s, rest placed
        assert job.is_fully_scheduled


class TestMultiPath:
    def test_per_type_decision_times(self, sim, metrics, state):
        scheduler = MonolithicScheduler(
            "monolithic-multipath",
            sim,
            metrics,
            state,
            np.random.default_rng(0),
            {
                JobType.BATCH: DecisionTimeModel(t_job=0.1, t_task=0.0),
                JobType.SERVICE: DecisionTimeModel(t_job=30.0, t_task=0.0),
            },
        )
        assert scheduler.decision_time(make_job(job_type=JobType.BATCH)) == 0.1
        assert scheduler.decision_time(make_job(job_type=JobType.SERVICE)) == 30.0

    def test_still_one_job_at_a_time(self, sim, metrics, state):
        """Multi-path reduces batch decision time but cannot overlap
        decisions: HOL blocking remains (Figure 5b)."""
        scheduler = MonolithicScheduler(
            "monolithic-multipath",
            sim,
            metrics,
            state,
            np.random.default_rng(0),
            {
                JobType.BATCH: DecisionTimeModel(t_job=0.1, t_task=0.0),
                JobType.SERVICE: DecisionTimeModel(t_job=10.0, t_task=0.0),
            },
        )
        service = make_job(job_type=JobType.SERVICE)
        batch = make_job(job_type=JobType.BATCH)
        scheduler.submit(service)
        scheduler.submit(batch)
        sim.run(until=30.0)
        assert batch.wait_time == pytest.approx(10.0)

    def test_decision_times_must_cover_types(self, sim, metrics, state):
        with pytest.raises(ValueError, match="missing job types"):
            MonolithicScheduler(
                "m",
                sim,
                metrics,
                state,
                np.random.default_rng(0),
                {JobType.BATCH: DecisionTimeModel()},
            )
