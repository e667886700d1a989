"""Tests for the Omega shared-state scheduler loop."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.scheduler import OmegaScheduler
from repro.core.transaction import CommitMode, ConflictMode
from repro.schedulers.base import DecisionTimeModel
from repro.workload.job import JobType
from tests.conftest import make_job


@pytest.fixture
def cell():
    return Cell.homogeneous(8, cpu_per_machine=4.0, mem_per_machine=16.0)


@pytest.fixture
def state(cell):
    return CellState(cell)


def make_scheduler(sim, metrics, state, name="omega", seed=0, **kwargs):
    return OmegaScheduler(
        name,
        sim,
        metrics,
        state,
        np.random.default_rng(seed),
        kwargs.pop("decision_times", DecisionTimeModel(t_job=0.1, t_task=0.01)),
        **kwargs,
    )


class TestBasicScheduling:
    def test_schedules_a_job(self, sim, metrics, state):
        scheduler = make_scheduler(sim, metrics, state)
        job = make_job(num_tasks=4, cpu=1.0, mem=2.0, duration=50.0)
        scheduler.submit(job)
        sim.run(until=10.0)  # before the tasks end at t~50
        assert job.is_fully_scheduled
        assert job.attempts == 1
        assert state.used_cpu == 4.0

    def test_decision_time_model_applied(self, sim, metrics, state):
        scheduler = make_scheduler(sim, metrics, state)
        job = make_job(num_tasks=10)
        scheduler.submit(job)
        sim.run(until=0.19)  # t_decision = 0.1 + 10 * 0.01 = 0.2
        assert not job.is_fully_scheduled
        sim.run(until=0.21)
        assert job.is_fully_scheduled
        assert job.fully_scheduled_time == pytest.approx(0.2)

    def test_tasks_release_resources_at_duration(self, sim, metrics, state):
        scheduler = make_scheduler(sim, metrics, state)
        scheduler.submit(make_job(num_tasks=2, duration=50.0))
        sim.run(until=40.0)
        assert state.used_cpu == 2.0
        sim.run(until=60.0)
        assert state.used_cpu == 0.0

    def test_serial_processing_queues_jobs(self, sim, metrics, state):
        scheduler = make_scheduler(sim, metrics, state)
        first = make_job(num_tasks=10)
        second = make_job(num_tasks=1)
        scheduler.submit(first)
        scheduler.submit(second)
        sim.run()
        # Second job waited for the first decision (0.2s), so its wait
        # time equals the first decision's duration.
        assert second.wait_time == pytest.approx(0.2)

    def test_wait_time_zero_for_idle_scheduler(self, sim, metrics, state):
        scheduler = make_scheduler(sim, metrics, state)
        job = make_job()
        scheduler.submit(job)
        sim.run()
        assert job.wait_time == 0.0

    def test_per_type_decision_times(self, sim, metrics, state):
        scheduler = make_scheduler(
            sim,
            metrics,
            state,
            decision_times={
                JobType.BATCH: DecisionTimeModel(t_job=0.1, t_task=0.0),
                JobType.SERVICE: DecisionTimeModel(t_job=30.0, t_task=0.0),
            },
        )
        batch = make_job(job_type=JobType.BATCH)
        service = make_job(job_type=JobType.SERVICE)
        assert scheduler.decision_time(batch) == pytest.approx(0.1)
        assert scheduler.decision_time(service) == pytest.approx(30.0)

    def test_missing_job_type_rejected(self, sim, metrics, state):
        with pytest.raises(ValueError, match="missing job types"):
            OmegaScheduler(
                "bad",
                sim,
                metrics,
                state,
                np.random.default_rng(0),
                {JobType.BATCH: DecisionTimeModel()},
            )


class TestConflictsBetweenSchedulers:
    def test_two_schedulers_conflict_on_scarce_resources(self, sim, metrics):
        """Two schedulers thinking simultaneously about the last slot:
        one commit wins, the other conflicts and retries."""
        state = CellState(Cell.homogeneous(1, 4.0, 16.0))
        a = make_scheduler(sim, metrics, state, name="a", seed=1)
        b = make_scheduler(sim, metrics, state, name="b", seed=2)
        job_a = make_job(num_tasks=1, cpu=3.0, mem=3.0, duration=10.0)
        job_b = make_job(num_tasks=1, cpu=3.0, mem=3.0, duration=10.0)
        a.submit(job_a)
        b.submit(job_b)
        sim.run(until=5.0)
        # Exactly one commit succeeded at t=0.11; the loser retried.
        assert job_a.is_fully_scheduled != job_b.is_fully_scheduled
        loser = job_b if job_a.is_fully_scheduled else job_a
        assert loser.conflicts >= 1
        # After the winner's task ends (10s), the loser finally lands.
        sim.run(until=20.0)
        assert loser.is_fully_scheduled

    def test_no_interference_when_resources_plentiful(self, sim, metrics, state):
        a = make_scheduler(sim, metrics, state, name="a", seed=1)
        b = make_scheduler(sim, metrics, state, name="b", seed=2)
        jobs = [make_job(num_tasks=2, cpu=0.5, mem=0.5) for _ in range(6)]
        for index, job in enumerate(jobs):
            (a if index % 2 else b).submit(job)
        sim.run()
        assert all(job.is_fully_scheduled for job in jobs)
        assert metrics.overall_conflict_fraction("a") == 0.0
        assert metrics.overall_conflict_fraction("b") == 0.0

    def test_conflict_retry_goes_to_queue_front(self, sim, metrics):
        state = CellState(Cell.homogeneous(1, 4.0, 16.0))
        a = make_scheduler(sim, metrics, state, name="a", seed=1)
        b = make_scheduler(sim, metrics, state, name="b", seed=2)
        contender = make_job(num_tasks=1, cpu=3.0, mem=3.0, duration=5.0)
        loser_head = make_job(num_tasks=1, cpu=3.0, mem=3.0, duration=5.0)
        loser_tail = make_job(num_tasks=1, cpu=0.5, mem=0.5, duration=5.0)
        a.submit(contender)
        b.submit(loser_head)
        b.submit(loser_tail)
        sim.run(until=30.0)
        # The conflicted job retried at the head of the queue: its
        # second attempt (starting right after the conflict at t=0.11)
        # ran before the queued job's first attempt (t=0.22). Only
        # after that retry failed on *capacity* (not conflict) did it
        # yield the queue to the small job.
        assert loser_head.conflicts == 1
        assert loser_tail.first_attempt_time == pytest.approx(0.22)
        assert loser_tail.is_fully_scheduled
        assert loser_head.is_fully_scheduled


class TestGangScheduling:
    def test_gang_job_waits_for_full_capacity(self, sim, metrics):
        state = CellState(Cell.homogeneous(2, 4.0, 16.0))
        state.claim(0, 4.0, 16.0)  # half the cell is occupied
        scheduler = make_scheduler(
            sim, metrics, state, commit_mode=CommitMode.ALL_OR_NOTHING
        )
        job = make_job(num_tasks=8, cpu=1.0, mem=1.0)  # needs both machines
        scheduler.submit(job)
        sim.run(until=5.0)
        assert not job.is_fully_scheduled
        assert job.placed_tasks == 0  # no hoarding: nothing partially held
        state.release(0, 4.0, 16.0)
        sim.run(until=10.0)
        assert job.is_fully_scheduled

    def test_incremental_job_takes_partial(self, sim, metrics):
        state = CellState(Cell.homogeneous(2, 4.0, 16.0))
        state.claim(0, 4.0, 16.0)
        scheduler = make_scheduler(sim, metrics, state)
        job = make_job(num_tasks=8, cpu=1.0, mem=1.0, duration=100.0)
        scheduler.submit(job)
        sim.run(until=5.0)
        assert job.placed_tasks == 4  # machine 1's worth


class TestAbandonment:
    def test_unschedulable_job_abandoned_at_limit(self, sim, metrics):
        state = CellState(Cell.homogeneous(1, 4.0, 16.0))
        scheduler = make_scheduler(sim, metrics, state, attempt_limit=5)
        job = make_job(num_tasks=1, cpu=8.0, mem=1.0)  # never fits
        scheduler.submit(job)
        sim.run(until=100.0)
        assert job.abandoned
        assert job.attempts == 5
        assert metrics.schedulers["omega"].jobs_abandoned == 1

    def test_abandoned_job_does_not_block_queue(self, sim, metrics):
        state = CellState(Cell.homogeneous(1, 4.0, 16.0))
        scheduler = make_scheduler(sim, metrics, state, attempt_limit=3)
        scheduler.submit(make_job(num_tasks=1, cpu=8.0, mem=1.0))
        fine = make_job(num_tasks=1, cpu=1.0, mem=1.0)
        scheduler.submit(fine)
        sim.run(until=100.0)
        assert fine.is_fully_scheduled


class TestSnapshotSemantics:
    def test_snapshot_taken_at_think_start(self, sim, metrics, state):
        """Placements are planned against the state as of the sync at
        the *start* of thinking, not the commit instant."""
        scheduler = make_scheduler(sim, metrics, state)
        job = make_job(num_tasks=1, cpu=1.0, mem=1.0)
        scheduler.submit(job)
        # While the scheduler thinks (0.11s), another actor fills all
        # machines; the planned claim then conflicts at commit.
        sim.at(0.05, lambda: [state.claim(m, 4.0, 16.0) for m in range(8)])
        sim.run(until=1.0)
        assert job.conflicts >= 1
