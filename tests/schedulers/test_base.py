"""Tests for the shared serial service loop and decision-time model."""

import pytest

from repro.schedulers.base import (
    DEFAULT_T_JOB,
    DEFAULT_T_TASK,
    DecisionTimeModel,
    QueueScheduler,
)
from tests.conftest import make_job


class CountingScheduler(QueueScheduler):
    """Instrumented scheduler: configurable attempt outcomes."""

    def __init__(
        self, name, sim, metrics, tasks_per_attempt=None, conflict_on=(), **kwargs
    ):
        model = DecisionTimeModel(t_job=1.0, t_task=0.0)
        super().__init__(name, sim, metrics, model, **kwargs)
        self.attempt_log = []
        self.tasks_per_attempt = tasks_per_attempt
        self.conflict_on = set(conflict_on)

    def attempt(self, job):
        index = len(self.attempt_log)
        self.attempt_log.append((self.sim.now, job.job_id))
        if self.tasks_per_attempt is not None:
            job.unplaced_tasks = max(0, job.unplaced_tasks - self.tasks_per_attempt)
        else:
            job.unplaced_tasks = 0
        self._resolve_attempt(job, had_conflict=index in self.conflict_on)


class TestDecisionTimeModel:
    def test_paper_defaults(self):
        model = DecisionTimeModel()
        assert model.t_job == DEFAULT_T_JOB == 0.1
        assert model.t_task == DEFAULT_T_TASK == 0.005

    def test_linear_form(self):
        model = DecisionTimeModel(t_job=0.1, t_task=0.005)
        assert model.duration(100) == pytest.approx(0.6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DecisionTimeModel(t_job=-1.0)


class TestServiceLoop:
    def test_jobs_processed_serially(self, sim, metrics):
        scheduler = CountingScheduler("s", sim, metrics)
        jobs = [make_job() for _ in range(3)]
        for job in jobs:
            scheduler.submit(job)
        sim.run()
        times = [t for t, _ in scheduler.attempt_log]
        assert times == [1.0, 2.0, 3.0]

    def test_busy_flag(self, sim, metrics):
        scheduler = CountingScheduler("s", sim, metrics)
        scheduler.submit(make_job())
        assert scheduler.is_busy
        sim.run()
        assert not scheduler.is_busy
        assert scheduler.queue_depth == 0

    def test_wait_time_is_first_attempt_delay(self, sim, metrics):
        """Wait time = submission to *first* attempt, even with retries."""
        scheduler = CountingScheduler("s", sim, metrics, tasks_per_attempt=2)
        job = make_job(num_tasks=6)  # needs 3 attempts
        scheduler.submit(job)
        sim.run()
        assert job.wait_time == 0.0
        assert job.attempts == 3

    def test_busyness_recorded(self, sim, metrics):
        scheduler = CountingScheduler("s", sim, metrics)
        scheduler.submit(make_job())
        sim.run()
        assert metrics.busyness_series("s", 100.0) == pytest.approx([0.01])

    def test_attempt_limit_abandons(self, sim, metrics):
        scheduler = CountingScheduler(
            "s", sim, metrics, attempt_limit=4, tasks_per_attempt=0
        )
        job = make_job(num_tasks=1)
        scheduler.submit(job)
        sim.run()
        assert job.abandoned
        assert job.attempts == 4
        assert metrics.schedulers["s"].jobs_abandoned == 1

    def test_conflict_increments_job_counter(self, sim, metrics):
        scheduler = CountingScheduler(
            "s", sim, metrics, tasks_per_attempt=0, conflict_on={0}, attempt_limit=2
        )
        job = make_job(num_tasks=1)
        scheduler.submit(job)
        sim.run()
        assert job.conflicts == 1

    def test_conflict_retry_marks_rework_busyness(self, sim, metrics):
        scheduler = CountingScheduler(
            "s", sim, metrics, tasks_per_attempt=0, conflict_on={0}, attempt_limit=2
        )
        scheduler.submit(make_job(num_tasks=1))
        sim.run()
        total = metrics.busyness_series("s", 100.0)[0]
        productive = metrics.busyness_series("s", 100.0, productive=True)[0]
        assert total == pytest.approx(0.02)
        assert productive == pytest.approx(0.01)  # the retry is rework

    def test_invalid_attempt_limit(self, sim, metrics):
        with pytest.raises(ValueError):
            CountingScheduler("s", sim, metrics, attempt_limit=0)


class TestCrashAndDrain:
    """Crash/restart semantics the federation blackout path relies on."""

    def busy_scheduler(self, sim, metrics, queued=3):
        scheduler = CountingScheduler("s", sim, metrics)
        jobs = [make_job() for _ in range(queued + 1)]
        for job in jobs:
            scheduler.submit(job)
        sim.run(until=0.5)  # first job is mid-decision, rest queued
        assert scheduler.is_busy
        return scheduler, jobs

    def test_crash_default_requeues_the_inflight_job(self, sim, metrics):
        scheduler, jobs = self.busy_scheduler(sim, metrics)
        lost = scheduler.crash()
        assert lost is jobs[0]
        assert scheduler.queue_depth == len(jobs)  # back at the front
        scheduler.restart()
        sim.run()
        assert all(job.fully_scheduled_time is not None for job in jobs)

    def test_crash_without_requeue_hands_the_job_to_the_caller(
        self, sim, metrics
    ):
        scheduler, jobs = self.busy_scheduler(sim, metrics)
        lost = scheduler.crash(requeue=False)
        assert lost is jobs[0]
        # The in-flight job is gone: the caller (e.g. the federation
        # front door) owns its fate now.
        assert scheduler.queue_depth == len(jobs) - 1
        scheduler.restart()
        sim.run()
        assert lost.fully_scheduled_time is None

    def test_drain_pending_empties_the_queue_in_order(self, sim, metrics):
        scheduler, jobs = self.busy_scheduler(sim, metrics)
        drained = scheduler.drain_pending()
        assert drained == jobs[1:]
        assert scheduler.queue_depth == 0
        # The in-flight job is untouched by a drain.
        assert scheduler.crash(requeue=False) is jobs[0]

    def test_crash_while_idle_loses_nothing(self, sim, metrics):
        scheduler = CountingScheduler("s", sim, metrics)
        assert scheduler.crash(requeue=False) is None
        assert scheduler.drain_pending() == []
