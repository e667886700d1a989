"""Retry policies threaded through the scheduler service loop.

`tests/faults/test_retry.py` pins down the policies in isolation; these
tests exercise them where they act: `QueueScheduler._resolve_attempt`
(abandonment with an explicit reason, delayed back-of-queue requeues,
escalation bookkeeping) and `OmegaScheduler.attempt` (an escalated
gang job committing incrementally), plus the chaos commit-drop hook.
"""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.scheduler import OmegaScheduler
from repro.core.transaction import CommitMode
from repro.core.retry import MAX_CONFLICT_RETRIES, StarvationEscalationPolicy
from repro.schedulers.base import DecisionTimeModel, QueueScheduler
from repro.sim.random import RandomStreams
from tests.conftest import make_job


class AlwaysConflicting(QueueScheduler):
    """A minimal scheduler whose first ``conflicts`` attempts conflict."""

    def __init__(self, sim, metrics, conflicts=10**9, **kwargs):
        model = DecisionTimeModel(t_job=1.0, t_task=0.0)
        super().__init__("conflicting", sim, metrics, model, **kwargs)
        self.remaining_conflicts = conflicts

    def attempt(self, job):
        if self.remaining_conflicts > 0:
            self.remaining_conflicts -= 1
            self._resolve_attempt(job, had_conflict=True)
        else:
            job.unplaced_tasks = 0
            self._resolve_attempt(job, had_conflict=False)


def starvation(escalate_after=3):
    return StarvationEscalationPolicy(
        RandomStreams(0).stream("retry.conflicting"), escalate_after
    )


class TestAbandonment:
    def test_starvation_abandons_with_conflict_cap_reason(self, sim, metrics):
        scheduler = AlwaysConflicting(sim, metrics, retry_policy=starvation())
        job = make_job(num_tasks=2)
        scheduler.submit(job)
        sim.run()
        assert job.abandoned
        # MAX_CONFLICT_RETRIES retries + the abandoning attempt
        assert job.conflicts == MAX_CONFLICT_RETRIES + 1
        assert metrics.abandoned_for_reason("conflict-cap") == 1
        assert metrics.abandoned_for_reason("attempt-limit") == 0

    def test_attempt_limit_reason_still_distinct(self, sim, metrics):
        scheduler = AlwaysConflicting(sim, metrics, attempt_limit=5)
        job = make_job(num_tasks=2)
        scheduler.submit(job)
        sim.run()
        assert job.abandoned
        assert metrics.abandoned_for_reason("attempt-limit") == 1
        assert metrics.abandoned_for_reason("conflict-cap") == 0

    def test_abandoned_job_stops_consuming_the_scheduler(self, sim, metrics):
        scheduler = AlwaysConflicting(sim, metrics, retry_policy=starvation())
        scheduler.submit(make_job(num_tasks=2))
        sim.run()
        assert scheduler.queue_depth == 0
        assert not scheduler.is_busy


class TestBackoffRequeue:
    def test_delayed_requeue_leaves_scheduler_idle(self, sim, metrics):
        scheduler = AlwaysConflicting(
            sim, metrics, conflicts=1, retry_policy=starvation()
        )
        job = make_job(num_tasks=2)
        scheduler.submit(job)
        # Attempt 1 finishes (and conflicts) at t=1; the retry is held
        # back 1-1.5 s (BASE_DELAY plus jitter), so the scheduler sits
        # idle until t=2-2.5.
        sim.run(until=1.9)
        assert not scheduler.is_busy
        assert scheduler.queue_depth == 0
        assert not job.is_fully_scheduled
        sim.run(until=4.0)  # the retry takes 1 s
        assert job.is_fully_scheduled
        assert 3.0 <= job.fully_scheduled_time < 3.5
        assert not job.escalated

    def test_backoff_requeues_at_the_back(self, sim, metrics):
        scheduler = AlwaysConflicting(
            sim, metrics, conflicts=1, retry_policy=starvation()
        )
        first = make_job(num_tasks=2)
        second = make_job(num_tasks=2)
        scheduler.submit(first)
        scheduler.submit(second)
        sim.run()
        # first conflicted once and re-entered behind second, so second
        # finished earlier even though it was submitted later.
        assert second.fully_scheduled_time < first.fully_scheduled_time


class TestEscalation:
    def test_starvation_policy_marks_job_and_metrics(self, sim, metrics):
        scheduler = AlwaysConflicting(
            sim, metrics, conflicts=3, retry_policy=starvation(escalate_after=2)
        )
        job = make_job(num_tasks=2)
        scheduler.submit(job)
        sim.run()
        assert job.escalated
        assert job.is_fully_scheduled
        assert metrics.total("jobs_escalated") == 1

    def test_escalated_gang_job_commits_incrementally(self, sim, metrics, rng):
        """The §3.6 remedy end-to-end: an ALL_OR_NOTHING scheduler lands
        the partial placement of an escalated job instead of skipping."""
        state = CellState(Cell.homogeneous(2, cpu_per_machine=4.0, mem_per_machine=16.0))
        scheduler = OmegaScheduler(
            "omega",
            sim,
            metrics,
            state,
            rng,
            DecisionTimeModel(t_job=0.1, t_task=0.01),
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        # 12 tasks x 1 cpu into 8 cpu of capacity: gang placement can
        # never plan the full job.
        gang = make_job(num_tasks=12, cpu=1.0, mem=1.0, duration=1e6)
        scheduler.submit(gang)
        sim.run(until=10.0)
        assert gang.unplaced_tasks == 12  # gang mode: nothing landed
        gang.escalated = True
        sim.run(until=20.0)
        assert 0 < gang.unplaced_tasks < 12  # partial progress now lands
        assert state.used_cpu == pytest.approx(12 - gang.unplaced_tasks)


class DropOnce:
    """Chaos stub: drop the first commit, then behave."""

    def __init__(self):
        self.calls = 0

    def commit_fault(self, scheduler, job):
        self.calls += 1
        return (0.0, self.calls == 1)


class TestCommitDropAccounting:
    def test_drop_is_a_conflict_and_job_recovers(self, sim, metrics, rng, state):
        scheduler = OmegaScheduler(
            "omega",
            sim,
            metrics,
            state,
            rng,
            DecisionTimeModel(t_job=0.1, t_task=0.01),
        )
        scheduler.chaos = DropOnce()
        job = make_job(num_tasks=2)
        scheduler.submit(job)
        sim.run(until=10.0)
        assert job.is_fully_scheduled
        assert job.conflicts == 1
        assert metrics.total("commits_dropped") == 1
        # The dropped attempt's plan never touched the cell state: only
        # the successful retry's tasks are running.
        assert state.used_cpu == pytest.approx(2.0)
