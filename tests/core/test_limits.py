"""Tests for scheduler limits, admission control and the post-facto
policy monitor (paper section 3.4)."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.limits import (
    LimitedOmegaScheduler,
    PolicyMonitor,
    SchedulerLimits,
    Violation,
)
from repro.core.preemption import AllocationLedger
from repro.core.scheduler import OmegaScheduler
from repro.schedulers.base import DecisionTimeModel
from tests.conftest import make_job


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(10, cpu_per_machine=4.0, mem_per_machine=16.0))


def limited(sim, metrics, state, limits, seed=0):
    return LimitedOmegaScheduler(
        "limited",
        sim,
        metrics,
        state,
        np.random.default_rng(seed),
        DecisionTimeModel(t_job=0.1, t_task=0.0),
        limits=limits,
    )


class TestSchedulerLimitsValidation:
    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            SchedulerLimits(max_cpu=-1.0)
        with pytest.raises(ValueError):
            SchedulerLimits(max_mem=-1.0)
        with pytest.raises(ValueError):
            SchedulerLimits(max_admitted_jobs=-1)

    def test_unlimited_by_default(self):
        limits = SchedulerLimits()
        assert limits.max_cpu is None
        assert limits.max_admitted_jobs is None


class TestAdmissionControl:
    def test_jobs_beyond_limit_rejected(self, sim, metrics, state):
        scheduler = limited(sim, metrics, state, SchedulerLimits(max_admitted_jobs=2))
        jobs = [make_job(num_tasks=1) for _ in range(4)]
        for job in jobs:
            scheduler.submit(job)
        sim.run(until=5.0)
        assert scheduler.jobs_admitted == 2
        assert scheduler.jobs_rejected == 2
        assert sum(1 for job in jobs if job.is_fully_scheduled) == 2

    def test_unlimited_admission(self, sim, metrics, state):
        scheduler = limited(sim, metrics, state, SchedulerLimits())
        for _ in range(5):
            scheduler.submit(make_job(num_tasks=1))
        sim.run(until=5.0)
        assert scheduler.jobs_rejected == 0


class TestResourceQuota:
    def test_claims_trimmed_at_cpu_quota(self, sim, metrics, state):
        scheduler = limited(sim, metrics, state, SchedulerLimits(max_cpu=3.0))
        job = make_job(num_tasks=10, cpu=1.0, mem=1.0, duration=1000.0)
        scheduler.submit(job)
        sim.run(until=1.0)
        assert job.placed_tasks == 3
        assert scheduler.used_cpu == pytest.approx(3.0)

    def test_quota_frees_as_tasks_end(self, sim, metrics, state):
        scheduler = limited(sim, metrics, state, SchedulerLimits(max_cpu=2.0))
        first = make_job(num_tasks=2, cpu=1.0, mem=1.0, duration=10.0)
        second = make_job(num_tasks=2, cpu=1.0, mem=1.0, duration=10.0)
        scheduler.submit(first)
        scheduler.submit(second)
        sim.run(until=5.0)
        assert first.is_fully_scheduled
        assert not second.is_fully_scheduled  # quota exhausted
        sim.run(until=30.0)
        assert second.is_fully_scheduled  # first job's end freed quota

    def test_mem_quota_binds_independently(self, sim, metrics, state):
        scheduler = limited(sim, metrics, state, SchedulerLimits(max_mem=4.0))
        job = make_job(num_tasks=10, cpu=0.1, mem=2.0, duration=1000.0)
        scheduler.submit(job)
        sim.run(until=1.0)
        assert job.placed_tasks == 2

    def test_zero_quota_places_nothing(self, sim, metrics, state):
        scheduler = limited(
            sim, metrics, state, SchedulerLimits(max_cpu=0.0), seed=1
        )
        job = make_job(num_tasks=1, cpu=1.0, mem=1.0)
        scheduler.submit(job)
        sim.run(until=2.0)
        assert job.placed_tasks == 0

    def test_other_schedulers_unaffected(self, sim, metrics, state):
        scheduler = limited(sim, metrics, state, SchedulerLimits(max_cpu=1.0))
        free_rider = OmegaScheduler(
            "free",
            sim,
            metrics,
            state,
            np.random.default_rng(9),
            DecisionTimeModel(t_job=0.1, t_task=0.0),
        )
        capped = make_job(num_tasks=5, cpu=1.0, mem=1.0, duration=1000.0)
        uncapped = make_job(num_tasks=5, cpu=1.0, mem=1.0, duration=1000.0)
        scheduler.submit(capped)
        free_rider.submit(uncapped)
        sim.run(until=2.0)
        assert capped.placed_tasks == 1
        assert uncapped.is_fully_scheduled


class TestPolicyMonitor:
    def test_detects_violation(self, sim, state):
        ledger = AllocationLedger(state, sim)
        monitor = PolicyMonitor(
            sim,
            ledger,
            limits={"greedy": SchedulerLimits(max_cpu=1.0)},
            interval=10.0,
        )
        monitor.start(until=100.0)
        ledger.register(
            0, 1.0, 1.0, 3,
            precedence=0,
            duration=1000.0,
            owner="greedy",
        )
        sim.run(until=50.0)
        assert monitor.samples == 5
        assert len(monitor.violations) == 5
        violation = monitor.violations[0]
        assert isinstance(violation, Violation)
        assert violation.scheduler == "greedy"
        assert violation.used_cpu == pytest.approx(3.0)

    def test_no_violation_within_limits(self, sim, state):
        ledger = AllocationLedger(state, sim)
        monitor = PolicyMonitor(
            sim,
            ledger,
            limits={"modest": SchedulerLimits(max_cpu=10.0)},
            interval=10.0,
        )
        monitor.start(until=50.0)
        ledger.register(
            0, 1.0, 1.0, 2,
            precedence=0,
            duration=1000.0,
            owner="modest",
        )
        sim.run(until=50.0)
        assert monitor.violations == []

    def test_violation_clears_after_task_end(self, sim, state):
        ledger = AllocationLedger(state, sim)
        monitor = PolicyMonitor(
            sim,
            ledger,
            limits={"bursty": SchedulerLimits(max_cpu=1.0)},
            interval=10.0,
        )
        monitor.start(until=100.0)
        ledger.register(
            0, 2.0, 2.0, 1,
            precedence=0,
            duration=15.0,
            owner="bursty",
        )
        sim.run(until=100.0)
        # Violating at t=10 only; clean afterwards.
        assert len(monitor.violations) == 1

    def test_usage_by_owner_groups_unowned(self, sim, state):
        ledger = AllocationLedger(state, sim)
        ledger.register(
            0, 1.0, 2.0, 1, precedence=0, duration=10.0
        )
        usage = ledger.usage_by_owner()
        assert usage["<unowned>"] == (1.0, 2.0)

    def test_invalid_interval(self, sim, state):
        ledger = AllocationLedger(state, sim)
        monitor = PolicyMonitor(sim, ledger, limits={}, interval=0.0)
        with pytest.raises(ValueError):
            monitor.start()
