"""Tests for gang-scheduled preemption (paper section 3.4: "a
gang-scheduled job can preempt lower-priority tasks once sufficient
resources are available and its transaction commits, and allow other
schedulers' jobs to use the resources in the meantime")."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger, commit_with_preemption
from repro.core.scheduler import PreemptingOmegaScheduler
from repro.core.transaction import CommitMode, Plan
from repro.schedulers.base import DecisionTimeModel
from tests.conftest import make_job


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(2, cpu_per_machine=4.0, mem_per_machine=16.0))


@pytest.fixture
def ledger(state, sim):
    return AllocationLedger(state, sim)


def claim(machine=0, cpu=1.0, mem=1.0, count=1):
    """One plan row's arguments to ``AllocationLedger.register``."""
    return machine, cpu, mem, count


class TestGangCommitWithPreemption:
    def test_gang_succeeds_with_eviction(self, state, ledger):
        ledger.register(*claim(0, cpu=3.0, mem=3.0), precedence=0, duration=100.0)
        result = commit_with_preemption(
            state,
            ledger,
            Plan(2.0, 2.0, [0, 1], [1, 1]),
            precedence=10,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert len(result.accepted) == 2 and not result.rejected
        assert result.preempted_tasks == 1

    def test_failed_gang_evicts_nothing(self, state, ledger):
        """The crucial no-hoarding property: a gang transaction that
        cannot fully commit leaves victims running."""
        victim = ledger.register(
            *claim(0, cpu=3.0, mem=3.0), precedence=0, duration=100.0
        )
        # Machine 1 is filled by an equal-precedence allocation that the
        # gang job cannot evict, so the transaction cannot fully commit.
        ledger.register(*claim(1, cpu=4.0, mem=4.0), precedence=10, duration=100.0)
        before_cpu = state.free_cpu.copy()
        result = commit_with_preemption(
            state,
            ledger,
            Plan(2.0, 2.0, [0, 1], [1, 1]),
            precedence=10,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        assert len(result.accepted) == 0
        assert len(result.rejected) == 2
        assert result.preempted_tasks == 0
        assert victim.count == 1  # untouched
        assert (state.free_cpu == before_cpu).all()

    def test_incremental_still_takes_partial(self, state, ledger):
        ledger.register(*claim(1, cpu=4.0, mem=4.0), precedence=10, duration=100.0)
        result = commit_with_preemption(
            state,
            ledger,
            Plan(2.0, 2.0, [0, 1], [1, 1]),
            precedence=10,
            commit_mode=CommitMode.INCREMENTAL,
        )
        assert len(result.accepted) == 1
        assert len(result.rejected) == 1


class TestGangPreemptingScheduler:
    def test_gang_service_job_preempts_when_it_can_fully_place(self, sim, metrics):
        state = CellState(Cell.homogeneous(2, 4.0, 16.0))
        ledger = AllocationLedger(state, sim)
        scheduler = PreemptingOmegaScheduler(
            "gang",
            sim,
            metrics,
            state,
            np.random.default_rng(0),
            DecisionTimeModel(t_job=0.1, t_task=0.0),
            ledger=ledger,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        # Low-precedence tasks occupy both machines almost fully.
        for machine in (0, 1):
            ledger.register(
                machine, 3.0, 3.0, 1,
                precedence=0,
                duration=1000.0,
            )
        gang_job = make_job(num_tasks=2, cpu=3.0, mem=3.0, duration=100.0)
        gang_job.precedence = 10
        scheduler.submit(gang_job)
        sim.run(until=1.0)
        assert gang_job.is_fully_scheduled
        assert metrics.schedulers["gang"].preemptions_caused == 2

    def test_gang_job_waits_without_hoarding(self, sim, metrics):
        state = CellState(Cell.homogeneous(2, 4.0, 16.0))
        ledger = AllocationLedger(state, sim)
        scheduler = PreemptingOmegaScheduler(
            "gang",
            sim,
            metrics,
            state,
            np.random.default_rng(0),
            DecisionTimeModel(t_job=0.1, t_task=0.0),
            ledger=ledger,
            commit_mode=CommitMode.ALL_OR_NOTHING,
        )
        # Equal precedence: not preemptible, and it fills the cell too
        # much for the gang job to place all tasks.
        ledger.register(
            0, 4.0, 4.0, 1, precedence=10, duration=5.0
        )
        ledger.register(
            1, 4.0, 4.0, 1, precedence=10, duration=5.0
        )
        gang_job = make_job(num_tasks=2, cpu=3.0, mem=3.0, duration=100.0)
        gang_job.precedence = 10
        scheduler.submit(gang_job)
        sim.run(until=2.0)
        assert not gang_job.is_fully_scheduled
        assert gang_job.placed_tasks == 0  # nothing hoarded
        sim.run(until=10.0)  # blockers end at t=5
        assert gang_job.is_fully_scheduled
