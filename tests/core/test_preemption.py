"""Tests for precedence-based preemption: the allocation ledger,
eviction, and the preempting scheduler."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger, commit_with_preemption
from repro.core.scheduler import OmegaScheduler, PreemptingOmegaScheduler
from repro.core.transaction import Plan
from repro.schedulers.base import DecisionTimeModel
from repro.workload.job import JobType
from tests.conftest import make_job


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(4, cpu_per_machine=4.0, mem_per_machine=16.0))


@pytest.fixture
def ledger(state, sim):
    return AllocationLedger(state, sim)


def claim(machine=0, cpu=1.0, mem=1.0, count=1):
    """One plan row's arguments to ``AllocationLedger.register``."""
    return machine, cpu, mem, count


def on_machine(ledger, machine):
    return [record for record in ledger.records() if record.machine == machine]


class TestLedgerLifecycle:
    def test_register_claims_resources(self, state, ledger):
        ledger.register(*claim(count=2), precedence=0, duration=50.0)
        assert state.used_cpu == 2.0
        assert len(on_machine(ledger, 0)) == 1

    def test_normal_completion_releases(self, state, ledger, sim):
        ledger.register(*claim(), precedence=0, duration=50.0)
        sim.run(until=60.0)
        assert state.used_cpu == 0.0
        assert on_machine(ledger, 0) == []

    def test_already_claimed_skips_claim(self, state, ledger):
        state.claim(0, 1.0, 1.0)
        ledger.register(*claim(), precedence=0, duration=50.0, already_claimed=True)
        assert state.used_cpu == 1.0  # not double-counted

    def test_preemptible_respects_precedence(self, state, ledger):
        ledger.register(*claim(cpu=1.0, mem=2.0), precedence=0, duration=50.0)
        ledger.register(*claim(cpu=0.5, mem=1.0), precedence=5, duration=50.0)
        assert ledger.preemptible(0, below_precedence=10) == (1.5, 3.0)
        assert ledger.preemptible(0, below_precedence=5) == (1.0, 2.0)
        assert ledger.preemptible(0, below_precedence=0) == (0.0, 0.0)


class TestEviction:
    def test_evicts_lowest_precedence_first(self, state, ledger, sim):
        evictions = []
        ledger.register(
            *claim(cpu=1.0, mem=1.0),
            precedence=3,
            duration=100.0,
            on_preempt=lambda r, n: evictions.append(("mid", n)),
        )
        ledger.register(
            *claim(cpu=1.0, mem=1.0),
            precedence=0,
            duration=100.0,
            on_preempt=lambda r, n: evictions.append(("low", n)),
        )
        evicted = ledger.evict(0, need_cpu=1.0, need_mem=1.0, below_precedence=5)
        assert evicted == 1
        assert evictions == [("low", 1)]

    def test_partial_eviction_keeps_survivors(self, state, ledger):
        record = ledger.register(*claim(count=4), precedence=0, duration=100.0)
        evicted = ledger.evict(0, need_cpu=2.0, need_mem=0.0, below_precedence=5)
        assert evicted == 2
        assert record.count == 2
        assert state.free_cpu[0] == 2.0

    def test_eviction_cancels_end_event(self, state, ledger, sim):
        ledger.register(*claim(), precedence=0, duration=50.0)
        ledger.evict(0, need_cpu=1.0, need_mem=1.0, below_precedence=5)
        assert state.used_cpu == 0.0
        sim.run(until=60.0)  # the cancelled end event must not re-release
        assert state.used_cpu == 0.0

    def test_whole_eviction_dequeues_end_event(self, ledger, sim):
        record = ledger.register(*claim(count=2), precedence=0, duration=50.0)
        pending = sim.pending()
        ledger.evict(0, need_cpu=2.0, need_mem=0.0, below_precedence=5)
        assert sim.pending() == pending - 1
        assert record.end_event.cancelled

    def test_evict_nothing_needed(self, state, ledger):
        ledger.register(*claim(), precedence=0, duration=50.0)
        assert ledger.evict(0, 0.0, 0.0, below_precedence=5) == 0

    def test_preempted_counter(self, state, ledger):
        ledger.register(*claim(count=3), precedence=0, duration=50.0)
        ledger.evict(0, need_cpu=3.0, need_mem=0.0, below_precedence=5)
        assert ledger.preempted_tasks == 3


class TestCommitWithPreemption:
    def test_free_resources_used_before_eviction(self, state, ledger):
        ledger.register(*claim(cpu=1.0, mem=1.0), precedence=0, duration=100.0)
        result = commit_with_preemption(
            state, ledger, Plan(2.0, 2.0, [0], [1]), precedence=10
        )
        assert len(result.accepted) == 1 and not result.rejected
        assert result.preempted_tasks == 0  # 3 cores were still free

    def test_eviction_when_needed(self, state, ledger):
        ledger.register(*claim(cpu=3.0, mem=3.0), precedence=0, duration=100.0)
        result = commit_with_preemption(
            state, ledger, Plan(2.0, 2.0, [0], [1]), precedence=10
        )
        assert len(result.accepted) == 1
        assert result.preempted_tasks == 1
        assert state.fits(0, 0.9, 0.9)  # victim's space partially free

    def test_equal_precedence_not_preemptible(self, state, ledger):
        ledger.register(*claim(cpu=4.0, mem=4.0), precedence=5, duration=100.0)
        result = commit_with_preemption(
            state, ledger, Plan(2.0, 2.0, [0], [1]), precedence=5
        )
        assert not result.accepted
        assert len(result.rejected) == 1
        assert result.preempted_tasks == 0

    def test_never_overcommits(self, state, ledger):
        ledger.register(*claim(cpu=2.0, mem=2.0), precedence=0, duration=100.0)
        commit_with_preemption(
            state, ledger, Plan(3.0, 3.0, [0], [2]), precedence=10
        )
        assert state.free_cpu[0] >= -1e-9
        assert state.free_mem[0] >= -1e-9


class TestPreemptingScheduler:
    def _build(self, sim, metrics, machines=1):
        state = CellState(Cell.homogeneous(machines, 4.0, 16.0))
        ledger = AllocationLedger(state, sim)
        batch = OmegaScheduler(
            "batch",
            sim,
            metrics,
            state,
            np.random.default_rng(0),
            DecisionTimeModel(t_job=0.1, t_task=0.0),
            ledger=ledger,
        )
        service = PreemptingOmegaScheduler(
            "service",
            sim,
            metrics,
            state,
            np.random.default_rng(1),
            DecisionTimeModel(t_job=0.5, t_task=0.0),
            ledger=ledger,
        )
        return state, ledger, batch, service

    def test_high_precedence_job_preempts(self, sim, metrics):
        state, ledger, batch, service = self._build(sim, metrics)
        low = make_job(num_tasks=4, cpu=1.0, mem=1.0, duration=1000.0, job_type=JobType.BATCH)
        low.precedence = 0
        batch.submit(low)
        sim.run(until=1.0)
        assert low.is_fully_scheduled

        high = make_job(
            num_tasks=2, cpu=2.0, mem=2.0, duration=1000.0, job_type=JobType.SERVICE
        )
        high.precedence = 10
        service.submit(high)
        sim.run(until=5.0)
        assert high.is_fully_scheduled
        assert metrics.schedulers["service"].preemptions_caused == 4
        assert metrics.schedulers["batch"].tasks_lost_to_preemption == 4

    def test_victim_job_reschedules_elsewhere(self, sim, metrics):
        state, ledger, batch, service = self._build(sim, metrics, machines=2)
        low = make_job(num_tasks=4, cpu=1.0, mem=1.0, duration=1000.0)
        low.precedence = 0
        batch.submit(low)
        sim.run(until=1.0)
        machine_used = [m for m in range(2) if state.free_cpu[m] < 4.0][0]

        high = make_job(num_tasks=1, cpu=4.0, mem=4.0, duration=1000.0)
        high.precedence = 10
        # Force the service job onto the victim's machine by filling the
        # other one.
        other = 1 - machine_used
        state.claim(other, 4.0, 16.0)
        service.submit(high)
        sim.run(until=2.0)
        assert high.is_fully_scheduled
        assert not low.is_fully_scheduled  # tasks evicted, queued again
        state.release(other, 4.0, 16.0)
        sim.run(until=10.0)
        assert low.is_fully_scheduled  # re-placed on the freed machine

    def test_no_preemption_without_precedence_gap(self, sim, metrics):
        state, ledger, batch, service = self._build(sim, metrics)
        low = make_job(num_tasks=4, cpu=1.0, mem=1.0, duration=1000.0)
        low.precedence = 10
        batch.submit(low)
        sim.run(until=1.0)
        peer = make_job(num_tasks=1, cpu=2.0, mem=2.0, duration=1000.0)
        peer.precedence = 10
        service.submit(peer)
        sim.run(until=20.0)
        assert not peer.is_fully_scheduled
        assert metrics.schedulers["service"].preemptions_caused == 0

    def test_preempting_scheduler_registers_own_tasks(self, sim, metrics):
        state, ledger, batch, service = self._build(sim, metrics)
        job = make_job(num_tasks=2, cpu=1.0, mem=1.0, duration=50.0)
        job.precedence = 10
        service.submit(job)
        sim.run(until=1.0)
        assert len(on_machine(ledger, 0)) >= 1
        sim.run(until=60.0)
        assert state.used_cpu == 0.0  # released at task end
