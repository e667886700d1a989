"""Tests for the Mesos-style allocator and frameworks: offers,
pessimistic locking, DRF ordering, and the section 4.2 pathology."""

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.faults.chaos import FailureRepairProcess
from repro.invariants import CellStateInvariantChecker
from repro.schedulers.base import DecisionTimeModel
from repro.schedulers.mesos import MesosAllocator, MesosFramework
from repro.workload.job import JobType
from tests.conftest import make_job


@pytest.fixture
def state():
    return CellState(Cell.homogeneous(6, cpu_per_machine=4.0, mem_per_machine=16.0))


@pytest.fixture
def allocator(sim, state):
    return MesosAllocator(sim, state)


def framework(sim, metrics, allocator, name="fw", t_job=0.1, seed=0):
    return MesosFramework(
        name,
        sim,
        metrics,
        allocator,
        np.random.default_rng(seed),
        DecisionTimeModel(t_job=t_job, t_task=0.0),
    )


class TestOfferCycle:
    def test_job_scheduled_via_offer(self, sim, metrics, allocator, state):
        fw = framework(sim, metrics, allocator)
        job = make_job(num_tasks=2, duration=100.0)
        fw.submit(job)
        sim.run(until=10.0)
        assert job.is_fully_scheduled
        assert state.used_cpu == 2.0
        assert allocator.offers_made >= 1

    def test_offer_costs_one_millisecond(self, sim, metrics, allocator):
        fw = framework(sim, metrics, allocator, t_job=0.1)
        job = make_job(num_tasks=1)
        fw.submit(job)
        sim.run(until=1.0)
        # 1 ms offer + 0.1 s decision.
        assert job.fully_scheduled_time == pytest.approx(0.101)

    def test_no_offers_without_pending_work(self, sim, metrics, allocator):
        framework(sim, metrics, allocator)
        sim.run(until=10.0)
        assert allocator.offers_made == 0

    def test_tasks_return_to_pool(self, sim, metrics, allocator, state):
        fw = framework(sim, metrics, allocator)
        fw.submit(make_job(num_tasks=2, duration=5.0))
        sim.run(until=20.0)
        assert state.used_cpu == 0.0

    def test_duplicate_registration_rejected(self, sim, metrics, allocator):
        fw = framework(sim, metrics, allocator)
        with pytest.raises(ValueError):
            allocator.register(fw)

    def test_double_return_rejected(self, sim, metrics, allocator):
        captured = {}
        fw = framework(sim, metrics, allocator)
        original = fw.receive_offer

        def spy(offer):
            captured["offer"] = offer
            original(offer)

        fw.receive_offer = spy
        fw.submit(make_job(num_tasks=1))
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="twice"):
            allocator.return_offer(captured["offer"])

    def test_invalid_offer_policy(self, sim, state):
        with pytest.raises(ValueError):
            MesosAllocator(sim, state, offer_policy="bogus")


class TestPessimisticLocking:
    def test_offered_resources_locked(self, sim, metrics, allocator, state):
        """While the slow framework holds the offer, the fast one only
        sees resources freed after the offer was made — here, none."""
        slow = framework(sim, metrics, allocator, name="slow", t_job=100.0)
        fast = framework(sim, metrics, allocator, name="fast", t_job=0.1, seed=1)
        slow_job = make_job(job_type=JobType.SERVICE, num_tasks=1, duration=500.0)
        fast_job = make_job(num_tasks=1, duration=500.0)
        slow.submit(slow_job)
        sim.run(until=1.0)  # slow framework now holds everything
        fast.submit(fast_job)
        sim.run(until=50.0)
        assert not fast_job.is_fully_scheduled  # starved: pool is locked
        sim.run(until=200.0)  # slow decision ends at ~100s, offer returns
        assert fast_job.is_fully_scheduled

    def test_never_conflicts(self, sim, metrics, allocator):
        """Pessimistic concurrency: commits always succeed, so no job
        ever records a conflict."""
        a = framework(sim, metrics, allocator, name="a", seed=1)
        b = framework(sim, metrics, allocator, name="b", seed=2)
        jobs = [make_job(num_tasks=2, duration=30.0) for _ in range(10)]
        for index, job in enumerate(jobs):
            (a if index % 2 else b).submit(job)
        sim.run(until=100.0)
        assert all(job.conflicts == 0 for job in jobs)
        assert all(job.is_fully_scheduled for job in jobs)

    def test_machine_failed_under_held_offer_is_not_launched(
        self, sim, metrics, allocator, state
    ):
        """A machine that fails while its offer is held loses the room
        the offer still lists: its claim is dropped at launch (Mesos
        rescinds offers from lost agents) and its task waits for a later
        offer, instead of overcommitting the failed machine."""
        failures = FailureRepairProcess(
            sim, state, np.random.default_rng(0), mtbf=1e9, repair_time=100.0
        )
        fw = framework(sim, metrics, allocator, t_job=1.0)
        job = make_job(num_tasks=6, cpu=4.0, mem=1.0, duration=1000.0)
        fw.submit(job)  # one task per machine: the offer covers all six
        sim.at(0.5, failures.fail, 2)  # while the offer is held
        sim.run(until=2.0)
        assert job.unplaced_tasks == 1
        assert state.free_cpu[2] == 0.0 and failures.is_down(2)
        assert allocator.allocated(fw) == (20.0, 5.0)
        sim.run(until=200.0)  # repaired at t=100.5, then offered again
        assert job.is_fully_scheduled
        assert allocator.allocated(fw) == (24.0, 6.0)
        CellStateInvariantChecker([state]).check(sim.now)

    def test_abandonment_under_starvation(self, sim, metrics, state):
        """A job that can never fit within offers is dropped at the
        attempt limit (Figure 7c)."""
        allocator = MesosAllocator(sim, state)
        fw = MesosFramework(
            "fw",
            sim,
            metrics,
            allocator,
            np.random.default_rng(0),
            DecisionTimeModel(t_job=0.01, t_task=0.0),
            attempt_limit=10,
        )
        impossible = make_job(num_tasks=1, cpu=99.0, mem=1.0)
        fw.submit(impossible)
        sim.run(until=100.0)
        assert impossible.abandoned
        assert metrics.schedulers["fw"].jobs_abandoned == 1


class TestDrfOrdering:
    def test_poorer_framework_offered_first(self, sim, metrics, allocator, state):
        rich = framework(sim, metrics, allocator, name="rich", seed=1)
        poor = framework(sim, metrics, allocator, name="poor", seed=2)
        # Give "rich" a standing allocation via a first job.
        rich.submit(make_job(num_tasks=8, cpu=1.0, mem=1.0, duration=1000.0))
        sim.run(until=5.0)
        # Now both want offers; "poor" (share 0) must get the next one.
        rich_job = make_job(num_tasks=1, duration=1000.0)
        poor_job = make_job(num_tasks=1, duration=1000.0)
        rich.submit(rich_job)
        poor.submit(poor_job)
        sim.run(until=6.0)
        assert poor_job.fully_scheduled_time < rich_job.fully_scheduled_time

    def test_allocated_accounting(self, sim, metrics, allocator):
        fw = framework(sim, metrics, allocator)
        fw.submit(make_job(num_tasks=3, cpu=1.0, mem=2.0, duration=10.0))
        sim.run(until=5.0)
        assert allocator.allocated(fw) == (3.0, 6.0)
        sim.run(until=20.0)
        assert allocator.allocated(fw) == (0.0, 0.0)


class TestFairShareOfferPolicy:
    def test_fair_share_offers_are_smaller(self, sim, metrics, state):
        """The section 4.2 extension: with fair-share offers, a slow
        framework cannot lock the whole cell."""
        allocator = MesosAllocator(sim, state, offer_policy="fair_share")
        slow = framework(sim, metrics, allocator, name="slow", t_job=100.0)
        fast = framework(sim, metrics, allocator, name="fast", t_job=0.1, seed=1)
        slow.submit(make_job(job_type=JobType.SERVICE, num_tasks=1, duration=500.0))
        sim.run(until=1.0)
        fast_job = make_job(num_tasks=1, duration=500.0)
        fast.submit(fast_job)
        sim.run(until=50.0)
        # Unlike the offer-all policy, the fast framework schedules
        # while the slow one is still thinking.
        assert fast_job.is_fully_scheduled
