"""Unit tests for the front-door router: policies, health checking,
failover, migration caps, and the job accounting invariant."""

import pytest

from repro.experiments.common import LightweightConfig
from repro.federation import router
from repro.federation.cells import CellDigest
from repro.federation.config import FederationConfig
from repro.federation.router import FederationAccountingError, FrontDoor
from repro.sim import Simulator
from repro.workload.clusters import CLUSTER_B
from tests.conftest import make_job


class StubCell:
    """A minimal stand-in for FederatedCell: fixed advertised digest,
    switchable reachability, and a ledger of delivered jobs."""

    def __init__(self, index: int, utilization: float = 0.0, queue: int = 0):
        self.index = index
        self.name = f"c{index}"
        self.reachable = True
        self.utilization = utilization
        self.queue = queue
        self.received = []

    def submit(self, job):
        self.received.append(job)

    def digest(self) -> CellDigest:
        return CellDigest(
            utilization=self.utilization,
            queue_depth=self.queue,
            published_at=0.0,
        )


def make_front_door(cells, policy="round-robin"):
    sim = Simulator()
    config = FederationConfig(
        cell_config=LightweightConfig(
            preset=CLUSTER_B.scaled(0.05),
            architecture="omega",
            horizon=3600.0,
            seed=0,
        ),
        num_cells=len(cells),
        policy=policy,
    )
    return sim, FrontDoor(sim, cells, config)


class TestPolicies:
    def test_round_robin_rotates(self):
        cells = [StubCell(i) for i in range(3)]
        _, door = make_front_door(cells)
        for _ in range(6):
            door.submit(make_job())
        assert [len(cell.received) for cell in cells] == [2, 2, 2]

    def test_round_robin_skips_suspended_cell(self):
        cells = [StubCell(i) for i in range(3)]
        _, door = make_front_door(cells)
        door.suspended_until[1] = 100.0  # sim.now is 0: cell 1 ineligible
        for _ in range(4):
            door.submit(make_job())
        assert [len(cell.received) for cell in cells] == [2, 0, 2]

    def test_least_loaded_picks_lowest_advertised_utilization(self):
        cells = [StubCell(0, 0.9), StubCell(1, 0.2), StubCell(2, 0.5)]
        _, door = make_front_door(cells, policy="least-loaded")
        door.submit(make_job())
        assert len(cells[1].received) == 1

    def test_least_loaded_ties_go_to_lowest_index(self):
        cells = [StubCell(0, 0.5), StubCell(1, 0.5)]
        _, door = make_front_door(cells, policy="least-loaded")
        door.submit(make_job())
        assert len(cells[0].received) == 1


class TestHealthChecking:
    def test_unreachable_cell_times_out_and_fails_over(self):
        cells = [StubCell(0), StubCell(1)]
        cells[0].reachable = False
        sim, door = make_front_door(cells)
        door.submit(make_job())
        assert cells[1].received == []  # still hanging on cell 0
        sim.run()
        assert len(cells[1].received) == 1
        assert door.route_timeouts == 1
        assert door.jobs_rerouted == 1
        assert door.failures[0] == 1

    def test_backoff_doubles_and_caps(self, monkeypatch):
        monkeypatch.setattr(router, "ROUTE_TIMEOUT", 1.0)
        monkeypatch.setattr(router, "BACKOFF_CAP", 35.0)
        monkeypatch.setattr(router, "MAX_REROUTES", 6)
        cells = [StubCell(0)]
        cells[0].reachable = False
        sim, door = make_front_door(cells)
        door.submit(make_job())
        sim.run()
        # Timeouts at t=1, 12, 33, 69: suspensions 10, 20, 35 (capped),
        # 35 — each one a stall + retry, every hop charged to the
        # reroute budget, until the cap abandons the job.
        assert door.route_timeouts == 4
        assert door.failures[0] == 4
        assert door.suspended_until[0] == pytest.approx(104.0)
        assert door.abandoned_by_reason == {"reroute-cap": 1}

    def test_reroute_cap_abandons_explicitly(self, monkeypatch):
        monkeypatch.setattr(router, "MAX_REROUTES", 2)
        cells = [StubCell(0)]
        cells[0].reachable = False
        sim, door = make_front_door(cells)
        job = make_job()
        door.submit(job)
        sim.run()
        assert job.abandoned
        assert door.abandoned_by_reason == {"reroute-cap": 1}
        counts = door.check_accounting()
        assert counts["submitted"] == 1
        assert counts["abandoned"] == 1

    def test_successful_delivery_resets_failure_count(self):
        cells = [StubCell(0)]
        cells[0].reachable = False
        sim, door = make_front_door(cells)
        door.submit(make_job())
        sim.run(until=router.ROUTE_TIMEOUT + 0.5)  # one timeout has fired
        assert door.failures[0] == 1
        cells[0].reachable = True
        sim.run()
        assert len(cells[0].received) == 1
        assert door.failures[0] == 0


class TestMigration:
    def test_migration_within_budget_reroutes(self):
        cells = [StubCell(0), StubCell(1)]
        _, door = make_front_door(cells)
        job = make_job()
        door.submit(job)
        door.migrate([job], cells[0])
        assert door.jobs_migrated == 1
        assert not job.abandoned

    def test_migration_cap_abandons(self):
        cells = [StubCell(0), StubCell(1)]
        _, door = make_front_door(cells)
        job = make_job()
        door.submit(job)
        for _ in range(router.MAX_MIGRATIONS + 1):
            door.migrate([job], cells[0])
        assert door.jobs_migrated == router.MAX_MIGRATIONS
        assert job.abandoned
        assert door.abandoned_by_reason == {"migration-cap": 1}


class TestAccounting:
    def test_classification_priority_scheduled_wins(self):
        """A job that eventually scheduled counts as scheduled even if a
        blackout once recorded it lost."""
        cells = [StubCell(0)]
        _, door = make_front_door(cells)
        job = make_job()
        door.submit(job)
        door.record_lost(job, cells[0])
        job.fully_scheduled_time = 10.0
        counts = door.check_accounting()
        assert counts["scheduled"] == 1
        assert counts["lost_to_blackout"] == 0

    def test_lost_to_blackout_classified(self):
        cells = [StubCell(0)]
        _, door = make_front_door(cells)
        job = make_job()
        door.submit(job)
        door.record_lost(job, cells[0])
        counts = door.check_accounting()
        assert counts == {
            "submitted": 1,
            "scheduled": 0,
            "pending": 0,
            "abandoned": 0,
            "lost_to_blackout": 1,
        }

    def test_imbalanced_ledger_raises(self):
        cells = [StubCell(0)]
        _, door = make_front_door(cells)
        door.submit(make_job())
        door.submitted += 1  # silently lose a job
        with pytest.raises(FederationAccountingError):
            door.check_accounting()

    def test_all_cells_suspended_stalls_then_delivers(self):
        cells = [StubCell(0)]
        cells[0].reachable = True
        sim, door = make_front_door(cells)
        door.suspended_until[0] = 50.0
        job = make_job()
        door.submit(job)
        assert cells[0].received == []
        sim.run()
        assert sim.now >= 50.0
        assert len(cells[0].received) == 1
        assert door.jobs_rerouted == 1
