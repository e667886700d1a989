"""Tests for the statically partitioned scheduler."""

import numpy as np
import pytest

from repro.cluster import Cell, Machine
from repro.experiments.common import LightweightConfig, LightweightSimulation
from repro.schedulers.base import DecisionTimeModel
from repro.schedulers import partitioned
from repro.schedulers.partitioned import StaticPartition
from repro.workload.clusters import preset_by_name
from repro.workload.job import JobType
from tests.conftest import make_job


@pytest.fixture
def cell():
    return Cell.homogeneous(10, cpu_per_machine=4.0, mem_per_machine=16.0)


def make_partition(sim, metrics, cell):
    return StaticPartition(
        sim,
        metrics,
        cell,
        np.random.default_rng(0),
        np.random.default_rng(1),
        batch_model=DecisionTimeModel(t_job=0.1, t_task=0.0),
        service_model=DecisionTimeModel(t_job=0.1, t_task=0.0),
    )


class TestPartitioning:
    def test_building_a_partitioned_world_makes_no_machine(self, monkeypatch):
        def made(machine):
            raise AssertionError("a Machine was constructed")

        monkeypatch.setattr(Machine, "__post_init__", made)
        world = LightweightSimulation(
            LightweightConfig(preset=preset_by_name("A").scaled(0.02), architecture="partitioned")
        ).build()
        assert [len(state.cell) for state in world.states] == [len(world.cell) // 2] * 2
        assert world.sim.pending() > 0

    def test_partitions_are_disjoint_and_cover(self, sim, metrics, cell):
        partition = make_partition(sim, metrics, cell)
        total = partition.batch_cell.num_machines + partition.service_cell.num_machines
        assert total == cell.num_machines
        assert partition.batch_cell.num_machines == 5

    def test_share_controls_split(self, sim, metrics, cell, monkeypatch):
        monkeypatch.setattr(partitioned, "BATCH_SHARE", 0.3)
        partition = make_partition(sim, metrics, cell)
        assert partition.batch_cell.num_machines == 3

    def test_jobs_routed_by_type(self, sim, metrics, cell):
        partition = make_partition(sim, metrics, cell)
        batch = make_job(job_type=JobType.BATCH, num_tasks=2, duration=100.0)
        service = make_job(job_type=JobType.SERVICE, num_tasks=2, duration=100.0)
        partition.submit(batch)
        partition.submit(service)
        sim.run(until=10.0)
        assert partition.batch_state.used_cpu == 2.0
        assert partition.service_state.used_cpu == 2.0

    def test_fragmentation(self, sim, metrics, cell):
        """The statically-partitioned pathology (section 3.2): a batch
        job that would fit in the whole cell cannot borrow idle service
        machines."""
        partition = make_partition(sim, metrics, cell)
        # 30 one-core tasks need 30 cores; the batch partition has 20.
        big = make_job(job_type=JobType.BATCH, num_tasks=30, cpu=1.0, mem=1.0)
        partition.submit(big)
        sim.run(until=5.0)
        assert not big.is_fully_scheduled
        assert big.placed_tasks == 20
        assert partition.service_state.used_cpu == 0.0  # idle but unusable

    def test_no_cross_partition_interference(self, sim, metrics, cell):
        """Table 1: interference 'none (partitioned)'."""
        partition = make_partition(sim, metrics, cell)
        for _ in range(10):
            partition.submit(make_job(job_type=JobType.BATCH, num_tasks=1))
            partition.submit(make_job(job_type=JobType.SERVICE, num_tasks=1))
        sim.run(until=50.0)
        for name in ("partition-batch", "partition-service"):
            assert metrics.schedulers[name].transactions_attempted == 0
