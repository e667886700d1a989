"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.cluster import Cell
from repro.core.cellstate import CellState
from repro.metrics import MetricsCollector
from repro.sim import Simulator
from repro.workload.clusters import CLUSTER_A, ClusterPreset
from repro.workload.distributions import DiscretizedLogNormal, LogNormal
from repro.workload.clusters import WorkloadParams
from repro.workload.job import Job, JobType

#: Ids for hand-built jobs: unique across the session, as a run's are.
_job_ids = itertools.count(1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_cell() -> Cell:
    return Cell.homogeneous(10, cpu_per_machine=4.0, mem_per_machine=16.0)


@pytest.fixture
def state(small_cell) -> CellState:
    return CellState(small_cell)


@pytest.fixture
def metrics() -> MetricsCollector:
    return MetricsCollector(period=100.0)


def make_job(
    job_type: JobType = JobType.BATCH,
    submit_time: float = 0.0,
    num_tasks: int = 4,
    cpu: float = 1.0,
    mem: float = 2.0,
    duration: float = 50.0,
    constraints=(),
    job_id: int | None = None,
) -> Job:
    """Convenience job factory used across the suite."""
    return Job(
        job_type=job_type,
        submit_time=submit_time,
        num_tasks=num_tasks,
        cpu_per_task=cpu,
        mem_per_task=mem,
        duration=duration,
        job_id=next(_job_ids) if job_id is None else job_id,
        constraints=constraints,
    )


@pytest.fixture
def job_factory():
    return make_job


def tiny_preset(
    num_machines: int = 40,
    batch_rate: float = 0.5,
    service_rate: float = 0.02,
    initial_utilization: float = 0.5,
) -> ClusterPreset:
    """A fast-to-simulate cluster preset for integration tests."""
    batch = WorkloadParams(
        arrival_rate=batch_rate,
        tasks_per_job=DiscretizedLogNormal(median=4, sigma=1.0, low=1, high=100),
        task_duration=LogNormal(median=30.0, sigma=1.0, low=5.0, high=600.0),
        cpu_per_task=LogNormal(median=0.3, sigma=0.4, low=0.1, high=2.0),
        mem_per_task=LogNormal(median=1.0, sigma=0.4, low=0.1, high=8.0),
    )
    service = WorkloadParams(
        arrival_rate=service_rate,
        tasks_per_job=DiscretizedLogNormal(median=3, sigma=0.8, low=1, high=50),
        task_duration=LogNormal(median=1800.0, sigma=0.8, low=60.0, high=7200.0),
        cpu_per_task=LogNormal(median=0.5, sigma=0.4, low=0.1, high=2.0),
        mem_per_task=LogNormal(median=1.5, sigma=0.4, low=0.1, high=8.0),
    )
    return dataclasses.replace(
        CLUSTER_A,
        name="tiny",
        num_machines=num_machines,
        cpu_per_machine=4.0,
        mem_per_machine=16.0,
        batch=batch,
        service=service,
        initial_utilization=initial_utilization,
    )


@pytest.fixture
def preset() -> ClusterPreset:
    return tiny_preset()


def mesos_pathology_preset() -> ClusterPreset:
    """The section 4.2 offer-hold pathology workload (library version)."""
    from repro.experiments.mesos import pathology_preset

    return pathology_preset()
