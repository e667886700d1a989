"""Figure 7: two-level scheduling (Mesos) performance.

Expected shapes (paper section 4.2): because the simple allocator
offers *all* available resources to one framework at a time, a slow
service scheduler locks nearly the whole cell for its entire decision
time. Batch jobs then only see the few resources freed while the
service framework thinks, repeatedly fail to finish scheduling, and
(a) batch busyness rises far above the monolithic multi-path case,
(b) batch wait times grow, and (c) jobs start hitting the
1,000-attempt abandonment limit as t_job(service) grows.

Figure 7 itself is the shared service sweep over ``"mesos"``, declared
in :mod:`repro.experiments.registry`; this module holds the compact
workload that reproduces the pathology at small scale.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.common import LightweightConfig
from repro.experiments.sweeps import SweepPoint
from repro.schedulers.base import DecisionTimeModel
from repro.workload.clusters import CLUSTER_A, ClusterPreset, WorkloadParams
from repro.workload.distributions import (
    Constant,
    DiscretizedLogNormal,
    LogNormal,
    Mixture,
)


def pathology_preset(num_machines: int = 150) -> ClusterPreset:
    """A compact workload that exposes the section 4.2 offer-hold
    pathology at small scale.

    A busy batch stream fills a small cell; service jobs are rare and
    consume almost nothing, but their (swept) decision times hold the
    whole-cell offers, leaving batch only the churn scraps. A small
    fraction of batch jobs has big per-task requests ("above-average
    size batch jobs") that cannot be assembled from scraps — these are
    the jobs that burn through the 1,000-attempt limit and get
    abandoned, reproducing Figure 7c's mechanism.
    """
    batch = WorkloadParams(
        arrival_rate=1.5,
        tasks_per_job=DiscretizedLogNormal(median=5, sigma=1.0, low=1, high=200),
        task_duration=LogNormal(median=30.0, sigma=1.0, low=5.0, high=600.0),
        # 3 % of batch jobs have big per-task requests: whole machines'
        # worth of CPU that scrap offers cannot assemble.
        cpu_per_task=Mixture(
            [LogNormal(median=0.3, sigma=0.4, low=0.1, high=1.0), Constant(1.6)],
            weights=[0.97, 0.03],
        ),
        mem_per_task=LogNormal(median=1.0, sigma=0.4, low=0.1, high=8.0),
    )
    service = WorkloadParams(
        arrival_rate=0.01,
        tasks_per_job=Constant(1),
        task_duration=Constant(600.0),
        cpu_per_task=Constant(0.1),
        mem_per_task=Constant(0.1),
    )
    return dataclasses.replace(
        CLUSTER_A,
        name="mesos-pathology",
        num_machines=num_machines,
        cpu_per_machine=4.0,
        mem_per_machine=16.0,
        batch=batch,
        service=service,
        initial_utilization=0.45,
    )


def pathology_points(
    t_jobs=(0.1, 10.0, 100.0),
    architectures=("mesos", "omega"),
    horizon: float = 2 * 3600.0,
    seed: int = 11,
    num_machines: int = 150,
    attempt_limit: int = 1000,
) -> list[SweepPoint]:
    """The pathology workload under Mesos (and reference architectures)
    across service decision times.

    ``attempt_limit`` can be reduced alongside the horizon: the paper's
    1,000-attempt limit matches day-long runs; a two-hour benchmark run
    reaches the same abandonment regime around 150-300 attempts.
    """
    preset = pathology_preset(num_machines)
    return [
        (
            LightweightConfig(
                preset=preset,
                architecture=architecture,
                horizon=horizon,
                seed=seed,
                service_model=DecisionTimeModel(t_job=t_job),
                attempt_limit=attempt_limit,
            ),
            {"architecture": architecture, "t_job_service": t_job},
        )
        for architecture in architectures
        for t_job in t_jobs
    ]
