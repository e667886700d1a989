"""Ablation drivers: design-choice experiments beyond the paper's plots.

Each function returns an ablation's sweep points; the ``omega-sim
ablation-*`` commands (:mod:`repro.experiments.registry`) run them and
``benchmarks/bench_ablation_*.py`` assert the rows. See DESIGN.md
section 5 for the paper grounding of each ablation.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.experiments.common import LightweightConfig
from repro.experiments.mesos import pathology_preset
from repro.experiments.sweeps import SweepPoint
from repro.schedulers.base import DecisionTimeModel
from repro.workload.clusters import CLUSTER_A, CLUSTER_B


def offer_policy_points(
    t_jobs: Sequence[float] = (0.1, 100.0),
    horizon: float = 2 * 3600.0,
    seed: int = 11,
    attempt_limit: int = 200,
) -> list[SweepPoint]:
    """Mesos offer-everything vs fair-share-sized offers (paper §4.2's
    discussion with the Mesos team) on the pathology workload."""
    preset = pathology_preset()
    points: list[SweepPoint] = []
    for offer_policy in ("all", "fair_share"):
        for t_job in t_jobs:
            config = LightweightConfig(
                preset=preset,
                architecture="mesos",
                horizon=horizon,
                seed=seed,
                service_model=DecisionTimeModel(t_job=t_job),
                mesos_offer_policy=offer_policy,
                attempt_limit=attempt_limit,
            )
            points.append(
                (config, {"offer_policy": offer_policy, "t_job_service": t_job})
            )
    return points


def _contention_config(scale: float, horizon: float, **kwargs) -> LightweightConfig:
    """A conflict-heavy Omega configuration: many schedulers, high load,
    a fairly full cell."""
    preset = dataclasses.replace(
        CLUSTER_B.scaled(scale), initial_utilization=0.75
    )
    return LightweightConfig(
        preset=preset,
        architecture="omega",
        horizon=horizon,
        seed=5,
        num_batch_schedulers=16,
        batch_rate_factor=6.0,
        **kwargs,
    )


def retry_position_points(
    scale: float = 0.2, horizon: float = 3600.0
) -> list[SweepPoint]:
    """Conflicted-job requeue at the queue head (the paper's immediate
    retry) vs the tail."""
    return [
        (
            _contention_config(
                scale, horizon, retry_conflicts_at_front=retry_at_front
            ),
            {"retry_position": "head" if retry_at_front else "tail"},
        )
        for retry_at_front in (True, False)
    ]


def contention_points(
    field: str,
    values: Sequence,
    column: str | None = None,
    scale: float = 0.2,
    horizon: float = 3600.0,
) -> list[SweepPoint]:
    """One ``LightweightConfig`` field swept over ``values`` on the
    contention workload (standing fullness, placement strategy, backoff
    window); ``column`` names the row column when not the field's name."""
    return [
        (
            _contention_config(scale, horizon, **{field: value}),
            {column or field: value},
        )
        for value in values
    ]


#: The metric columns of the preemption table, in order.
PREEMPTION_TABLE = (
    "wait_service", "wait_batch", "tasks_preempted", "batch_tasks_lost",
    "unscheduled_fraction", "utilization",
)


def preemption_columns(world, result) -> dict:
    """What preemption did: evictions caused and batch tasks lost."""
    return {
        "tasks_preempted": result.role_total("service", "preemptions_caused"),
        "batch_tasks_lost": result.role_total("batch", "tasks_lost_to_preemption"),
    }


def preemption_points(
    scale: float = 0.2, horizon: float = 2 * 3600.0, seed: int = 3
) -> list[SweepPoint]:
    """Priority preemption on vs off on a nearly-full cell whose service
    scheduler decides slowly (30 s per job), so that service jobs queue
    when they cannot evict."""
    preset = dataclasses.replace(
        CLUSTER_A.scaled(scale), initial_utilization=0.95
    )
    return [
        (
            LightweightConfig(
                preset=preset,
                architecture="omega",
                horizon=horizon,
                seed=seed,
                service_model=DecisionTimeModel(t_job=30.0),
                enable_preemption=enabled,
            ),
            {"preemption": "on" if enabled else "off"},
        )
        for enabled in (False, True)
    ]
