"""Shared sweep machinery for the lightweight-simulator figures (5-10).

Each figure is a sweep of one decision-time or arrival-rate parameter
with everything else held fixed; this module owns the common grid
builders and row format so the per-figure modules stay declarative.

Sweeps are materialized as lists of *points* — ``(config,
extra_row_fields)`` pairs — which :func:`repro.experiments.registry.run`
executes, serially or across worker processes. Every point carries its
own master seed, so both produce identical rows.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import DAY, LightweightConfig
from repro.schedulers.base import DEFAULT_T_JOB, DEFAULT_T_TASK, DecisionTimeModel
from repro.workload.clusters import preset_by_name
from repro.workload.job import JobType

#: One sweep point: the run's full configuration plus the extra fields
#: (swept-parameter values, labels) merged into its result row.
SweepPoint = tuple[LightweightConfig, dict]

#: The paper's wait-time service level objective (30 s horizontal bar in
#: Figure 5).
WAIT_TIME_SLO = 30.0

DEFAULT_SWEEP_CLUSTERS = ("A", "B", "C")

#: The t_job(service) axis of Figures 5-7.
DEFAULT_T_JOBS = (0.01, 0.1, 1.0, 10.0, 100.0)


class CheckFailed(RuntimeError):
    """A ``finish`` hook's verdict: every point ran, but the rows fail
    the experiment's own check (``omega-sim`` exits 1 with the message)."""


def result_row(result, **extra) -> dict:
    """Flatten one run into the standard row format.

    ``result`` is any of the three result types (lightweight, hifi,
    federated): they share these accessors.
    """
    return {
        **extra,
        "wait_batch": result.mean_wait(JobType.BATCH),
        "wait_service": result.mean_wait(JobType.SERVICE),
        "busy_batch": result.busyness("batch"),
        "busy_batch_mad": result.busyness_mad("batch"),
        "busy_service": result.busyness("service"),
        "busy_service_mad": result.busyness_mad("service"),
        "conflict_batch": result.conflict_fraction("batch"),
        "conflict_service": result.conflict_fraction("service"),
        "abandoned": result.jobs_abandoned,
        "unscheduled_fraction": result.unscheduled_fraction,
        "utilization": result.final_cpu_utilization,
    }


def point_label(extra: dict) -> str:
    """A stable, human-readable identity for one sweep point.

    Canonical JSON over the point's extra row fields — used for
    checkpoint records (``--checkpoint``/``--resume`` keys points by it
    to refuse resumes whose sweep structure changed) and point failure
    messages.
    """
    return json.dumps(extra, sort_keys=True, separators=(",", ":"))


def service_decision_points(
    architecture: str,
    t_jobs: Sequence[float] = DEFAULT_T_JOBS,
    clusters: Iterable[str] = DEFAULT_SWEEP_CLUSTERS,
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    t_task_service: float = DEFAULT_T_TASK,
    conflict_mode: ConflictMode = ConflictMode.FINE,
    commit_mode: CommitMode = CommitMode.INCREMENTAL,
    **config_kwargs,
) -> list[SweepPoint]:
    """Points for the x-axis sweep shared by Figures 5, 6 and 7: vary
    t_job(service) (and, for the single-path monolithic scheduler, the
    t_job applied to *every* job) while the batch path keeps defaults."""
    points: list[SweepPoint] = []
    for cluster in clusters:
        preset = preset_by_name(cluster)
        if scale != 1.0:
            preset = preset.scaled(scale)
        for t_job in t_jobs:
            config = LightweightConfig(
                preset=preset,
                architecture=architecture,
                horizon=horizon,
                seed=seed,
                batch_model=DecisionTimeModel(),
                service_model=DecisionTimeModel(t_job=t_job, t_task=t_task_service),
                conflict_mode=conflict_mode,
                commit_mode=commit_mode,
                **config_kwargs,
            )
            points.append((config, {"cluster": cluster, "t_job_service": t_job}))
    return points


def batch_load_points(
    factors: Sequence[float],
    cluster: str = "B",
    num_batch_schedulers: int = 1,
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    dilate_decision_times: bool = True,
    **config_kwargs,
) -> list[SweepPoint]:
    """Points for Figure 8/9's x-axis: scale the batch arrival rate
    (relative lambda_jobs(batch)).

    When the cell is scaled down, arrival rates shrink with it, which
    would move the saturation points (busyness = rate x decision time)
    off the paper's 1-10x sweep. ``dilate_decision_times`` compensates
    by stretching decision times by 1/scale: busyness, saturation
    factors, cluster fullness and per-transaction conflict exposure are
    all invariant under this joint scaling (see DESIGN.md).
    """
    preset = preset_by_name(cluster)
    dilation = 1.0
    if scale != 1.0:
        preset = preset.scaled(scale)
        if dilate_decision_times:
            dilation = 1.0 / scale
    model = DecisionTimeModel(
        t_job=DEFAULT_T_JOB * dilation, t_task=DEFAULT_T_TASK * dilation
    )
    points: list[SweepPoint] = []
    for factor in factors:
        config = LightweightConfig(
            preset=preset,
            architecture="omega",
            horizon=horizon,
            seed=seed,
            batch_model=model,
            service_model=model,
            batch_rate_factor=factor,
            num_batch_schedulers=num_batch_schedulers,
            **config_kwargs,
        )
        points.append(
            (
                config,
                {
                    "cluster": cluster,
                    "rate_factor": factor,
                    "num_batch_schedulers": num_batch_schedulers,
                },
            )
        )
    return points


def saturation_point(rows: list[dict], threshold: float = 0.05) -> float | None:
    """The smallest swept rate factor at which the workload is no longer
    fully scheduled (Figure 8's dashed vertical lines)."""
    saturated = [
        row["rate_factor"]
        for row in rows
        if row["unscheduled_fraction"] > threshold
    ]
    return min(saturated) if saturated else None


def surface_points(
    architecture: str,
    t_jobs: Sequence[float],
    t_tasks: Sequence[float],
    cluster: str = "B",
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    conflict_mode: ConflictMode = ConflictMode.FINE,
    commit_mode: CommitMode = CommitMode.INCREMENTAL,
    **config_kwargs,
) -> list[SweepPoint]:
    """Points for Figure 10/11's t_job x t_task (service) surface.

    Red shading in the paper marks configurations where part of the
    workload remained unscheduled; rows carry ``unscheduled_fraction``
    for the same purpose.
    """
    preset = preset_by_name(cluster)
    if scale != 1.0:
        preset = preset.scaled(scale)
    points: list[SweepPoint] = []
    for t_job in t_jobs:
        for t_task in t_tasks:
            config = LightweightConfig(
                preset=preset,
                architecture=architecture,
                horizon=horizon,
                seed=seed,
                batch_model=DecisionTimeModel(),
                service_model=DecisionTimeModel(t_job=t_job, t_task=t_task),
                conflict_mode=conflict_mode,
                commit_mode=commit_mode,
                **config_kwargs,
            )
            points.append(
                (
                    config,
                    {
                        "architecture": architecture,
                        "cluster": cluster,
                        "t_job_service": t_job,
                        "t_task_service": t_task,
                    },
                )
            )
    return points

