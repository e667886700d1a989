"""High-fidelity (trace-driven) experiments: Figures 11, 12 and 13.

Expected shapes (paper section 5.1):

* Fig 11 — service-scheduler busyness stays low across almost the whole
  t_job(service) x t_task(service) range on cluster C.
* Fig 12 — on the larger, busier cluster B, the conflict fraction
  crosses 1.0 around t_job(service) ~ 10 s; the wait-time SLO is missed
  around the same point even though the scheduler is not saturated; and
  busyness with conflicts runs well above the "no conflicts"
  approximation (the paper reports ~40 % higher).
* Fig 13 — splitting the batch workload over three schedulers moves the
  batch saturation point by roughly 3x, while the conflict fraction
  stays low (~0.1) and all schedulers meet the 30 s SLO until
  saturation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.common import DAY
from repro.hifi.replay import HighFidelityConfig
from repro.hifi.trace import Trace, synthesize_trace
from repro.schedulers.base import DEFAULT_T_TASK, DecisionTimeModel
from repro.workload.clusters import preset_by_name
from repro.workload.job import JobType

DEFAULT_T_JOBS = (0.1, 1.0, 10.0, 100.0)
DEFAULT_T_TASKS = (0.001, 0.01, 0.1, 1.0)


def make_trace(
    cluster: str,
    horizon: float,
    seed: int = 0,
    scale: float = 1.0,
) -> Trace:
    """Synthesize the stand-in production trace for a cluster.

    A scaled-down cell keeps the full-size service arrival rate (its
    service rate is multiplied by 1/scale): the section 5 figures study
    *service-scheduler* behaviour, and the service stream's resource
    footprint is small. Batch scales with the cell.
    """
    preset = preset_by_name(cluster)
    if scale != 1.0:
        preset = preset.scaled(scale)
        preset = replace(preset, service=preset.service.scaled_rate(1.0 / scale))
    return synthesize_trace(preset, horizon=horizon, seed=seed)


#: The metric columns of the Figure 11-13 tables, in order.
HIFI_TABLE = (
    "wait_batch", "wait_batch_p90", "wait_service", "wait_service_p90",
    "conflict_batch", "conflict_service", "busy_batch", "busy_service",
    "busy_service_noconflict", "abandoned", "unscheduled_fraction",
)

#: One replay point: the run's configuration plus its extra row fields.
HifiPoint = tuple[HighFidelityConfig, dict]


def hifi_columns(world, result) -> dict:
    """The columns the section 5 figures add to the standard row: wait
    tails and the Figure 12c "no conflicts" busyness."""
    return {
        "wait_batch_p90": result.p90_wait(JobType.BATCH),
        "wait_service_p90": result.p90_wait(JobType.SERVICE),
        "busy_service_noconflict": result.noconflict_busyness("service"),
    }


def figure11_points(
    trace: Trace | None = None,
    t_jobs: Sequence[float] = DEFAULT_T_JOBS,
    t_tasks: Sequence[float] = DEFAULT_T_TASKS,
    cluster: str = "C",
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
) -> list[HifiPoint]:
    """Service busyness surface over t_job x t_task (cluster C trace)."""
    if trace is None:
        trace = make_trace(cluster, horizon, seed=seed, scale=scale)
    return [
        (
            HighFidelityConfig(
                trace=trace,
                seed=seed,
                service_model=DecisionTimeModel(t_job=t_job, t_task=t_task),
            ),
            {"cluster": cluster, "t_job_service": t_job, "t_task_service": t_task},
        )
        for t_job in t_jobs
        for t_task in t_tasks
    ]


def figure12_points(
    trace: Trace | None = None,
    t_jobs: Sequence[float] = DEFAULT_T_JOBS,
    cluster: str = "B",
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    t_task_service: float = DEFAULT_T_TASK,
) -> list[HifiPoint]:
    """Varying t_job(service) on the cluster B trace."""
    if trace is None:
        trace = make_trace(cluster, horizon, seed=seed, scale=scale)
    return [
        (
            HighFidelityConfig(
                trace=trace,
                seed=seed,
                service_model=DecisionTimeModel(t_job=t_job, t_task=t_task_service),
            ),
            {"cluster": cluster, "t_job_service": t_job},
        )
        for t_job in t_jobs
    ]


def figure13_points(
    trace: Trace | None = None,
    t_jobs: Sequence[float] = (0.1, 1.0, 4.0, 15.0, 60.0),
    cluster: str = "C",
    horizon: float = DAY,
    seed: int = 0,
    scale: float = 1.0,
    scheduler_counts: Sequence[int] = (1, 3),
) -> list[HifiPoint]:
    """Splitting the batch workload across batch schedulers while
    sweeping t_job(batch); the service path keeps defaults."""
    if trace is None:
        trace = make_trace(cluster, horizon, seed=seed, scale=scale)
    return [
        (
            HighFidelityConfig(
                trace=trace,
                seed=seed,
                batch_model=DecisionTimeModel(t_job=t_job),
                num_batch_schedulers=count,
            ),
            {"cluster": cluster, "t_job_batch": t_job, "num_batch_schedulers": count},
        )
        for count in scheduler_counts
        for t_job in t_jobs
    ]


def figure13_columns(world, result) -> dict:
    """Figure 13 rows also carry per-scheduler busyness and wait times
    ("Batch 0/1/2" in the paper's plots)."""
    row = hifi_columns(world, result)
    for index, name in enumerate(result.batch_scheduler_names):
        row[f"busy_batch_{index}"] = result.scheduler_busyness(name)
        row[f"wait_batch_{index}"] = result.scheduler_wait_mean(name)
        row[f"wait_batch_{index}_p90"] = result.scheduler_wait_p90(name)
    return row


def figure13_saturation_shift(rows: list[dict], threshold: float = 0.05) -> dict:
    """Saturation t_job(batch) for each scheduler count and the shift
    ratio (the paper reports ~3x when going from one to three batch
    schedulers)."""
    points: dict[int, float | None] = {}
    for count in sorted({row["num_batch_schedulers"] for row in rows}):
        candidates = [
            row["t_job_batch"]
            for row in rows
            if row["num_batch_schedulers"] == count
            and row["unscheduled_fraction"] > threshold
        ]
        points[count] = min(candidates) if candidates else None
    shift = None
    counts = sorted(points)
    if len(counts) >= 2 and points[counts[0]] and points[counts[-1]]:
        shift = points[counts[-1]] / points[counts[0]]
    return {"saturation_t_job": points, "shift": shift}
