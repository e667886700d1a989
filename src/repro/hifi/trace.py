"""Workload-execution traces and a deterministic synthesizer.

The paper's high-fidelity simulator "can be given initial cell
descriptions and detailed workload traces obtained from live production
cells" (section 5). Those traces are proprietary; this module defines
an equivalent in-memory :class:`Trace` (machines + standing tasks +
timed job submissions with constraints), which the replay takes, and
:func:`synthesize_trace`, which builds a deterministic synthetic trace
from a cluster preset (DESIGN.md, "Substitutions"). A real trace would
enter the replay through a converter into :class:`Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster import Cell, Machine
from repro.hifi.constraints import Constraint, ConstraintOp
from repro.sim import RandomStreams
from repro.workload.clusters import ClusterPreset
from repro.workload.generator import InitialFill, StandingTasks
from repro.workload.job import JobType

#: Machine platforms for synthetic cells: (weight, cpu, mem, attributes).
#: Mirrors the mixed machine classes of Google cells described in the
#: public trace analyses the paper cites (Reiss et al.).
DEFAULT_PLATFORMS = (
    (0.60, 4.0, 16.0, {"arch": "x86", "kernel": "3.2", "tier": "standard"}),
    (0.25, 4.0, 32.0, {"arch": "x86", "kernel": "3.8", "tier": "highmem"}),
    (0.10, 8.0, 32.0, {"arch": "x86", "kernel": "3.8", "tier": "standard"}),
    (0.05, 4.0, 16.0, {"arch": "arm", "kernel": "3.8", "tier": "standard"}),
)

#: Fractions of jobs carrying at least one placement constraint; service
#: jobs are pickier (they must land on particular platforms).
BATCH_PICKY_FRACTION = 0.05
SERVICE_PICKY_FRACTION = 0.25


@dataclass(frozen=True)
class TraceMachine:
    """One machine in the trace's cell description."""

    cpu: float
    mem: float
    rack: int
    attributes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TraceJob:
    """One job submission in the trace."""

    submit_time: float
    job_type: JobType
    num_tasks: int
    cpu_per_task: float
    mem_per_task: float
    duration: float
    constraints: tuple[Constraint, ...] = ()


@dataclass
class Trace:
    """A complete replayable workload trace."""

    name: str
    horizon: float
    machines: list[TraceMachine]
    initial_tasks: StandingTasks
    jobs: list[TraceJob]

    def cell(self) -> Cell:
        built = [
            Machine(
                index=i,
                cpu=m.cpu,
                mem=m.mem,
                rack=m.rack,
                attributes=m.attributes,
            )
            for i, m in enumerate(self.machines)
        ]
        return Cell(built, name=self.name)


def _sample_constraints(
    rng: np.random.Generator, job_type: JobType
) -> tuple[Constraint, ...]:
    picky_fraction = (
        SERVICE_PICKY_FRACTION
        if job_type is JobType.SERVICE
        else BATCH_PICKY_FRACTION
    )
    if rng.random() >= picky_fraction:
        return ()
    choices = [
        Constraint("kernel", ConstraintOp.EQ, "3.8"),
        Constraint("kernel", ConstraintOp.EQ, "3.2"),
        Constraint("tier", ConstraintOp.EQ, "highmem"),
        Constraint("arch", ConstraintOp.EQ, "x86"),
        Constraint("arch", ConstraintOp.NEQ, "arm"),
        Constraint("tier", ConstraintOp.NEQ, "highmem"),
    ]
    count = 1 if rng.random() < 0.8 else 2
    picked = rng.choice(len(choices), size=count, replace=False)
    return tuple(choices[int(i)] for i in picked)


def synthesize_trace(
    preset: ClusterPreset,
    horizon: float,
    seed: int = 0,
    machines_per_rack: int = 40,
    platforms=DEFAULT_PLATFORMS,
) -> Trace:
    """Build a deterministic synthetic trace for a cluster preset.

    The cell is heterogeneous (platform mix above); the job stream uses
    the preset's simulator distributions plus sampled constraints. Mean
    machine size matches the preset's homogeneous machines closely, so
    lightweight and high-fidelity runs of the same preset see comparable
    aggregate capacity.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    streams = RandomStreams(seed).fork(f"trace:{preset.name}")
    machine_rng = streams.stream("machines")
    weights = np.array([p[0] for p in platforms], dtype=np.float64)
    weights = weights / weights.sum()
    platform_choice = machine_rng.choice(
        len(platforms), size=preset.num_machines, p=weights
    )
    machines = [
        TraceMachine(
            cpu=platforms[int(k)][1],
            mem=platforms[int(k)][2],
            rack=i // machines_per_rack,
            attributes=dict(platforms[int(k)][3]),
        )
        for i, k in enumerate(platform_choice)
    ]

    initial_tasks = InitialFill(preset).generate(streams.stream("fill"))

    job_rng = streams.stream("jobs")
    jobs: list[TraceJob] = []
    for job_type, params in (
        (JobType.BATCH, preset.batch),
        (JobType.SERVICE, preset.service),
    ):
        now = 0.0
        while True:
            now += job_rng.exponential(1.0 / params.arrival_rate)
            if now > horizon:
                break
            jobs.append(
                TraceJob(
                    submit_time=now,
                    job_type=job_type,
                    num_tasks=int(params.tasks_per_job.sample(job_rng)),
                    cpu_per_task=params.cpu_per_task.sample(job_rng),
                    mem_per_task=params.mem_per_task.sample(job_rng),
                    duration=params.task_duration.sample(job_rng),
                    constraints=_sample_constraints(job_rng, job_type),
                )
            )
    jobs.sort(key=lambda job: job.submit_time)
    return Trace(
        name=f"trace-{preset.name}",
        horizon=horizon,
        machines=machines,
        initial_tasks=initial_tasks,
        jobs=jobs,
    )
