"""Workload-execution traces: format, IO and a deterministic synthesizer.

The paper's high-fidelity simulator "can be given initial cell
descriptions and detailed workload traces obtained from live production
cells" (section 5). Those traces are proprietary; this module defines
an equivalent trace format (machines + standing tasks + timed job
submissions with constraints), a JSON-lines reader/writer so real
traces could be dropped in, and :func:`synthesize_trace`, which builds
a deterministic synthetic trace from a cluster preset (DESIGN.md,
"Substitutions").
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

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

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)


# ----------------------------------------------------------------------
# Synthesis
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# JSON-lines IO
# ----------------------------------------------------------------------
def write_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace as JSON lines (header, machines, tasks, jobs)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "kind": "header",
            "name": trace.name,
            "horizon": trace.horizon,
        }
        handle.write(json.dumps(header) + "\n")
        for machine in trace.machines:
            record = {
                "kind": "machine",
                "cpu": machine.cpu,
                "mem": machine.mem,
                "rack": machine.rack,
                "attributes": dict(machine.attributes),
            }
            handle.write(json.dumps(record) + "\n")
        tasks = trace.initial_tasks
        for cpu, mem, duration, job_type in zip(
            tasks.cpu, tasks.mem, tasks.duration, tasks.job_type
        ):
            record = {
                "kind": "initial_task",
                "cpu": cpu,
                "mem": mem,
                "duration": duration,
                "job_type": job_type.value,
            }
            handle.write(json.dumps(record) + "\n")
        for job in trace.jobs:
            record = {
                "kind": "job",
                "submit_time": job.submit_time,
                "job_type": job.job_type.value,
                "num_tasks": job.num_tasks,
                "cpu_per_task": job.cpu_per_task,
                "mem_per_task": job.mem_per_task,
                "duration": job.duration,
                "constraints": [c.to_tuple() for c in job.constraints],
            }
            handle.write(json.dumps(record) + "\n")


def _amount(record: dict, key: str) -> float:
    """``record[key]``, refused unless it is a non-negative number."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value >= 0:
        raise ValueError(f"{key} must be a non-negative number, got {value!r}")
    return value


def _count(record: dict, key: str, minimum: int) -> int:
    """``record[key]``, refused unless it is an integer >= ``minimum``."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _positive(record: dict, key: str) -> float:
    """``record[key]``, refused unless it is a positive finite number."""
    value = _amount(record, key)
    if not 0 < value <= sys.float_info.max:
        raise ValueError(f"{key} must be positive and finite, got {value!r}")
    return float(value)


def _constraints(record: dict) -> tuple[Constraint, ...]:
    """A job's constraints: a list of ``[attribute, op, value]`` strings."""
    constraints = record.get("constraints", [])
    if not isinstance(constraints, list) or not all(
        isinstance(constraint, list)
        and len(constraint) == 3
        and all(isinstance(part, str) for part in constraint)
        for constraint in constraints
    ):
        raise ValueError(
            "constraints must be a list of [attribute, op, value] strings, "
            f"got {constraints!r}"
        )
    return tuple(Constraint.from_tuple(constraint) for constraint in constraints)


def read_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace`; a line it cannot
    replay (malformed JSON, a record that is not an object, a missing or
    wrong-typed field, a negative or NaN amount, ``num_tasks < 1``, a
    machine capacity or horizon that is not positive and finite) raises
    ``ValueError("<path>:<line>: ...")``."""
    path = Path(path)
    name = path.stem
    horizon = 0.0
    machines: list[TraceMachine] = []
    tasks = StandingTasks()
    jobs: list[TraceJob] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            kind = None
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError(
                        f"a record must be a JSON object, got {type(record).__name__}"
                    )
                kind = record.get("kind")
                if kind == "header":
                    name, horizon = record["name"], _positive(record, "horizon")
                    if not isinstance(name, str):
                        raise ValueError(f"name must be a string, got {name!r}")
                elif kind == "machine":
                    attributes = record.get("attributes", {})
                    if not isinstance(attributes, dict) or not all(
                        isinstance(key, str) and isinstance(value, str)
                        for key, value in attributes.items()
                    ):
                        raise ValueError(
                            f"attributes must map strings to strings, got {attributes!r}"
                        )
                    machines.append(
                        TraceMachine(
                            cpu=_positive(record, "cpu"),
                            mem=_positive(record, "mem"),
                            rack=_count(record, "rack", 0),
                            attributes=attributes,
                        )
                    )
                elif kind == "initial_task":
                    cpu, mem, duration = (
                        _amount(record, key) for key in ("cpu", "mem", "duration")
                    )
                    job_type = JobType(record["job_type"])
                    tasks.cpu.append(cpu)
                    tasks.mem.append(mem)
                    tasks.duration.append(duration)
                    tasks.job_type.append(job_type)
                elif kind == "job":
                    jobs.append(
                        TraceJob(
                            submit_time=_amount(record, "submit_time"),
                            job_type=JobType(record["job_type"]),
                            num_tasks=_count(record, "num_tasks", 1),
                            cpu_per_task=_amount(record, "cpu_per_task"),
                            mem_per_task=_amount(record, "mem_per_task"),
                            duration=_amount(record, "duration"),
                            constraints=_constraints(record),
                        )
                    )
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except json.JSONDecodeError as error:
                # Still a JSONDecodeError (a ValueError), now naming the line.
                raise json.JSONDecodeError(
                    f"{path}:{line_number}: not JSON: {error.msg}", error.doc, error.pos
                ) from None
            except KeyError as missing:
                raise ValueError(
                    f"{path}:{line_number}: {kind} record has no {missing} field"
                ) from None
            except (ValueError, OverflowError) as error:
                # OverflowError: an integer amount no double can hold.
                raise ValueError(f"{path}:{line_number}: {error}") from error
    return Trace(
        name=name,
        horizon=horizon,
        machines=machines,
        initial_tasks=tasks,
        jobs=jobs,
    )
