"""Synthetic workload generation: Poisson job arrivals and initial fill.

Matches the lightweight-simulator setup of paper section 4: job
inter-arrival times, tasks per job, task durations and per-task resources
are sampled from per-cluster empirical distributions; at simulation start
the cell is pre-filled to roughly 60 % utilization "using task-size data
extracted from the relevant trace".
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.sim import Simulator
from repro.workload.clusters import SIM_DURATION_CAP, ClusterPreset, WorkloadParams
from repro.workload.distributions import LogNormal, Sampler
from repro.workload.job import DEFAULT_PRECEDENCE, Job, JobType


class WorkloadGenerator:
    """Poisson arrival process for one job type.

    Calls ``submit(job)`` for each synthesized job until ``horizon``.
    The generator owns its RNG stream, so two simulator configurations
    built from the same seed receive byte-identical workloads — the
    property that makes the paper's A/B architecture comparisons fair
    ("compare the behaviour of all three architectures under the same
    conditions and with identical workloads"). Job ids come from
    ``job_ids``, the sequence of the run the generator belongs to
    (:attr:`repro.world.RunContext.job_ids`), shared by every job
    source of that run.
    """

    def __init__(
        self,
        sim: Simulator,
        params: WorkloadParams,
        job_type: JobType,
        rng: np.random.Generator,
        submit: Callable[[Job], None],
        horizon: float,
        job_ids: Iterator[int],
        rate_factor: float = 1.0,
    ) -> None:
        if not 0 < horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        if not 0 < rate_factor < math.inf:
            raise ValueError(f"rate_factor must be positive and finite, got {rate_factor}")
        self._sim = sim
        self._params = params
        self._job_type = job_type
        self._rng = rng
        self._submit = submit
        self._horizon = horizon
        self._ids = job_ids
        self._mean_gap = 1.0 / (params.arrival_rate * rate_factor)
        self.jobs_generated = 0

    def start(self) -> None:
        """Begin generating arrivals (first gap drawn from the process)."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        gap = self._rng.exponential(self._mean_gap)
        arrival_time = self._sim.now + gap
        if arrival_time <= self._horizon:
            self._sim.at(arrival_time, self._arrive)

    def _arrive(self) -> None:
        job = self.make_job(self._sim.now)
        self.jobs_generated += 1
        self._submit(job)
        self._schedule_next()

    def make_job(self, submit_time: float) -> Job:
        """Sample one job from the per-type distributions."""
        params = self._params
        rng = self._rng
        return Job(
            job_type=self._job_type,
            submit_time=submit_time,
            num_tasks=int(params.tasks_per_job.sample(rng)),
            cpu_per_task=params.cpu_per_task.sample(rng),
            mem_per_task=params.mem_per_task.sample(rng),
            duration=params.task_duration.sample(rng),
            job_id=next(self._ids),
            precedence=DEFAULT_PRECEDENCE[self._job_type],
        )


@dataclass(frozen=True)
class StandingTasks:
    """The tasks occupying resources at simulation start, as columns:
    task ``i`` holds ``cpu[i]`` and ``mem[i]`` for its first
    ``duration[i]`` seconds and belongs to a ``job_type[i]`` job.

    The three amounts are packed C doubles (``array('d')``, or a
    ``memoryview`` of one from :meth:`rows`), 8 bytes a value; any other
    sequence given is packed. Columns of unequal length are refused.
    """

    cpu: array | memoryview = field(default_factory=lambda: array("d"))
    mem: array | memoryview = field(default_factory=lambda: array("d"))
    duration: array | memoryview = field(default_factory=lambda: array("d"))
    job_type: list[JobType] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("cpu", "mem", "duration"):
            column = getattr(self, name)
            if not isinstance(column, (array, memoryview)):
                object.__setattr__(self, name, array("d", column))
        lengths = [len(self.cpu), len(self.mem), len(self.duration), len(self.job_type)]
        if len(set(lengths)) > 1:
            raise ValueError(
                "standing task columns differ in length: cpu, mem, duration, "
                f"job_type have {', '.join(map(str, lengths))}"
            )

    def __len__(self) -> int:
        return len(self.cpu)

    def rows(self, start: int, stop: int) -> "StandingTasks":
        """Tasks ``start`` to ``stop - 1``: views of these columns'
        buffers (no copy), and a new ``job_type`` list."""
        return StandingTasks(
            memoryview(self.cpu)[start:stop],
            memoryview(self.mem)[start:stop],
            memoryview(self.duration)[start:stop],
            self.job_type[start:stop],
        )


class InitialFill:
    """Generates the standing task population that fills the cell to the
    target utilization at t=0.

    Composition follows the paper's workload mix: the majority of
    *standing resources* belong to long-running service tasks, the rest
    to batch tasks that churn (section 2.1: 55-80 % of resources are
    allocated to service jobs). Batch residual lifetimes are fresh draws
    from the batch duration distribution; standing *service* tasks are
    long-lived by definition (they are the survivors — service jobs run
    for weeks), so their residuals come from a days-scale distribution
    rather than the arrival-time one. This keeps simulated utilization
    near the 60 % target instead of decaying within hours.
    """

    SERVICE_CPU_SHARE = 0.7

    #: Residual lifetime of standing service tasks (days, capped at the
    #: simulation duration cap).
    SERVICE_RESIDUAL = LogNormal(
        median=2 * 86400.0, sigma=1.0, low=6 * 3600.0, high=SIM_DURATION_CAP
    )

    def __init__(self, preset: ClusterPreset, target_utilization: float | None = None):
        self._preset = preset
        self.target_utilization = (
            preset.initial_utilization
            if target_utilization is None
            else target_utilization
        )
        if not 0.0 <= self.target_utilization < 1.0:
            raise ValueError(
                f"target utilization must be in [0, 1), got {self.target_utilization}"
            )

    def generate(self, rng: np.random.Generator) -> StandingTasks:
        """Sample standing tasks until the CPU target is reached: service
        tasks up to their share of it, then batch tasks."""
        target_cpu = self._preset.total_cpu * self.target_utilization
        service, batch = self._preset.service, self._preset.batch
        tasks = StandingTasks()
        filled = _fill_phase(
            rng,
            tasks,
            JobType.SERVICE,
            (service.cpu_per_task, self.SERVICE_RESIDUAL, service.mem_per_task),
            0.0,
            target_cpu * self.SERVICE_CPU_SHARE,
        )
        _fill_phase(
            rng,
            tasks,
            JobType.BATCH,
            (batch.cpu_per_task, batch.task_duration, batch.mem_per_task),
            filled,
            target_cpu,
        )
        return tasks


def _fill_phase(
    rng: np.random.Generator,
    tasks: StandingTasks,
    job_type: JobType,
    samplers: tuple[Sampler, Sampler, Sampler],
    filled: float,
    limit: float,
) -> float:
    """Append tasks of ``job_type`` until ``filled`` CPU reaches ``limit``;
    returns the new total.

    Each task is one round of (cpu, duration, mem) draws, in that order.
    Three ``LogNormal`` samplers are drawn a block of rounds at a time
    (:meth:`LogNormal.sample_rounds`: the scalar calls' own stream); a
    block that runs past the stopping round is rewound and exactly the
    rounds used are redrawn, because the caller goes on drawing from
    ``rng``. A block is sized to fall short (0.9 of the rounds expected,
    plus 16), so that as a rule only the last, small one is redrawn. Any
    other sampler takes the loop of scalar ``sample`` calls.
    """
    cpu_sampler, duration_sampler, mem_sampler = samplers
    if not all(type(sampler) is LogNormal for sampler in samplers):
        while filled < limit:
            cpu = cpu_sampler.sample(rng)
            if cpu <= 0.0:
                raise _stalled(cpu_sampler, cpu)
            tasks.cpu.append(cpu)
            tasks.duration.append(duration_sampler.sample(rng))
            tasks.mem.append(mem_sampler.sample(rng))
            tasks.job_type.append(job_type)
            filled += cpu
        return filled

    mean_cpu = cpu_sampler.mean()
    while filled < limit:
        rounds = int(0.9 * (limit - filled) / mean_cpu) + 16
        state = rng.bit_generator.state
        block = LogNormal.sample_rounds(rng, samplers, rounds)
        # totals[i] is ``filled`` after i rounds, by the scalar loop's own
        # left-to-right additions; the first to reach the limit ends it.
        totals = np.cumsum(np.concatenate(([filled], block[:, 0])))
        used = int((totals >= limit).argmax()) or rounds  # 0: block fell short
        if used < rounds:
            rng.bit_generator.state = state
            LogNormal.sample_rounds(rng, samplers, used)
        cpu = block[:used, 0]
        if cpu.min() <= 0.0:
            raise _stalled(cpu_sampler, float(cpu.min()))
        # Columns are (cpu, duration, mem); each packs as raw doubles.
        tasks.cpu.frombytes(cpu.tobytes())
        tasks.mem.frombytes(block[:used, 2].tobytes())
        tasks.duration.frombytes(block[:used, 1].tobytes())
        tasks.job_type.extend([job_type] * used)
        filled = float(totals[used])
    return filled


def _stalled(sampler: Sampler, cpu: float) -> ValueError:
    return ValueError(
        f"initial fill cannot advance: cpu sampler {sampler!r} drew {cpu}"
    )
