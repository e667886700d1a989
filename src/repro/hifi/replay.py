"""Trace-driven high-fidelity Omega simulation (paper section 5).

Only the Omega shared-state architecture is supported, like the paper's
high-fidelity simulator ("at the price of only supporting the Omega
architecture"). Placement obeys constraints and uses the deterministic
scoring algorithm, and — also like the paper — the finer placement and
fullness behaviour produces noticeably more interference than the
lightweight simulator.

Simplifications carried over from the paper's own simulator: requested
sizes are used instead of actual usage, allocations are fixed at their
initially-requested sizes, preemption is disabled, and machines do not
fail ("as these only generate a small load on the scheduler").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.core.fill import populate
from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import omega_schedulers
from repro.hifi.constraints import AttributeIndex
from repro.hifi.placement import ScoringPlacer
from repro.hifi.trace import Trace, TraceJob
from repro.metrics.results import RunSummary
from repro.schedulers.base import DecisionTimeModel
from repro.sim import RandomStreams
from repro.workload.job import Job
from repro.world import RunContext, World

DAY = 86400.0


@dataclass
class HighFidelityConfig:
    """Parameters of one high-fidelity replay."""

    trace: Trace
    seed: int = 0
    batch_model: DecisionTimeModel = field(default_factory=DecisionTimeModel)
    service_model: DecisionTimeModel = field(default_factory=DecisionTimeModel)
    num_batch_schedulers: int = 1
    conflict_mode: ConflictMode = ConflictMode.FINE
    commit_mode: CommitMode = CommitMode.INCREMENTAL
    #: Attempts before a job is abandoned: a constant here, read as
    #: ``config.attempt_limit`` like the lightweight simulator's field.
    attempt_limit: ClassVar[int] = 1000
    #: Emit ``timeline.*`` trace records every this many simulated
    #: seconds (see :mod:`repro.obs.timeline`); ``None`` disables it.
    timeline_interval: float | None = None

    def __post_init__(self) -> None:
        if self.num_batch_schedulers < 1:
            raise ValueError("need at least one batch scheduler")

    @property
    def period(self) -> float:
        return min(DAY, self.trace.horizon / 4.0)


class HighFidelitySimulation(World):
    """One trace replay: the Omega schedulers under the scoring placer,
    filled and fed from the trace."""

    def __init__(
        self, config: HighFidelityConfig, context: RunContext | None = None
    ) -> None:
        super().__init__(
            config,
            context or RunContext(),
            RandomStreams(config.seed),
            config.trace.cell(),
            config.trace.horizon,
            architecture="hifi-omega",
            seed=config.seed,
        )
        self.state = self.add_state()

    def assemble(self) -> None:
        config = self.config
        placer = ScoringPlacer(self.cell, AttributeIndex(self.cell))
        omega_schedulers(self, self.state, "hifi", placer, None)
        populate(
            self.state,
            config.trace.initial_tasks,
            self.streams.stream("initial-fill"),
            self.sim,
            self.horizon,
        )
        for trace_job in config.trace.jobs:
            if trace_job.submit_time > self.horizon:
                break
            self.sim.at(trace_job.submit_time, self._submit_trace_job, trace_job)
        self.install_collectors(None, None, None, timeline_interval=config.timeline_interval)

    def _submit_trace_job(self, trace_job: TraceJob) -> None:
        job = Job(
            job_type=trace_job.job_type,
            submit_time=self.sim.now,
            num_tasks=trace_job.num_tasks,
            cpu_per_task=trace_job.cpu_per_task,
            mem_per_task=trace_job.mem_per_task,
            duration=trace_job.duration,
            job_id=next(self.context.job_ids),
            constraints=trace_job.constraints,
        )
        rec = self.sim.recorder
        if rec.enabled:
            rec.event(
                "hifi.job_submitted",
                t=self.sim.now,
                job=job.job_id,
                job_type=job.job_type.value,
                tasks=job.num_tasks,
                constrained=bool(job.constraints),
            )
        self.submit(job)


def run_hifi(config: HighFidelityConfig) -> RunSummary:
    """Build and run one high-fidelity replay."""
    return HighFidelitySimulation(config).run()
