"""Trace-driven high-fidelity Omega simulation (paper section 5).

Only the Omega shared-state architecture is supported, like the paper's
high-fidelity simulator ("at the price of only supporting the Omega
architecture"). Placement obeys constraints and uses the deterministic
scoring algorithm, and — also like the paper — the finer placement and
fullness behaviour produces noticeably more interference than the
lightweight simulator.

Simplifications carried over from the paper's own simulator: requested
sizes are used instead of actual usage, allocations are fixed at their
initially-requested sizes, and preemption is disabled. Machine failures
— which the paper also skipped — are *optionally* modeled here as an
extension (``machine_mtbf``; see :mod:`repro.hifi.failures`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.fill import populate
from repro.core.preemption import AllocationLedger
from repro.core.transaction import CommitMode, ConflictMode
from repro.experiments.common import omega_schedulers
from repro.hifi.constraints import AttributeIndex
from repro.hifi.failures import MachineFailureInjector
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
    attempt_limit: int = 1000
    metrics_period: float | None = None
    horizon: float | None = None  # default: the trace's horizon
    #: Mean time between failures per machine (seconds); None disables
    #: failure injection. An extension beyond the paper, which skipped
    #: machine failures; see :mod:`repro.hifi.failures`.
    machine_mtbf: float | None = None
    repair_time: float = 1800.0
    #: Emit ``timeline.*`` trace records every this many simulated
    #: seconds (see :mod:`repro.obs.timeline`); ``None`` disables it.
    timeline_interval: float | None = None

    def __post_init__(self) -> None:
        if self.num_batch_schedulers < 1:
            raise ValueError("need at least one batch scheduler")

    @property
    def effective_horizon(self) -> float:
        return self.horizon if self.horizon is not None else self.trace.horizon

    @property
    def period(self) -> float:
        if self.metrics_period is not None:
            return self.metrics_period
        return min(DAY, self.effective_horizon / 4.0)


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
            config.effective_horizon,
            architecture="hifi-omega",
            seed=config.seed,
        )
        self.state = self.add_state()

    def assemble(self) -> None:
        config = self.config
        if config.machine_mtbf is not None:
            self.ledger = AllocationLedger(self.state, self.sim)
        placer = ScoringPlacer(self.cell, AttributeIndex(self.cell))
        omega_schedulers(self, self.state, "hifi", placer, self.ledger)
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
        if self.ledger is not None:
            MachineFailureInjector(
                self.sim,
                self.state,
                self.ledger,
                self.streams.stream("machine-failures"),
                mtbf=config.machine_mtbf,
                repair_time=config.repair_time,
            ).start(self.horizon)
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
