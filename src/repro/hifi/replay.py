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

from repro.core.cellstate import CellState
from repro.core.fill import populate
from repro.core.multi import SchedulerPool
from repro.core.preemption import AllocationLedger
from repro.core.scheduler import OmegaScheduler
from repro.core.transaction import CommitMode, ConflictMode
from repro.faults.invariants import CellStateInvariantChecker
from repro.hifi.constraints import AttributeIndex
from repro.hifi.failures import MachineFailureInjector
from repro.hifi.placement import ScoringPlacer
from repro.hifi.trace import Trace, TraceJob
from repro.metrics import MetricsCollector
from repro.metrics.results import RunSummary
from repro.obs import recorder as _obs
from repro.obs.registry import publish_sim_stats
from repro.schedulers.base import DecisionTimeModel
from repro.sim import RandomStreams, Simulator
from repro.workload.job import Job, JobType, reset_job_ids

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


@dataclass
class HighFidelityResult(RunSummary):
    """Metrics of one high-fidelity replay."""

    config: HighFidelityConfig | None = None


class HighFidelitySimulation:
    """Builds and runs one trace replay."""

    def __init__(self, config: HighFidelityConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.metrics = MetricsCollector(period=config.period)
        self.cell = config.trace.cell()
        self.state = CellState(self.cell)
        self.placer = ScoringPlacer(self.cell, AttributeIndex(self.cell))
        self._built = False

    def build(self) -> "HighFidelitySimulation":
        if self._built:
            raise RuntimeError("simulation already built")
        self._built = True
        reset_job_ids()
        config = self.config
        self.ledger = None
        self.failures = None
        if config.machine_mtbf is not None:
            self.ledger = AllocationLedger(self.state, self.sim)
            self.failures = MachineFailureInjector(
                self.sim,
                self.state,
                self.ledger,
                self.streams.stream("machine-failures"),
                mtbf=config.machine_mtbf,
                repair_time=config.repair_time,
            )
        batch_schedulers = [
            OmegaScheduler(
                f"hifi-batch-{i}" if config.num_batch_schedulers > 1 else "hifi-batch",
                self.sim,
                self.metrics,
                self.state,
                self.streams.stream(f"placement.hifi-batch-{i}"),
                config.batch_model,
                conflict_mode=config.conflict_mode,
                commit_mode=config.commit_mode,
                placement=self.placer,
                attempt_limit=config.attempt_limit,
                ledger=self.ledger,
            )
            for i in range(config.num_batch_schedulers)
        ]
        self.pool = SchedulerPool(batch_schedulers)
        self.service = OmegaScheduler(
            "hifi-service",
            self.sim,
            self.metrics,
            self.state,
            self.streams.stream("placement.hifi-service"),
            config.service_model,
            conflict_mode=config.conflict_mode,
            commit_mode=config.commit_mode,
            placement=self.placer,
            attempt_limit=config.attempt_limit,
            ledger=self.ledger,
        )
        self.batch_scheduler_names = self.pool.names
        self.service_scheduler_names = [self.service.name]

        horizon = config.effective_horizon
        populate(
            self.state,
            config.trace.initial_tasks,
            self.streams.stream("initial-fill"),
            self.sim,
            horizon,
        )
        for trace_job in config.trace.jobs:
            if trace_job.submit_time > horizon:
                break
            self.sim.at(trace_job.submit_time, self._submit_trace_job, trace_job)
        if self.failures is not None:
            self.failures.start(horizon)
        return self

    def _submit_trace_job(self, trace_job: TraceJob) -> None:
        job = Job(
            job_type=trace_job.job_type,
            submit_time=self.sim.now,
            num_tasks=trace_job.num_tasks,
            cpu_per_task=trace_job.cpu_per_task,
            mem_per_task=trace_job.mem_per_task,
            duration=trace_job.duration,
            constraints=trace_job.constraints,
        )
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "hifi.job_submitted",
                t=self.sim.now,
                job=job.job_id,
                job_type=job.job_type.value,
                tasks=job.num_tasks,
                constrained=bool(job.constraints),
            )
        if job.job_type is JobType.BATCH:
            self.pool.submit(job)
        else:
            self.service.submit(job)

    def check_invariants(self) -> list[str]:
        """Post-run invariant gate over the cell state (and the
        allocation ledger, when machine failures are on).

        Raises :class:`repro.faults.InvariantViolation` on any
        inconsistency; returns the (empty) violation list otherwise.
        """
        return CellStateInvariantChecker([self.state], ledger=self.ledger).check(
            self.sim.now
        )

    def run(self) -> HighFidelityResult:
        if not self._built:
            self.build()
        horizon = self.config.effective_horizon
        rec = _obs.RECORDER
        if rec.enabled:
            rec.event(
                "run.start",
                t=self.sim.now,
                architecture="hifi-omega",
                horizon=horizon,
                seed=self.config.seed,
            )
        self.sim.run(until=horizon)
        stats = self.sim.stats()
        publish_sim_stats(stats)
        return HighFidelityResult(
            metrics=self.metrics,
            horizon=horizon,
            batch_scheduler_names=self.batch_scheduler_names,
            service_scheduler_names=self.service_scheduler_names,
            jobs_submitted=self.metrics.jobs_submitted,
            jobs_scheduled=self.metrics.jobs_scheduled_total,
            jobs_abandoned=self.metrics.jobs_abandoned_total,
            final_cpu_utilization=self.state.cpu_utilization,
            events_processed=self.sim.events_processed,
            sim_stats=stats,
            config=self.config,
        )


def run_hifi(config: HighFidelityConfig) -> HighFidelityResult:
    """Build and run one high-fidelity replay."""
    return HighFidelitySimulation(config).run()
