"""Per-scheduler limits, admission control, and post-facto auditing.

Paper section 3.4: "individual schedulers have configuration settings
to limit the total amount of resources they may claim, and to limit the
number of jobs they admit", and "we also rely on post-facto
enforcement, since we are monitoring the system's behavior anyway".

Two pieces:

* :class:`LimitedOmegaScheduler` — an Omega scheduler with a resource
  quota (claims are trimmed at its limit; jobs beyond the admission
  limit are rejected at submit time);
* :class:`PolicyMonitor` — periodic, *after-the-fact* auditing of
  per-scheduler usage against configured limits, "to eliminate the need
  for checks in a scheduler's critical code path". The monitor watches
  the shared allocation ledger and records violations; it never blocks
  anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cellstate import CellState
from repro.core.preemption import AllocationLedger
from repro.core.scheduler import OmegaScheduler, PlacementFn
from repro.core.transaction import Plan
from repro.metrics import MetricsCollector
from repro.schedulers.base import DecisionTimeModel
from repro.sim import Simulator
from repro.workload.job import Job, JobType


@dataclass(frozen=True)
class SchedulerLimits:
    """Configured ceilings for one scheduler; ``None`` means unlimited."""

    max_cpu: float | None = None
    max_mem: float | None = None
    max_admitted_jobs: int | None = None

    def __post_init__(self) -> None:
        if self.max_cpu is not None and self.max_cpu < 0:
            raise ValueError(f"max_cpu must be >= 0, got {self.max_cpu}")
        if self.max_mem is not None and self.max_mem < 0:
            raise ValueError(f"max_mem must be >= 0, got {self.max_mem}")
        if self.max_admitted_jobs is not None and self.max_admitted_jobs < 0:
            raise ValueError(
                f"max_admitted_jobs must be >= 0, got {self.max_admitted_jobs}"
            )


class LimitedOmegaScheduler(OmegaScheduler):
    """An Omega scheduler that respects its configured quota.

    Tracks its own outstanding usage (claims minus completed tasks) and
    trims placement plans so a commit never takes it over its resource
    limits; jobs arriving past the admission limit are rejected and
    counted in :attr:`jobs_rejected`. ``options`` are
    :class:`OmegaScheduler`'s other keyword arguments.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        metrics: MetricsCollector,
        state: CellState,
        rng: np.random.Generator,
        decision_times: dict[JobType, DecisionTimeModel] | DecisionTimeModel,
        limits: SchedulerLimits,
        **options,
    ) -> None:
        super().__init__(name, sim, metrics, state, rng, decision_times, **options)
        self._placement = self._limited_placement(self._placement)
        self.limits = limits
        self.used_cpu = 0.0
        self.used_mem = 0.0
        self.jobs_admitted = 0
        self.jobs_rejected = 0

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        limit = self.limits.max_admitted_jobs
        if limit is not None and self.jobs_admitted >= limit:
            self.jobs_rejected += 1
            return
        self.jobs_admitted += 1
        super().submit(job)

    # ------------------------------------------------------------------
    # Quota-aware placement
    # ------------------------------------------------------------------
    def current_usage(self) -> tuple[float, float]:
        """This scheduler's outstanding (cpu, mem) usage.

        With a shared allocation ledger the usage comes from the ledger
        (so evictions free quota immediately); otherwise from the local
        counters maintained by :meth:`_start_tasks`.
        """
        if self.ledger is not None:
            return self.ledger.usage_by_owner().get(self.name, (0.0, 0.0))
        return (self.used_cpu, self.used_mem)

    def _headroom_tasks(self, job: Job) -> int:
        """How many more of this job's tasks fit under the quota."""
        used_cpu, used_mem = self.current_usage()
        remaining = job.unplaced_tasks
        if self.limits.max_cpu is not None and job.cpu_per_task > 0:
            budget = self.limits.max_cpu - used_cpu
            remaining = min(remaining, max(0, int(budget / job.cpu_per_task + 1e-9)))
        if self.limits.max_mem is not None and job.mem_per_task > 0:
            budget = self.limits.max_mem - used_mem
            remaining = min(remaining, max(0, int(budget / job.mem_per_task + 1e-9)))
        return remaining

    def _limited_placement(self, inner: PlacementFn) -> PlacementFn:
        def placement(snapshot, job, rng) -> Plan:
            allowed = self._headroom_tasks(job)
            if allowed <= 0:
                return Plan(job.cpu_per_task, job.mem_per_task, [], [])
            plan = inner(snapshot, job, rng)
            if plan.tasks <= allowed:
                return plan
            counts: list[int] = []  # the plan's first ``allowed`` tasks
            for count in plan.counts:
                counts.append(min(count, allowed))
                allowed -= count
                if allowed <= 0:
                    break
            return Plan(plan.cpu, plan.mem, plan.machines[: len(counts)], counts)

        return placement

    # ------------------------------------------------------------------
    # Own-usage accounting (ledger-less path; with a ledger the usage
    # is read from it, see current_usage())
    # ------------------------------------------------------------------
    def _start_tasks(self, state: CellState, job: Job, plan: Plan) -> None:
        if self.ledger is None and plan.machines:
            for count in plan.counts:
                self.used_cpu += plan.cpu * count
                self.used_mem += plan.mem * count
            self.sim.after(job.duration, self._own_usage_released, plan)
        super()._start_tasks(state, job, plan)

    def _own_usage_released(self, plan: Plan) -> None:
        for count in plan.counts:
            self.used_cpu -= plan.cpu * count
            self.used_mem -= plan.mem * count


@dataclass(frozen=True)
class Violation:
    """One audited quota violation."""

    time: float
    scheduler: str
    used_cpu: float
    used_mem: float
    limit_cpu: float | None
    limit_mem: float | None


@dataclass
class PolicyMonitor:
    """Post-facto policy auditor over the shared allocation ledger.

    Samples per-owner usage every ``interval`` seconds and records a
    :class:`Violation` whenever a scheduler exceeds its configured
    limits. Enforcement is *not* automatic — the paper relies on
    "compliance to cluster-wide policies ... audited post facto" rather
    than checks on the scheduling fast path.
    """

    sim: Simulator
    ledger: AllocationLedger
    limits: dict[str, SchedulerLimits]
    interval: float = 300.0
    violations: list[Violation] = field(default_factory=list)
    samples: int = 0

    def start(self, until: float | None = None) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        self.sim.every(self.interval, self._audit, until=until)

    def _audit(self) -> None:
        self.samples += 1
        usage = self.ledger.usage_by_owner()
        for scheduler, limits in sorted(self.limits.items()):
            cpu, mem = usage.get(scheduler, (0.0, 0.0))
            over_cpu = limits.max_cpu is not None and cpu > limits.max_cpu + 1e-9
            over_mem = limits.max_mem is not None and mem > limits.max_mem + 1e-9
            if over_cpu or over_mem:
                self.violations.append(
                    Violation(
                        time=self.sim.now,
                        scheduler=scheduler,
                        used_cpu=cpu,
                        used_mem=mem,
                        limit_cpu=limits.max_cpu,
                        limit_mem=limits.max_mem,
                    )
                )
