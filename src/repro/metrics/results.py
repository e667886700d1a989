"""Run summaries shared by the lightweight and high-fidelity simulators.

:class:`RunSummary` wraps a :class:`~repro.metrics.collector.MetricsCollector`
with the derived quantities the paper plots: per-role busyness
(median of daily values +- MAD), conflict fractions, wait times
(means and 90th percentiles), abandonment and saturation indicators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import percentile
from repro.workload.job import JobType


@dataclass
class RunSummary:
    """Metrics of one simulation run."""

    metrics: MetricsCollector
    horizon: float
    batch_scheduler_names: list[str]
    service_scheduler_names: list[str]
    jobs_submitted: int
    jobs_scheduled: int
    jobs_abandoned: int
    final_cpu_utilization: float
    utilization_series: list[tuple[float, float, float]] = field(default_factory=list)
    events_processed: int = 0
    #: Engine runtime statistics (:meth:`repro.sim.engine.Simulator.stats`):
    #: events processed, peak queue depth, wall seconds, final sim time.
    sim_stats: dict[str, float | int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Role-level accessors ("batch" / "service")
    # ------------------------------------------------------------------
    def role_names(self, role: str) -> list[str]:
        if role == "batch":
            return self.batch_scheduler_names
        if role == "service":
            return self.service_scheduler_names
        raise ValueError(f"role must be 'batch' or 'service', got {role!r}")

    def mean_wait(self, job_type: JobType) -> float:
        """Overall average job wait time for a job type (paper's Fig 5)."""
        return self.metrics.mean_wait_time(job_type)

    def p90_wait(self, job_type: JobType) -> float:
        return self.metrics.p90_wait_time(job_type)

    def busyness(self, role: str) -> float:
        """Median daily busyness, averaged over the role's schedulers
        (Figure 9b plots this as "mean sched. busyness")."""
        names = self.role_names(role)
        values = [self.metrics.median_busyness(n, self.horizon) for n in names]
        return sum(values) / len(values)

    def busyness_mad(self, role: str) -> float:
        names = self.role_names(role)
        values = [self.metrics.mad_busyness(n, self.horizon) for n in names]
        return sum(values) / len(values)

    def noconflict_busyness(self, role: str) -> float:
        """The Figure 12c "no conflicts" approximation: busyness with
        conflict-retry rework excluded."""
        names = self.role_names(role)
        values = [
            self.metrics.median_productive_busyness(n, self.horizon) for n in names
        ]
        return sum(values) / len(values)

    def conflict_fraction(self, role: str) -> float:
        """Conflicts per successfully scheduled job, pooled over the
        role's schedulers for the whole run."""
        names = self.role_names(role)
        conflicts = 0
        scheduled = 0
        for name in names:
            per_scheduler = self.metrics.schedulers[name]
            conflicts += sum(per_scheduler.conflicts.values())
            scheduled += sum(per_scheduler.jobs_scheduled.values())
        if scheduled == 0:
            return float("nan")
        return conflicts / scheduled

    def abandoned(self, role: str) -> int:
        return sum(self.metrics.abandoned(n) for n in self.role_names(role))

    def preemptions_caused(self, role: str) -> int:
        """Tasks this role's schedulers evicted from lower-precedence jobs."""
        return sum(
            self.metrics.schedulers[n].preemptions_caused
            for n in self.role_names(role)
        )

    def tasks_lost_to_preemption(self, role: str) -> int:
        """This role's running tasks evicted by higher-precedence jobs."""
        return sum(
            self.metrics.schedulers[n].tasks_lost_to_preemption
            for n in self.role_names(role)
        )

    # ------------------------------------------------------------------
    # Per-scheduler accessors (Figure 13 plots Batch 0/1/2 separately)
    # ------------------------------------------------------------------
    def scheduler_busyness(self, name: str) -> float:
        return self.metrics.median_busyness(name, self.horizon)

    def scheduler_wait_mean(self, name: str) -> float:
        return self.metrics.mean_scheduler_wait_time(name)

    def scheduler_wait_p90(self, name: str) -> float:
        return percentile(self.metrics.scheduler_wait_times(name), 90.0)

    # ------------------------------------------------------------------
    # Saturation
    # ------------------------------------------------------------------
    @property
    def unscheduled_fraction(self) -> float:
        """Fraction of submitted jobs not fully scheduled by the end
        (abandoned or stuck in queues) — the saturation indicator behind
        Figure 8's dashed lines and Figure 10's red shading."""
        if self.jobs_submitted == 0:
            return 0.0
        return 1.0 - self.jobs_scheduled / self.jobs_submitted

    def saturated(self, threshold: float = 0.05) -> bool:
        return self.unscheduled_fraction > threshold
