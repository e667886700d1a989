"""Run summaries: the one reader of the metrics collectors.

:class:`PooledSummary` writes each derived quantity the paper plots —
per-role busyness (median of daily values +- MAD), conflict fractions,
wait times (means and 90th percentiles), abandonment and saturation
indicators — once, over a list of cells. :class:`RunSummary` is the
one-cell case; :class:`repro.federation.harness.FederatedResult` the
N-cell case. Same operands in the same order either way, so a one-cell
federation returns the single-cell result float for float.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.metrics.collector import MetricsCollector, SchedulerMetrics
from repro.metrics.stats import mean, percentile
from repro.workload.job import JobType


class PooledSummary:
    """The derived metrics of one run, pooled over ``self.cell_results``."""

    cell_results: "list[RunSummary]"
    sim_stats: dict[str, float | int]

    def _waits(self, job_type: JobType) -> array:
        """Every cell's ``job_type`` waits, pooled in cell order: the
        first cell's packed copy, extended by the others' (one copy of
        a one-cell run's waits, not two)."""
        first, *others = self.cell_results
        waits = first.metrics.wait_times(job_type)
        for cell in others:
            waits += cell.metrics.wait_times(job_type)
        return waits

    def mean_wait(self, job_type: JobType) -> float:
        """Overall average job wait time for a job type (paper's Fig 5)."""
        return mean(self._waits(job_type))

    def p90_wait(self, job_type: JobType) -> float:
        return percentile(self._waits(job_type), 90.0)

    def _role_mean(self, role: str, statistic: Callable[..., float], **kwargs) -> float:
        """A per-scheduler daily statistic, averaged over every
        scheduler of the role."""
        values = [
            statistic(cell.metrics, name, cell.horizon, **kwargs)
            for cell in self.cell_results
            for name in cell.role_names(role)
        ]
        return sum(values) / len(values)

    def busyness(self, role: str) -> float:
        """Median daily busyness, averaged over the role's schedulers
        (Figure 9b plots this as "mean sched. busyness")."""
        return self._role_mean(role, MetricsCollector.median_busyness)

    def busyness_mad(self, role: str) -> float:
        return self._role_mean(role, MetricsCollector.mad_busyness)

    def noconflict_busyness(self, role: str) -> float:
        """The Figure 12c "no conflicts" approximation: busyness with
        conflict-retry rework excluded."""
        return self._role_mean(role, MetricsCollector.median_busyness, productive=True)

    def _role_schedulers(self, role: str) -> Iterator[SchedulerMetrics]:
        for cell in self.cell_results:
            for name in cell.role_names(role):
                yield cell.metrics.schedulers[name]

    def conflict_fraction(self, role: str) -> float:
        """Conflicts per successfully scheduled job, pooled over the
        role's schedulers for the whole run."""
        conflicts = 0
        scheduled = 0
        for per_scheduler in self._role_schedulers(role):
            conflicts += sum(per_scheduler.conflicts.values())
            scheduled += sum(per_scheduler.jobs_scheduled.values())
        if scheduled == 0:
            return float("nan")
        return conflicts / scheduled

    def role_total(self, role: str, counter: str) -> int:
        """One :class:`~repro.metrics.collector.SchedulerMetrics` counter
        (``"jobs_abandoned"``, ``"preemptions_caused"``,
        ``"tasks_lost_to_preemption"``) summed over the role's schedulers."""
        return sum(
            getattr(per_scheduler, counter)
            for per_scheduler in self._role_schedulers(role)
        )

    @property
    def jobs_submitted(self) -> int:
        return sum(cell.metrics.jobs_submitted for cell in self.cell_results)

    @property
    def jobs_scheduled(self) -> int:
        return sum(cell.metrics.jobs_scheduled_total for cell in self.cell_results)

    @property
    def jobs_abandoned(self) -> int:
        return sum(cell.metrics.jobs_abandoned_total for cell in self.cell_results)

    @property
    def events_processed(self) -> int:
        return self.sim_stats["events_processed"]

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


@dataclass
class RunSummary(PooledSummary):
    """Metrics of one simulation run."""

    metrics: MetricsCollector
    horizon: float
    batch_scheduler_names: list[str]
    service_scheduler_names: list[str]
    final_cpu_utilization: float
    #: Engine runtime statistics (:meth:`repro.sim.engine.Simulator.stats`):
    #: events processed, peak queue depth, wall seconds, final sim time.
    sim_stats: dict[str, float | int]
    utilization_series: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def cell_results(self) -> "list[RunSummary]":
        return [self]

    def role_names(self, role: str) -> list[str]:
        if role == "batch":
            return self.batch_scheduler_names
        if role == "service":
            return self.service_scheduler_names
        raise ValueError(f"role must be 'batch' or 'service', got {role!r}")

    # ------------------------------------------------------------------
    # Per-scheduler accessors (Figure 13 plots Batch 0/1/2 separately)
    # ------------------------------------------------------------------
    def scheduler_busyness(self, name: str) -> float:
        return self.metrics.median_busyness(name, self.horizon)

    def scheduler_wait_mean(self, name: str) -> float:
        return mean(self.metrics.scheduler_wait_times(name))

    def scheduler_wait_p90(self, name: str) -> float:
        return percentile(self.metrics.scheduler_wait_times(name), 90.0)
