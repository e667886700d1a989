"""The metrics collector shared by all simulated scheduler architectures.

Schedulers report busy intervals, commit outcomes, scheduled and
abandoned jobs; each count is kept once, here, and the quantities the
tables report are derived from it in :mod:`repro.metrics.results`. "Our
values for scheduler busyness and conflict fraction are medians of the
daily values, and wait time values are overall averages" (paper
section 4).

For scaled-down runs the aggregation *period* is configurable (a
two-hour run can use 30-minute "days"); the statistics keep the paper's
structure either way.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

from repro.metrics.stats import mad, median
from repro.obs.histogram import Histogram
from repro.workload.job import Job, JobType


@dataclass
class SchedulerMetrics:
    """Raw per-scheduler counters, bucketed by aggregation period."""

    busy_time: dict[int, float] = field(default_factory=lambda: defaultdict(float))
    #: Busy time excluding conflict-retry attempts — the "no conflicts"
    #: approximation of Figure 12c.
    busy_time_productive: dict[int, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    jobs_scheduled: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    conflicts: dict[int, int] = field(default_factory=lambda: defaultdict(int))
    transactions_attempted: int = 0
    transactions_committed: int = 0
    jobs_abandoned: int = 0
    #: Abandonments split by terminal reason ("attempt-limit" for the
    #: generic ceiling, "conflict-cap" for a retry-policy verdict).
    abandoned_by_reason: dict[str, int] = field(default_factory=dict)
    #: Tasks this scheduler evicted from lower-precedence jobs.
    preemptions_caused: int = 0
    #: This scheduler's tasks evicted by higher-precedence jobs.
    tasks_lost_to_preemption: int = 0
    #: Fault-injection counters (see :mod:`repro.faults`).
    crashes: int = 0
    commits_dropped: int = 0
    #: Jobs switched to incremental commit mode by a
    #: starvation-escalation retry policy (paper section 3.6).
    jobs_escalated: int = 0


def _doubles() -> array:
    return array("d")


class MetricsCollector:
    """Collects and aggregates the paper's evaluation metrics."""

    def __init__(self, period: float = 86400.0) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self.schedulers: dict[str, SchedulerMetrics] = defaultdict(SchedulerMetrics)
        # Waits as packed C doubles (8 B each, no float object per job).
        self._wait_times: dict[JobType, array] = {
            job_type: array("d") for job_type in JobType
        }
        self._per_scheduler_waits: dict[str, array] = defaultdict(_doubles)
        #: Attempt counts at escalation per ``(scheduler, policy)``.
        self._escalation_attempts: dict[tuple[str, str], list[int]] = defaultdict(list)
        self.jobs_submitted = 0
        self.jobs_scheduled_total = 0
        self.jobs_abandoned_total = 0
        self.tasks_scheduled_total = 0
        #: Machine failures injected by :mod:`repro.faults`.
        self.machine_failures = 0

    # ------------------------------------------------------------------
    # Recording (called by schedulers)
    # ------------------------------------------------------------------
    def _bucket(self, time: float) -> int:
        return int(time // self.period)

    def _num_buckets(self, horizon: float) -> int:
        """Number of (possibly partial) periods covering ``[0, horizon)``.

        Uses a relative epsilon so a horizon that is an exact multiple of
        the period yields exactly ``horizon / period`` buckets instead of
        a trailing zero-length one.
        """
        ratio = horizon / self.period
        nearest = round(ratio)
        if nearest >= 1 and abs(ratio - nearest) < 1e-9 * max(1.0, ratio):
            return int(nearest)
        return max(1, math.ceil(ratio))

    def record_submission(self, job: Job) -> None:
        self.jobs_submitted += 1

    def record_first_attempt(self, scheduler: str, job: Job) -> None:
        """Record the job's wait time the moment its first attempt starts."""
        wait = job.wait_time
        if wait is None:  # pragma: no cover - callers mark first; guard anyway
            return
        if wait < 0:
            raise ValueError(
                f"negative wait time {wait} for job {job.job_id} "
                f"(first attempt before submission?)"
            )
        self._wait_times[job.job_type].append(wait)
        self._per_scheduler_waits[scheduler].append(wait)

    def record_busy(
        self, scheduler: str, start: float, end: float, conflict_retry: bool = False
    ) -> None:
        """Accumulate a busy interval, split across period boundaries.

        ``conflict_retry`` marks rework caused by a commit conflict; it
        counts toward busyness but not toward the productive ("no
        conflicts") busyness approximation.

        Negative times are rejected loudly: a negative ``start`` would
        land in bucket -1 and silently corrupt every period aggregate.
        """
        if start < 0:
            raise ValueError(f"negative busy-interval start: {start}")
        if end < start:
            raise ValueError(f"busy interval ends before it starts: {start}..{end}")
        metrics = self.schedulers[scheduler]
        cursor = start
        # Step the bucket rather than recompute it from the cursor: a
        # boundary ``(b + 1) * period`` that is not exactly representable
        # can floor-divide back into bucket ``b``, and the loop would
        # never advance.
        bucket = self._bucket(start)
        while cursor < end:
            chunk_end = min(end, (bucket + 1) * self.period)
            if chunk_end > cursor:
                metrics.busy_time[bucket] += chunk_end - cursor
                if not conflict_retry:
                    metrics.busy_time_productive[bucket] += chunk_end - cursor
                cursor = chunk_end
            bucket += 1

    def record_commit(self, scheduler: str, conflicted: bool, time: float) -> None:
        """Record one transaction attempt and whether it conflicted."""
        if time < 0:
            raise ValueError(f"negative commit time: {time}")
        metrics = self.schedulers[scheduler]
        metrics.transactions_attempted += 1
        if conflicted:
            metrics.conflicts[self._bucket(time)] += 1
        else:
            metrics.transactions_committed += 1

    def record_scheduled(self, scheduler: str, job: Job, time: float) -> None:
        """Record that a job finished scheduling (all tasks placed)."""
        if time < 0:
            raise ValueError(f"negative scheduling time: {time}")
        metrics = self.schedulers[scheduler]
        metrics.jobs_scheduled[self._bucket(time)] += 1
        self.jobs_scheduled_total += 1
        self.tasks_scheduled_total += job.num_tasks

    def record_abandoned(
        self, scheduler: str, job: Job, reason: str = "attempt-limit"
    ) -> None:
        """Record a job reaching the explicit abandoned terminal state.

        ``reason`` distinguishes the generic attempt-limit ceiling from
        a retry policy's conflict cap, so permanently-conflicting jobs
        are visible in the tables rather than lumped together.
        """
        metrics = self.schedulers[scheduler]
        metrics.jobs_abandoned += 1
        metrics.abandoned_by_reason[reason] = (
            metrics.abandoned_by_reason.get(reason, 0) + 1
        )
        self.jobs_abandoned_total += 1

    # ------------------------------------------------------------------
    # Fault injection (called by the chaos engine and schedulers)
    # ------------------------------------------------------------------
    def record_machine_failure(self) -> None:
        """A chaos-injected machine failure."""
        self.machine_failures += 1

    def record_scheduler_crash(self, scheduler: str) -> None:
        """``scheduler`` crashed, losing its in-flight transaction."""
        self.schedulers[scheduler].crashes += 1

    def record_commit_dropped(self, scheduler: str) -> None:
        """One of ``scheduler``'s commits was dropped in flight."""
        self.schedulers[scheduler].commits_dropped += 1

    def record_escalated(
        self, scheduler: str, attempts: int | None = None, policy: str | None = None
    ) -> None:
        """A retry policy escalated one job to incremental commits.

        ``attempts`` is the job's attempt count at escalation time; it
        feeds the per-policy escalation-latency histogram
        (``jobs.attempts_until_escalation``), which shows how early each
        ``escalate_after`` setting switches a job to incremental commits.
        """
        self.schedulers[scheduler].jobs_escalated += 1
        if attempts is not None:
            self._escalation_attempts[scheduler, policy or "none"].append(attempts)

    def record_preemption_caused(self, preemptor: str, tasks: int) -> None:
        """``preemptor`` evicted ``tasks`` lower-precedence tasks."""
        if tasks < 0:
            raise ValueError(f"tasks must be >= 0, got {tasks}")
        self.schedulers[preemptor].preemptions_caused += tasks

    def record_preemption_victim(self, victim: str, tasks: int) -> None:
        """``victim`` lost ``tasks`` running tasks to preemption."""
        if tasks < 0:
            raise ValueError(f"tasks must be >= 0, got {tasks}")
        self.schedulers[victim].tasks_lost_to_preemption += tasks

    # ------------------------------------------------------------------
    # Queries (called by experiments)
    # ------------------------------------------------------------------
    def busyness_series(
        self, scheduler: str, horizon: float, productive: bool = False
    ) -> list[float]:
        """Per-period busyness (busy fraction); the final partial period
        is normalized by its elapsed length. ``productive`` excludes
        conflict-retry rework."""
        metrics = self.schedulers[scheduler]
        if horizon <= 0:
            return []
        busy_time = metrics.busy_time_productive if productive else metrics.busy_time
        series = []
        for bucket in range(self._num_buckets(horizon)):
            length = min(self.period, horizon - bucket * self.period)
            series.append(busy_time.get(bucket, 0.0) / length)
        return series

    def median_busyness(
        self, scheduler: str, horizon: float, productive: bool = False
    ) -> float:
        return median(self.busyness_series(scheduler, horizon, productive))

    def mad_busyness(self, scheduler: str, horizon: float) -> float:
        return mad(self.busyness_series(scheduler, horizon))

    def conflict_fraction_series(self, scheduler: str, horizon: float) -> list[float]:
        """Per-period conflicts per successfully scheduled job."""
        metrics = self.schedulers[scheduler]
        if horizon <= 0:
            return []
        series = []
        for bucket in range(self._num_buckets(horizon)):
            scheduled = metrics.jobs_scheduled.get(bucket, 0)
            conflicts = metrics.conflicts.get(bucket, 0)
            if scheduled > 0:
                series.append(conflicts / scheduled)
            elif conflicts == 0:
                series.append(0.0)
            # Periods with conflicts but no completions are skipped:
            # there is no defined per-job ratio for them.
        return series

    def median_conflict_fraction(self, scheduler: str, horizon: float) -> float:
        return median(self.conflict_fraction_series(scheduler, horizon))

    def overall_conflict_fraction(self, scheduler: str) -> float:
        """Total conflicts per successfully scheduled job over the run."""
        metrics = self.schedulers[scheduler]
        scheduled = sum(metrics.jobs_scheduled.values())
        if scheduled == 0:
            return float("nan")
        return sum(metrics.conflicts.values()) / scheduled

    def wait_times(self, job_type: JobType) -> array:
        """The waits of ``job_type`` jobs in recorded order, as a packed copy."""
        return array("d", self._wait_times[job_type])

    def scheduler_wait_times(self, scheduler: str) -> array:
        """The waits of ``scheduler``'s jobs in recorded order, as a packed copy."""
        return array("d", self._per_scheduler_waits[scheduler])

    def histograms(self) -> list[Histogram]:
        """The per-scheduler ``jobs.wait_seconds`` and per-(scheduler,
        policy) ``jobs.attempts_until_escalation`` histograms, built on
        demand by observing the recorded values in recorded order and
        sorted by ``(name, labels)``. A series with no value has none:
        both stores are ``defaultdict``s that a mere read populates."""
        series = [
            ("jobs.wait_seconds", {"scheduler": scheduler}, waits)
            for scheduler, waits in self._per_scheduler_waits.items()
        ]
        series += [
            (
                "jobs.attempts_until_escalation",
                {"scheduler": scheduler, "policy": policy},
                attempts,
            )
            for (scheduler, policy), attempts in self._escalation_attempts.items()
        ]
        series.sort(key=lambda entry: (entry[0], sorted(entry[1].items())))
        histograms = []
        for name, labels, values in series:
            if values:
                histogram = Histogram(name, labels)
                for value in values:
                    histogram.observe(value)
                histograms.append(histogram)
        return histograms

    def abandoned_for_reason(self, reason: str) -> int:
        """Jobs abandoned for ``reason``, totalled across schedulers."""
        return sum(
            metrics.abandoned_by_reason.get(reason, 0)
            for _, metrics in sorted(self.schedulers.items())
        )

    def total(self, field: str) -> int:
        """One :class:`SchedulerMetrics` counter (``"crashes"``,
        ``"jobs_escalated"``, ...) totalled across schedulers."""
        return sum(getattr(metrics, field) for metrics in self.schedulers.values())

    def scheduler_names(self) -> list[str]:
        return sorted(self.schedulers)
