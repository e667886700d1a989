"""Post-hoc analysis of recorded traces.

Turns a stream of trace records (in memory or loaded from JSONL via
:func:`repro.obs.export.read_jsonl`) into the run-level views the
``omega-sim trace`` subcommand prints:

* **per-scheduler rollup** — transaction attempts, conflicted commits,
  conflict fraction (conflicted commits per scheduled job, matching
  :meth:`MetricsCollector.overall_conflict_fraction`), busy time split
  into productive work and conflict-retry rework;
* **conflict timelines** — conflicted commits per simulated-time bin
  per scheduler;
* **retry chains** — the jobs with the most attempts, with their
  conflicts and outcome, which is how you answer "*why* did job 17
  take 14 attempts?";
* **contended machines** — the top-K machines by fine-grained commit
  rejections, the ``conflicts`` of ``sched.attempt`` records (events,
  rejected tasks, and the stale-sequence / partial-capacity / capacity
  cause split);
* **timeline series** — the ``timeline.*`` samples recorded by
  :mod:`repro.obs.timeline` (utilization, busy fraction, conflict
  rate over simulated time), grouped per run and per scheduler;
* **wait-time percentiles** — p50/p90/p99/p99.9 per scheduler, merged
  from the histogram states each run's ``run.metrics`` record carries;
* **engine rows** — one per run, the event loop's own statistics from
  its ``run.end`` record (events processed, peak queue depth, wall ms).
"""

from __future__ import annotations

import math
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.metrics.ascii_chart import format_table
from repro.obs.histogram import Histogram

#: The ``run.end`` fields an engine row shows: ``Simulator.stats()``,
#: with wall time in milliseconds.
ENGINE_FIELDS = ("events_processed", "pending_events", "peak_queue_depth", "sim_now", "wall_ms")


@dataclass
class SchedulerSummary:
    """Rollup of one scheduler's trace records."""

    name: str
    txn_attempts: int = 0
    txn_conflicted: int = 0
    busy_seconds: float = 0.0
    busy_conflict_seconds: float = 0.0
    jobs_scheduled: int = 0
    jobs_abandoned: int = 0
    conflict_times: list[float] = field(default_factory=list)

    @property
    def conflict_fraction(self) -> float:
        """Conflicted commit attempts per successfully scheduled job."""
        if self.jobs_scheduled == 0:
            return float("nan")
        return self.txn_conflicted / self.jobs_scheduled


@dataclass
class JobSummary:
    """One job's path through the scheduler(s).

    ``job_id`` is the raw integer for single-run traces and the
    run-prefixed string (``run2/17``) when several runs share a trace.
    """

    job_id: int | str
    sched: str | None = None
    attempts: int = 0
    conflicts: int = 0
    scheduled: bool = False
    abandoned: bool = False
    first_t: float | None = None
    last_t: float | None = None

    def _touch(self, t: float | None, sched: str | None, attempt: int | None) -> None:
        if sched is not None:
            self.sched = sched
        if attempt is not None and attempt > self.attempts:
            self.attempts = attempt
        if t is not None:
            if self.first_t is None or t < self.first_t:
                self.first_t = t
            if self.last_t is None or t > self.last_t:
                self.last_t = t


class TraceSummary:
    """Aggregated view of one trace (possibly spanning several runs).

    When one JSONL file carries more than one run (a sweep, a federated
    run's member cells, back-to-back ``omega`` invocations appending to
    the same trace), scheduler names and job ids restart per run and
    would silently roll up together. Multi-run traces therefore prefix
    every rollup key with its run index (``run2/omega-batch``,
    ``run2/17``); single-run traces keep bare names, byte-identical to
    the historical output.
    """

    def __init__(self) -> None:
        self.records = 0
        self.runs = 0
        #: Set by :meth:`from_records` when the trace holds >1 run.
        self._prefix_runs = False
        self.record_names: TallyCounter[str] = TallyCounter()
        self.schedulers: dict[str, SchedulerSummary] = {}
        self.jobs: dict[int | str, JobSummary] = {}
        self.max_t = 0.0
        #: ``timeline.cell`` samples: ``{"t", "run", ...fields}`` dicts.
        self.timeline_cell: list[dict[str, Any]] = []
        #: ``timeline.sched`` samples keyed by scheduler name.
        self.timeline_sched: dict[str, list[dict[str, Any]]] = {}
        #: Wait-time (etc.) histograms merged from ``run.metrics``
        #: records, keyed by (metric name, sorted label items).
        self.histograms: dict[tuple[str, tuple[tuple[str, str], ...]], Histogram] = {}
        #: Per-machine conflict tallies (``sched.attempt`` ``conflicts``):
        #: machine -> {"events", "tasks", "<cause>": events}.
        self.machine_conflicts: dict[int, dict[str, int]] = {}
        #: One row per ``run.end`` record: ``{"run", *ENGINE_FIELDS}``.
        self.engine_rows: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Iterable[dict[str, Any]], origins: Iterable[str] = ()
    ) -> "TraceSummary":
        """Summarize ``records``; ``origins`` (``path:line`` per record)
        prefix the ``ValueError`` of a record the summary cannot read."""
        summary = cls()
        records = list(records)
        total_runs = sum(
            1 for record in records if record.get("name") == "run.start"
        )
        summary._prefix_runs = total_runs > 1
        origins = list(origins)
        for index, record in enumerate(records):
            try:
                summary._ingest(record)
            except ValueError as exc:
                if not origins:
                    raise
                raise ValueError(f"{origins[index]}: {exc}") from exc
        return summary

    def _sched(self, name: str) -> SchedulerSummary:
        entry = self.schedulers.get(name)
        if entry is None:
            entry = self.schedulers[name] = SchedulerSummary(name)
        return entry

    def _job(self, job_id: int | str) -> JobSummary:
        entry = self.jobs.get(job_id)
        if entry is None:
            entry = self.jobs[job_id] = JobSummary(job_id)
        return entry

    def _ingest(self, record: dict[str, Any]) -> None:
        self.records += 1
        name = record.get("name", "?")
        self.record_names[name] += 1
        t = record.get("t")
        if t is not None and t > self.max_t:
            self.max_t = t
        sched = record.get("sched")
        job_id = record.get("job")
        fields = record.get("fields") or {}

        if name == "run.start":
            self.runs += 1
            return
        if name == "run.end":
            row = {key: fields.get(key) for key in ENGINE_FIELDS}
            self.engine_rows.append({"run": self.runs, **row})
            return
        if self._prefix_runs:
            # Several runs share this trace: scheduler names and job ids
            # restart per run, so every rollup key gets its run index.
            if sched is not None:
                sched = f"run{self.runs}/{sched}"
            if job_id is not None:
                job_id = f"run{self.runs}/{job_id}"
        if name == "timeline.cell":
            self.timeline_cell.append({"t": t, "run": self.runs, **fields})
            return
        if name == "timeline.sched" and sched is not None:
            series = self.timeline_sched.setdefault(sched, [])
            series.append({"t": t, "run": self.runs, **fields})
            return
        if name == "run.metrics":
            entries = fields.get("histograms", [])
            for entry in entries if isinstance(entries, list) else [None]:
                labels = (entry.get("labels") or {}) if isinstance(entry, dict) else None
                if not isinstance(labels, dict) or not isinstance(entry.get("name"), str):
                    raise ValueError("run.metrics histograms need a name and labels each")
                if self._prefix_runs and "scheduler" in labels:
                    labels = {
                        **labels,
                        "scheduler": f"run{self.runs}/{labels['scheduler']}",
                    }
                key = (entry["name"], tuple(sorted(labels.items())))
                histogram = self.histograms.get(key)
                if histogram is None:
                    self.histograms[key] = Histogram.from_state(
                        entry.get("state"), name=entry["name"], labels=dict(labels)
                    )
                else:
                    histogram.merge_state(entry.get("state"))
            return
        attempt = record.get("attempt")
        if name == "sched.attempt":
            self._ingest_attempt(t, sched, job_id, attempt, fields)
            return
        if job_id is not None:
            self._job(job_id)._touch(t, sched, attempt)
        # An offer opens its framework's rollup row, attempt or not.
        if name == "mesos.offer_issued":
            framework = fields.get("framework")
            if framework is not None:
                if self._prefix_runs:
                    framework = f"run{self.runs}/{framework}"
                self._sched(framework)
        elif name == "mesos.offer_declined" and sched is not None:
            self._sched(sched)

    def _ingest_attempt(
        self,
        t: float | None,
        sched: str | None,
        job_id: int | str | None,
        attempt: int | None,
        fields: dict[str, Any],
    ) -> None:
        """One ``sched.attempt`` record: busy time, the commit (if one
        was issued), its conflicts, and the outcome."""
        start = fields.get("t0")
        job = None
        if job_id is not None:
            job = self._job(job_id)
            job._touch(start, sched, attempt)
            job._touch(t, sched, attempt)
        if sched is None:
            return
        entry = self._sched(sched)
        if t is not None and start is not None:
            entry.busy_seconds += t - start
            if fields.get("conflict_retry"):
                entry.busy_conflict_seconds += t - start
        if "claims" in fields:
            entry.txn_attempts += 1
            conflicted = bool(fields.get("conflicted"))
            if conflicted:
                entry.txn_conflicted += 1
                if t is not None:
                    entry.conflict_times.append(t)
            if job is not None and conflicted:
                job.conflicts += 1
        for machine, tasks, cause in fields.get("conflicts", ()):
            tally = self.machine_conflicts.get(machine)
            if tally is None:
                tally = self.machine_conflicts[machine] = {"events": 0, "tasks": 0}
            tally["events"] += 1
            tally["tasks"] += tasks
            tally[cause] = tally.get(cause, 0) + 1
        outcome = fields.get("outcome")
        if outcome == "scheduled":
            entry.jobs_scheduled += 1
            if job is not None:
                job.scheduled = True
        elif outcome == "abandoned":
            entry.jobs_abandoned += 1
            if job is not None:
                job.abandoned = True

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def scheduler_names(self) -> list[str]:
        return sorted(self.schedulers)

    def conflict_timeline(
        self, scheduler: str, bins: int = 12, horizon: float | None = None
    ) -> list[tuple[float, int]]:
        """Conflicted commits per time bin: ``[(bin_start, count), ...]``."""
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        span = horizon if horizon is not None else self.max_t
        if span <= 0:
            span = 1.0
        width = span / bins
        counts = [0] * bins
        for t in self._sched(scheduler).conflict_times:
            index = min(int(t / width), bins - 1)
            counts[index] += 1
        return [(i * width, counts[i]) for i in range(bins)]

    def percentile_rows(self) -> list[dict[str, Any]]:
        """Per-scheduler wait-time percentile rows (p50/p90/p99/p99.9).

        Sourced from the ``jobs.wait_seconds`` histograms that each
        run's ``run.metrics`` record serializes; empty when the trace
        predates that record (older traces still summarize fine).
        """
        rows = []
        for (name, label_items), histogram in sorted(self.histograms.items()):
            if name != "jobs.wait_seconds":
                continue
            labels = dict(label_items)
            summary = histogram.summary()
            rows.append(
                {
                    "scheduler": labels.get("scheduler", "?"),
                    "count": summary["count"],
                    "mean_s": summary["mean"],
                    "p50_s": summary["p50"],
                    "p90_s": summary["p90"],
                    "p99_s": summary["p99"],
                    "p999_s": summary["p999"],
                    "max_s": summary["max"],
                }
            )
        return rows

    def escalation_rows(self) -> list[dict[str, Any]]:
        """Per-(scheduler, policy) escalation-latency rows.

        Sourced from the ``jobs.attempts_until_escalation`` histograms
        each run's ``run.metrics`` record serializes: how many attempts
        a job burned before its gang→incremental escalation, which is
        how two ``escalate_after`` settings are compared head-to-head.
        """
        rows = []
        for (name, label_items), histogram in sorted(self.histograms.items()):
            if name != "jobs.attempts_until_escalation":
                continue
            labels = dict(label_items)
            summary = histogram.summary()
            rows.append(
                {
                    "scheduler": labels.get("scheduler", "?"),
                    "policy": labels.get("policy", "?"),
                    "escalations": summary["count"],
                    "mean_attempts": summary["mean"],
                    "p50": summary["p50"],
                    "p90": summary["p90"],
                    "max": summary["max"],
                }
            )
        return rows

    def contended_machine_rows(self, top_n: int = 10) -> list[dict[str, Any]]:
        """The ``top_n`` machines by fine-grained conflict rejections.

        Ranked by rejected tasks (events as the tie-break, machine id as
        the final deterministic tie-break), with the cause split the
        ``sched.attempt`` conflicts name: where contention was
        measured, machine by machine.
        """
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        ranked = sorted(
            self.machine_conflicts.items(),
            key=lambda item: (-item[1]["tasks"], -item[1]["events"], item[0]),
        )
        return [
            {
                "machine": machine,
                "events": entry["events"],
                "tasks": entry["tasks"],
                "stale_sequence": entry.get("stale_sequence", 0),
                "partial_capacity": entry.get("partial_capacity", 0),
                "capacity": entry.get("capacity", 0),
            }
            for machine, entry in ranked[:top_n]
        ]

    def retry_chains(self, top_n: int = 5) -> list[JobSummary]:
        """The ``top_n`` jobs with the most attempts, longest first."""
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        ranked = sorted(
            self.jobs.values(), key=lambda j: (j.attempts, j.conflicts), reverse=True
        )
        return ranked[:top_n]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def scheduler_rows(self) -> list[dict[str, Any]]:
        rows = []
        for name in self.scheduler_names():
            entry = self.schedulers[name]
            rows.append(
                {
                    "scheduler": name,
                    "txns": entry.txn_attempts,
                    "conflicted": entry.txn_conflicted,
                    "conflict_frac": entry.conflict_fraction,
                    "jobs": entry.jobs_scheduled,
                    "abandoned": entry.jobs_abandoned,
                    "busy_s": entry.busy_seconds,
                    "retry_busy_s": entry.busy_conflict_seconds,
                }
            )
        return rows

    def render(self, top_jobs: int = 5, bins: int = 12) -> str:
        """The full ``omega-sim trace`` report as text."""
        lines = [
            f"trace summary: {self.records} records, "
            f"{self.runs} run(s), max sim time t={self.max_t:.1f}s"
        ]
        names = ", ".join(
            f"{name}={count}" for name, count in sorted(self.record_names.items())
        )
        lines.append(f"record counts: {names}")
        if self.engine_rows:
            lines.append("")
            lines.append("engine statistics (one row per run):")
            lines.append(format_table(self.engine_rows))

        if self.schedulers:
            lines.append("")
            lines.append("per-scheduler rollup:")
            lines.append(format_table(self.scheduler_rows()))

            percentiles = self.percentile_rows()
            if percentiles:
                lines.append("")
                lines.append("per-scheduler wait-time percentiles (seconds):")
                lines.append(format_table(percentiles))

            timelines = [
                (name, self.conflict_timeline(name, bins=bins))
                for name in self.scheduler_names()
                if self.schedulers[name].txn_conflicted
            ]
            if timelines:
                lines.append("")
                lines.append(f"conflict timeline (conflicted commits per {bins} bins):")
                peak = max(
                    count for _, timeline in timelines for _, count in timeline
                )
                for name, timeline in timelines:
                    bars = "".join(
                        _spark_char(count, peak) for _, count in timeline
                    )
                    total = sum(count for _, count in timeline)
                    lines.append(f"  {name:<24} |{bars}| {total} conflicts")

        escalations = self.escalation_rows()
        if escalations:
            lines.append("")
            lines.append("escalation latency (attempts until gang→incremental):")
            lines.append(format_table(escalations))

        contended = self.contended_machine_rows()
        if contended:
            lines.append("")
            lines.append("top contended machines (commit conflict rejections):")
            lines.append(format_table(contended))

        chains = [job for job in self.retry_chains(top_jobs) if job.attempts > 0]
        if chains:
            lines.append("")
            lines.append("longest retry chains:")
            for job in chains:
                status = (
                    "scheduled"
                    if job.scheduled
                    else "abandoned"
                    if job.abandoned
                    else "in flight"
                )
                lines.append(
                    f"  job {job.job_id} ({job.sched}): {job.attempts} attempts, "
                    f"{job.conflicts} conflicts, {status}"
                    + (f" at t={job.last_t:.1f}s" if job.last_t is not None else "")
                )
        if self.timeline_cell:
            lines.append("")
            lines.append(
                f"timeline: {len(self.timeline_cell)} samples over "
                f"{len(self.timeline_sched)} scheduler series "
                "(chart them with `omega-sim perfetto`)"
            )
        return "\n".join(lines)

    def json_rollup(self, top_jobs: int = 5, bins: int = 12) -> dict[str, Any]:
        """The machine-readable ``omega-sim trace --json`` document.

        Mirrors :meth:`render` section by section. NaN/inf never appear
        (they are not valid JSON): missing values serialize as null.
        """
        chains = [
            {
                "job": job.job_id,
                "scheduler": job.sched,
                "attempts": job.attempts,
                "conflicts": job.conflicts,
                "scheduled": job.scheduled,
                "abandoned": job.abandoned,
                "first_t": job.first_t,
                "last_t": job.last_t,
            }
            for job in self.retry_chains(top_jobs)
            if job.attempts > 0
        ]
        document = {
            "records": self.records,
            "runs": self.runs,
            "max_t": self.max_t,
            "record_names": dict(sorted(self.record_names.items())),
            "engine_rows": self.engine_rows,
            "scheduler_rows": self.scheduler_rows(),
            "percentile_rows": self.percentile_rows(),
            "conflict_timelines": {
                name: [
                    {"bin_start": start, "conflicts": count}
                    for start, count in self.conflict_timeline(name, bins=bins)
                ]
                for name in self.scheduler_names()
                if self.schedulers[name].txn_conflicted
            },
            "retry_chains": chains,
            "escalation_rows": self.escalation_rows(),
            "contended_machines": self.contended_machine_rows(),
            "timeline": {
                "cell": self.timeline_cell,
                "schedulers": {
                    name: self.timeline_sched[name]
                    for name in sorted(self.timeline_sched)
                },
            },
        }
        return json_safe(document)


def json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats with None (valid JSON)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_safe(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(inner) for inner in value]
    return value


_SPARK_LEVELS = " .:-=+*#%@"


def _spark_char(count: int, peak: int) -> str:
    if peak <= 0 or count <= 0:
        return _SPARK_LEVELS[0]
    index = 1 + int((count / peak) * (len(_SPARK_LEVELS) - 2))
    return _SPARK_LEVELS[min(index, len(_SPARK_LEVELS) - 1)]


def summarize_file(*paths: str) -> TraceSummary:
    """Load JSONL traces, in order, as one trace and summarize it (the
    summary of their concatenation); a bad record raises ``ValueError``
    naming ``path:line``, and input without a run ``ValueError`` naming
    the files."""
    from repro.obs.export import read_trace

    numbered = read_trace(*paths)
    return TraceSummary.from_records(
        (record for _, record in numbered),
        origins=(origin for origin, _ in numbered),
    )
