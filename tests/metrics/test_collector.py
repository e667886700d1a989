"""Tests for the metrics collector: busyness bucketing, conflict
fraction, wait times."""

import math
import os
import subprocess
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import MetricsCollector, RunSummary
from repro.workload.job import JobType
from tests.conftest import make_job


@pytest.fixture
def collector():
    return MetricsCollector(period=100.0)


def summary(collector):
    """The collector's one reader, over a single scheduler ``s``."""
    return RunSummary(
        metrics=collector,
        horizon=100.0,
        batch_scheduler_names=["s"],
        service_scheduler_names=["s"],
        final_cpu_utilization=0.0,
        sim_stats={"events_processed": 0},
    )


class TestBusyness:
    def test_single_interval(self, collector):
        collector.record_busy("s", 10.0, 60.0)
        assert collector.busyness_series("s", 100.0) == [0.5]

    def test_interval_split_across_buckets(self, collector):
        collector.record_busy("s", 90.0, 120.0)
        series = collector.busyness_series("s", 200.0)
        assert series == pytest.approx([0.1, 0.2])

    def test_partial_final_bucket_normalized(self, collector):
        collector.record_busy("s", 100.0, 125.0)
        series = collector.busyness_series("s", 150.0)
        assert series == pytest.approx([0.0, 0.5])

    def test_exact_multiple_horizon_has_no_empty_bucket(self, collector):
        collector.record_busy("s", 0.0, 100.0)
        assert len(collector.busyness_series("s", 400.0)) == 4

    def test_inexact_period_boundary_terminates(self):
        """Regression: when ``(b + 1) * period`` rounds to a cursor that
        ``//`` still puts in bucket ``b``, the split loop used to spin
        forever. Run out of process so a regression fails, not hangs."""
        code = (
            "from repro.metrics import MetricsCollector\n"
            "p = 1337.1743469265832\n"
            "c = MetricsCollector(period=p)\n"
            "c.record_busy('s', 130 * p - 1.0, 130 * p + 1.0)\n"
            "print(sorted(c.schedulers['s'].busy_time.items()))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[(129, 1.0), (130, 1.0)]"

    @given(
        period=st.floats(0.01, 1e5),
        boundary=st.integers(0, 5000),
        before=st.floats(0.0, 2.0),
        length=st.floats(0.0, 4.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_bucket_busy_times_sum_to_the_interval(
        self, period, boundary, before, length
    ):
        # Intervals that start near (often exactly on) a period boundary
        # and span up to four of them.
        start = max(0.0, boundary * period - before * period)
        end = start + length * period
        collector = MetricsCollector(period=period)
        collector.record_busy("s", start, end)
        busy = collector.schedulers["s"].busy_time
        assert all(chunk >= 0.0 for chunk in busy.values())
        assert math.fsum(busy.values()) == pytest.approx(
            end - start, rel=1e-9, abs=1e-9 * period
        )

    def test_large_horizon_float_precision(self):
        """Regression: horizons where eps(horizon) > 1e-12 used to
        produce a zero-length trailing bucket and divide by zero."""
        collector = MetricsCollector(period=5400.0)
        collector.record_busy("s", 0.0, 21600.0)
        series = collector.busyness_series("s", 21600.0)
        assert len(series) == 4
        assert series == pytest.approx([1.0] * 4)

    def test_median_and_mad(self, collector):
        collector.record_busy("s", 0.0, 10.0)  # bucket 0: 0.1
        collector.record_busy("s", 100.0, 130.0)  # bucket 1: 0.3
        collector.record_busy("s", 200.0, 250.0)  # bucket 2: 0.5
        assert collector.median_busyness("s", 300.0) == pytest.approx(0.3)
        assert collector.mad_busyness("s", 300.0) == pytest.approx(0.2)

    def test_unknown_scheduler_is_all_zero(self, collector):
        assert collector.busyness_series("ghost", 200.0) == [0.0, 0.0]

    def test_backwards_interval_rejected(self, collector):
        with pytest.raises(ValueError):
            collector.record_busy("s", 10.0, 5.0)

    def test_productive_excludes_conflict_retries(self, collector):
        collector.record_busy("s", 0.0, 40.0, conflict_retry=False)
        collector.record_busy("s", 40.0, 60.0, conflict_retry=True)
        assert collector.busyness_series("s", 100.0) == [0.6]
        assert collector.busyness_series("s", 100.0, productive=True) == [0.4]
        assert collector.median_busyness("s", 100.0, productive=True) == 0.4


class TestConflictFraction:
    def test_counts_conflicts_per_scheduled_job(self, collector):
        job = make_job()
        collector.record_commit("s", conflicted=True, time=10.0)
        collector.record_commit("s", conflicted=False, time=11.0)
        collector.record_scheduled("s", job, time=11.0)
        assert collector.conflict_fraction_series("s", 100.0) == [1.0]
        assert collector.overall_conflict_fraction("s") == 1.0

    def test_zero_when_no_conflicts(self, collector):
        collector.record_scheduled("s", make_job(), time=5.0)
        assert collector.overall_conflict_fraction("s") == 0.0

    def test_nan_when_nothing_scheduled(self, collector):
        assert math.isnan(collector.overall_conflict_fraction("s"))

    def test_median_daily(self, collector):
        for bucket, conflicts in enumerate([0, 2, 4]):
            for _ in range(conflicts):
                collector.record_commit("s", True, time=bucket * 100.0 + 1)
            collector.record_scheduled("s", make_job(), time=bucket * 100.0 + 2)
        assert collector.median_conflict_fraction("s", 300.0) == 2.0

    def test_commit_counters(self, collector):
        collector.record_commit("s", True, 0.0)
        collector.record_commit("s", False, 0.0)
        per = collector.schedulers["s"]
        assert per.transactions_attempted == 2
        assert per.transactions_committed == 1


class TestWaitTimes:
    def test_wait_recorded_per_type_and_scheduler(self, collector):
        job = make_job(job_type=JobType.SERVICE, submit_time=5.0)
        job.mark_first_attempt(15.0)
        collector.record_first_attempt("s", job)
        assert list(collector.wait_times(JobType.SERVICE)) == [10.0]
        assert summary(collector).mean_wait(JobType.SERVICE) == 10.0
        assert list(collector.scheduler_wait_times("s")) == [10.0]
        assert summary(collector).scheduler_wait_mean("s") == 10.0

    def test_waits_are_packed_copies(self, collector):
        for submit_time in (5.0, 7.0):
            job = make_job(job_type=JobType.BATCH, submit_time=submit_time)
            job.mark_first_attempt(15.0)
            collector.record_first_attempt("s", job)
        for read in (
            lambda: collector.wait_times(JobType.BATCH),
            lambda: collector.scheduler_wait_times("s"),
        ):
            waits = read()
            assert type(waits) is array and waits.typecode == "d"
            waits[0] = -1.0
            assert list(read()) == [10.0, 8.0]

    def test_mean_wait_nan_when_empty(self, collector):
        assert math.isnan(summary(collector).mean_wait(JobType.BATCH))
        assert math.isnan(summary(collector).scheduler_wait_mean("s"))

    def test_p90(self, collector):
        for wait in range(1, 11):
            job = make_job(submit_time=0.0)
            job.mark_first_attempt(float(wait))
            collector.record_first_attempt("s", job)
        assert summary(collector).p90_wait(JobType.BATCH) == pytest.approx(9.1)


class TestCounters:
    def test_submission_and_scheduled_totals(self, collector):
        job = make_job(num_tasks=7)
        collector.record_submission(job)
        collector.record_scheduled("s", job, time=0.0)
        assert collector.jobs_submitted == 1
        assert collector.jobs_scheduled_total == 1
        assert collector.tasks_scheduled_total == 7

    def test_abandoned(self, collector):
        collector.record_abandoned("s", make_job())
        assert collector.schedulers["s"].jobs_abandoned == 1
        assert collector.jobs_abandoned_total == 1

    def test_scheduler_names_sorted(self, collector):
        collector.record_busy("zeta", 0.0, 1.0)
        collector.record_busy("alpha", 0.0, 1.0)
        assert collector.scheduler_names() == ["alpha", "zeta"]

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            MetricsCollector(period=0.0)


class TestEscalationMetrics:
    def test_escalation_latency_histogram_per_policy(self, collector):
        collector.record_escalated("s", attempts=4, policy="starvation")
        collector.record_escalated("s", attempts=6, policy="starvation")
        collector.record_escalated("s", attempts=2)
        histograms = {
            (metric.name, tuple(sorted(metric.labels.items()))): metric
            for metric in collector.histograms()
        }
        starvation = histograms[
            (
                "jobs.attempts_until_escalation",
                (("policy", "starvation"), ("scheduler", "s")),
            )
        ]
        assert starvation.summary()["count"] == 2
        assert starvation.summary()["mean"] == pytest.approx(5.0)
        unlabelled = histograms[
            (
                "jobs.attempts_until_escalation",
                (("policy", "none"), ("scheduler", "s")),
            )
        ]
        assert unlabelled.summary()["count"] == 1
