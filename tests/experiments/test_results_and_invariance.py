"""Tests for the RunSummary accessors and the scaled-cell invariance
that justifies the benchmark methodology (DESIGN.md section 6)."""

import pytest

from repro.experiments.registry import run_point
from repro.experiments.sweeps import batch_load_points
from repro.metrics import MetricsCollector
from repro.metrics.results import RunSummary
from tests.conftest import make_job


def summary(metrics: MetricsCollector, horizon: float = 100.0) -> RunSummary:
    return RunSummary(
        metrics=metrics,
        horizon=horizon,
        batch_scheduler_names=["b0", "b1"],
        service_scheduler_names=["svc"],
        final_cpu_utilization=0.5,
        sim_stats={"events_processed": 0},
    )


class TestRunSummaryAccessors:
    def test_busyness_averages_over_role(self, metrics):
        metrics.record_busy("b0", 0.0, 20.0)
        metrics.record_busy("b1", 0.0, 40.0)
        result = summary(metrics)
        assert result.busyness("batch") == pytest.approx(0.3)

    def test_conflict_fraction_pools_schedulers(self, metrics):
        for name, conflicts in (("b0", 2), ("b1", 0)):
            for _ in range(conflicts):
                metrics.record_commit(name, True, 1.0)
            metrics.record_scheduled(name, make_job(), 1.0)
        result = summary(metrics)
        assert result.conflict_fraction("batch") == pytest.approx(1.0)

    def test_unscheduled_fraction(self, metrics):
        for index in range(10):
            metrics.record_submission(make_job())
            if index < 8:
                metrics.record_scheduled("b0", make_job(), 1.0)
        result = summary(metrics)
        assert (result.jobs_submitted, result.jobs_scheduled) == (10, 8)
        assert result.unscheduled_fraction == pytest.approx(0.2)
        assert result.saturated(threshold=0.1)
        assert not result.saturated(threshold=0.5)

    def test_role_validation(self, metrics):
        with pytest.raises(ValueError):
            summary(metrics).busyness("gpu")

    def test_noconflict_busyness_accessor(self, metrics):
        metrics.record_busy("svc", 0.0, 30.0, conflict_retry=False)
        metrics.record_busy("svc", 30.0, 50.0, conflict_retry=True)
        result = summary(metrics)
        assert result.busyness("service") == pytest.approx(0.5)
        assert result.noconflict_busyness("service") == pytest.approx(0.3)

    def test_per_scheduler_accessors(self, metrics):
        job = make_job(submit_time=0.0)
        job.mark_first_attempt(4.0)
        metrics.record_first_attempt("b0", job)
        result = summary(metrics)
        assert result.scheduler_wait_mean("b0") == 4.0
        assert result.scheduler_wait_p90("b0") == 4.0

    def test_preemption_accessors_default_zero(self, metrics):
        metrics.record_busy("b0", 0.0, 1.0)
        metrics.record_busy("svc", 0.0, 1.0)
        result = summary(metrics)
        assert result.role_total("service", "preemptions_caused") == 0
        assert result.role_total("batch", "tasks_lost_to_preemption") == 0


def _load_row(scale, **kwargs):
    (point,) = batch_load_points(
        (1.0,), cluster="C", horizon=1800.0, seed=4, scale=scale, **kwargs
    )
    return run_point(point)


class TestScaledCellInvariance:
    """The joint scaling behind the Figure 8/9 benchmarks: shrinking the
    cell by s while stretching decision times by 1/s preserves
    scheduler busyness (rate x decision time is invariant)."""

    @pytest.mark.parametrize("scale", [0.2, 0.1])
    def test_busyness_invariant_under_dilation(self, scale):
        full = _load_row(0.4)
        shrunk = _load_row(scale)
        assert shrunk["busy_batch"] == pytest.approx(
            full["busy_batch"], rel=0.35
        )

    def test_dilation_can_be_disabled(self):
        row = _load_row(0.1, dilate_decision_times=False)
        dilated = _load_row(0.1)
        # Without dilation the scaled-down scheduler is nearly idle.
        assert row["busy_batch"] < dilated["busy_batch"] / 3
