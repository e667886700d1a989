"""Input validation and the derived histograms of the metrics collector."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import MetricsCollector
from repro.obs.histogram import Histogram
from tests.conftest import make_job


@pytest.fixture
def collector():
    return MetricsCollector(period=100.0)


class TestValidation:
    def test_negative_busy_start_rejected(self, collector):
        with pytest.raises(ValueError, match="negative busy-interval start"):
            collector.record_busy("s", -1.0, 10.0)

    def test_busy_interval_ending_before_start_rejected(self, collector):
        with pytest.raises(ValueError, match="ends before it starts"):
            collector.record_busy("s", 10.0, 5.0)

    def test_negative_wait_time_rejected(self, collector):
        job = make_job(submit_time=100.0)
        job.mark_first_attempt(50.0)  # before submission
        with pytest.raises(ValueError, match="negative wait time"):
            collector.record_first_attempt("s", job)

    def test_negative_commit_time_rejected(self, collector):
        with pytest.raises(ValueError, match="negative commit time"):
            collector.record_commit("s", conflicted=False, time=-0.5)

    def test_negative_scheduling_time_rejected(self, collector):
        with pytest.raises(ValueError, match="negative scheduling time"):
            collector.record_scheduled("s", make_job(), time=-1.0)


class TestDerivedHistograms:
    """``histograms()`` builds at end of run exactly what observing each
    value as it was recorded would have built."""

    @settings(max_examples=60, deadline=None)
    @given(
        waits=st.lists(
            st.tuples(st.sampled_from("abc"), st.floats(0.0, 2e4, allow_nan=False))
        ),
        escalations=st.lists(
            st.tuples(
                st.sampled_from("ab"),
                st.sampled_from(["starvation", "backoff", None]),
                st.integers(1, 2000),
            )
        ),
    )
    def test_equal_to_observing_each_value_as_recorded(self, waits, escalations):
        collector = MetricsCollector(period=100.0)
        observed: dict[tuple, Histogram] = {}

        def observe(name, value, **labels):
            key = (name, tuple(sorted(labels.items())))
            if key not in observed:
                observed[key] = Histogram(name, labels)
            observed[key].observe(value)

        for scheduler, wait in waits:
            job = make_job(submit_time=0.0)
            job.mark_first_attempt(wait)
            collector.record_first_attempt(scheduler, job)
            observe("jobs.wait_seconds", wait, scheduler=scheduler)
        for scheduler, policy, attempts in escalations:
            collector.record_escalated(scheduler, attempts=attempts, policy=policy)
            observe(
                "jobs.attempts_until_escalation",
                float(attempts),
                scheduler=scheduler,
                policy=policy or "none",
            )

        def flat(histograms):
            return [(h.name, h.labels, h.state()) for h in histograms]

        assert flat(collector.histograms()) == flat(
            observed[key] for key in sorted(observed)
        )

    def test_series_with_no_observation_has_no_histogram(self, collector):
        assert list(collector.scheduler_wait_times("only-read")) == []
        collector.record_escalated("s")  # no attempt count given
        assert collector.histograms() == []
