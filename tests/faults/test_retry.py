"""Unit and property tests for the conflict-retry policies.

The Hypothesis properties pin down the contracts the resilience layer
rests on: policies are deterministic functions of (job state, their own
seeded stream), backoff delays are monotone and bounded, and the
starvation policy always terminates.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retry import (
    JITTER,
    MAX_CONFLICT_RETRIES,
    MAX_DELAY,
    RETRY_POLICIES,
    RetryPolicyConfig,
    StarvationEscalationPolicy,
    nominal_delay,
)
from repro.sim.random import RandomStreams
from tests.conftest import make_job
from tests.core.test_retry_integration import AlwaysConflicting


def job_with_conflicts(conflicts):
    job = make_job(num_tasks=4)
    job.conflicts = conflicts
    return job


def stream(seed=0, name="retry.test"):
    return RandomStreams(seed).stream(name)


class TestImmediate:
    def test_always_retries_at_front_with_no_delay(self, sim, metrics):
        scheduler = AlwaysConflicting(sim, metrics, conflicts=10)
        first = make_job(num_tasks=2)
        second = make_job(num_tasks=2)
        scheduler.submit(first)
        scheduler.submit(second)
        sim.run()
        # Ten conflicted attempts of 1 s each, back to back at the head
        # of the queue, then the commit: second waits behind all of it.
        assert first.conflicts == 10
        assert first.fully_scheduled_time == pytest.approx(11.0)
        assert second.fully_scheduled_time == pytest.approx(12.0)
        assert not first.escalated


class TestBackoff:
    def test_retries_reenter_at_the_back(self, sim, metrics):
        policy = StarvationEscalationPolicy(stream(), escalate_after=10)
        scheduler = AlwaysConflicting(sim, metrics, conflicts=1, retry_policy=policy)
        first = make_job(num_tasks=2)
        second = make_job(num_tasks=2)
        scheduler.submit(first)
        scheduler.submit(second)
        sim.run()
        assert second.fully_scheduled_time < first.fully_scheduled_time

    def test_nominal_delay_monotone_and_bounded(self):
        delays = [nominal_delay(k) for k in range(1, 40)]
        assert delays[0] == 1.0
        assert all(a <= b for a, b in zip(delays, delays[1:]))
        assert max(delays) == MAX_DELAY
        with pytest.raises(ValueError, match="conflicts"):
            nominal_delay(0)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_jitter_stays_within_band(self, seed):
        policy = StarvationEscalationPolicy(stream(seed))
        for conflicts in range(1, 8):
            nominal = nominal_delay(conflicts)
            delay = policy.delay(job_with_conflicts(conflicts))
            assert nominal <= delay < nominal * (1.0 + JITTER)

    def test_abandons_past_cap(self):
        policy = StarvationEscalationPolicy(stream())
        assert policy.delay(job_with_conflicts(MAX_CONFLICT_RETRIES)) is not None
        assert policy.delay(job_with_conflicts(MAX_CONFLICT_RETRIES + 1)) is None


class TestStarvationEscalation:
    def test_validation(self):
        with pytest.raises(ValueError, match="escalate_after"):
            StarvationEscalationPolicy(stream(), escalate_after=0)

    def test_escalates_exactly_once(self):
        policy = StarvationEscalationPolicy(stream(), escalate_after=3)
        job = make_job(num_tasks=4)
        job.conflicts = 2
        assert not policy.escalates(job)
        job.conflicts = 3
        assert policy.escalates(job)
        job.escalated = True  # the scheduler applies the escalation
        job.conflicts = 4
        assert not policy.escalates(job)

    @given(
        escalate_after=st.integers(min_value=1, max_value=120),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_always_terminates(self, escalate_after, seed):
        """Even if every attempt conflicts forever, the policy abandons
        after at most ``MAX_CONFLICT_RETRIES`` conflicts."""
        policy = StarvationEscalationPolicy(stream(seed), escalate_after=escalate_after)
        job = make_job(num_tasks=4)
        decisions = 0
        while True:
            job.conflicts += 1
            delay = policy.delay(job)
            decisions += 1
            if delay is None:
                break
            if policy.escalates(job):
                job.escalated = True
            assert decisions <= MAX_CONFLICT_RETRIES  # must not loop past the cap
        assert job.conflicts == MAX_CONFLICT_RETRIES + 1
        assert job.escalated == (escalate_after <= MAX_CONFLICT_RETRIES)


class TestDeterminism:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_same_stream_same_decision_sequence(self, seed):
        """Two policies built from the same named stream produce
        identical decision sequences — the property the runtime
        determinism gate (and --jobs N parity) relies on."""

        def sequence():
            policy = StarvationEscalationPolicy(
                stream(seed, "retry.omega-batch"), escalate_after=2
            )
            job = make_job(num_tasks=4, job_id=1)
            out = []
            for conflicts in range(1, 12):
                job.conflicts = conflicts
                escalate = policy.escalates(job)
                if escalate:
                    job.escalated = True
                out.append((policy.delay(job), escalate))
            return out

        assert sequence() == sequence()

    def test_different_streams_diverge(self):
        a = StarvationEscalationPolicy(stream(0, "retry.a"))
        b = StarvationEscalationPolicy(stream(0, "retry.b"))
        delays_a = [a.delay(job_with_conflicts(k)) for k in range(1, 6)]
        delays_b = [b.delay(job_with_conflicts(k)) for k in range(1, 6)]
        assert delays_a != delays_b


class TestRetryPolicyConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown retry policy"):
            RetryPolicyConfig(kind="yolo")
        assert RETRY_POLICIES == ("immediate", "starvation")

    def test_config_is_picklable(self):
        """Sweep points must cross --jobs N process boundaries."""
        config = RetryPolicyConfig(kind="starvation", escalate_after=7)
        assert pickle.loads(pickle.dumps(config)) == config
