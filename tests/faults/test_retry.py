"""Unit and property tests for the conflict-retry policies.

The Hypothesis properties pin down the contracts the resilience layer
rests on: policies are deterministic functions of (job state, their own
seeded stream), backoff delays are monotone and bounded, and the
starvation policies always terminate.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.retry import (
    RETRY_POLICIES,
    CappedRetryPolicy,
    ExponentialBackoffPolicy,
    ImmediateRetryPolicy,
    RetryAction,
    RetryDecision,
    RetryPolicyConfig,
    StarvationEscalationPolicy,
)
from repro.sim.random import RandomStreams
from tests.conftest import make_job


def job_with_conflicts(conflicts):
    job = make_job(num_tasks=4)
    job.conflicts = conflicts
    return job


def stream(seed=0, name="retry.test"):
    return RandomStreams(seed).stream(name)


class TestImmediate:
    def test_always_retries_at_front_with_no_delay(self):
        policy = ImmediateRetryPolicy()
        for conflicts in (1, 10, 10_000):
            decision = policy.decide(job_with_conflicts(conflicts))
            assert decision == RetryDecision(action=RetryAction.RETRY)
            assert decision.delay == 0.0 and decision.at_front
            assert not decision.escalate


class TestCapped:
    def test_retries_until_cap_then_abandons(self):
        policy = CappedRetryPolicy(max_conflict_retries=3)
        for conflicts in (1, 2, 3):
            assert (
                policy.decide(job_with_conflicts(conflicts)).action
                is RetryAction.RETRY
            )
        assert policy.decide(job_with_conflicts(4)).action is RetryAction.ABANDON

    def test_validation(self):
        with pytest.raises(ValueError, match="max_conflict_retries"):
            CappedRetryPolicy(max_conflict_retries=0)


class TestBackoff:
    def test_validation(self):
        rng = stream()
        with pytest.raises(ValueError, match="base_delay"):
            ExponentialBackoffPolicy(rng, base_delay=0.0)
        with pytest.raises(ValueError, match="factor"):
            ExponentialBackoffPolicy(rng, factor=0.5)
        with pytest.raises(ValueError, match="max_delay"):
            ExponentialBackoffPolicy(rng, base_delay=10.0, max_delay=5.0)
        with pytest.raises(ValueError, match="jitter"):
            ExponentialBackoffPolicy(rng, jitter=-0.1)
        with pytest.raises(ValueError, match="max_conflict_retries"):
            ExponentialBackoffPolicy(rng, max_conflict_retries=0)

    def test_retries_reenter_at_the_back(self):
        policy = ExponentialBackoffPolicy(stream(), jitter=0.0)
        assert not policy.decide(job_with_conflicts(1)).at_front

    @given(
        base=st.floats(min_value=0.01, max_value=10.0),
        factor=st.floats(min_value=1.0, max_value=4.0),
        cap_multiple=st.floats(min_value=1.0, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_nominal_delay_monotone_and_bounded(self, base, factor, cap_multiple):
        policy = ExponentialBackoffPolicy(
            stream(), base_delay=base, factor=factor, max_delay=base * cap_multiple
        )
        delays = [policy.nominal_delay(k) for k in range(1, 40)]
        assert delays[0] == pytest.approx(base)
        assert all(a <= b or a == policy.max_delay for a, b in zip(delays, delays[1:]))
        assert all(d <= policy.max_delay for d in delays)

    def test_jitter_zero_gives_exactly_nominal(self):
        policy = ExponentialBackoffPolicy(
            stream(), base_delay=2.0, factor=2.0, max_delay=100.0, jitter=0.0
        )
        for conflicts in (1, 2, 3, 4):
            decision = policy.decide(job_with_conflicts(conflicts))
            assert decision.delay == policy.nominal_delay(conflicts)

    @given(jitter=st.floats(min_value=0.01, max_value=2.0), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_jitter_stays_within_band(self, jitter, seed):
        policy = ExponentialBackoffPolicy(
            stream(seed), base_delay=1.0, factor=2.0, max_delay=64.0, jitter=jitter
        )
        for conflicts in range(1, 8):
            nominal = policy.nominal_delay(conflicts)
            delay = policy.decide(job_with_conflicts(conflicts)).delay
            assert nominal <= delay < nominal * (1.0 + jitter)

    def test_abandons_past_cap(self):
        policy = ExponentialBackoffPolicy(stream(), max_conflict_retries=5)
        assert policy.decide(job_with_conflicts(5)).action is RetryAction.RETRY
        assert policy.decide(job_with_conflicts(6)).action is RetryAction.ABANDON


class TestStarvationEscalation:
    def test_validation(self):
        with pytest.raises(ValueError, match="escalate_after"):
            StarvationEscalationPolicy(stream(), escalate_after=0)

    def test_escalates_exactly_once(self):
        policy = StarvationEscalationPolicy(stream(), escalate_after=3, jitter=0.0)
        job = make_job(num_tasks=4)
        job.conflicts = 2
        assert not policy.decide(job).escalate
        job.conflicts = 3
        decision = policy.decide(job)
        assert decision.escalate
        job.escalated = True  # the scheduler applies the escalation
        job.conflicts = 4
        assert not policy.decide(job).escalate

    @given(
        escalate_after=st.integers(min_value=1, max_value=10),
        cap=st.integers(min_value=1, max_value=50),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_terminates(self, escalate_after, cap, seed):
        """Even if every attempt conflicts forever, the policy abandons
        after at most ``max_conflict_retries`` conflicts."""
        policy = StarvationEscalationPolicy(
            stream(seed),
            escalate_after=escalate_after,
            max_conflict_retries=cap,
        )
        job = make_job(num_tasks=4)
        decisions = 0
        while True:
            job.conflicts += 1
            decision = policy.decide(job)
            decisions += 1
            if decision.escalate:
                job.escalated = True
            if decision.action is RetryAction.ABANDON:
                break
            assert decisions <= cap  # must not loop past the cap
        assert job.conflicts == cap + 1
        assert job.escalated == (escalate_after <= cap)


class TestDeterminism:
    @given(kind=st.sampled_from(RETRY_POLICIES), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_same_stream_same_decision_sequence(self, kind, seed):
        """Two policies built from the same config and the same named
        stream produce identical decision sequences — the property the
        runtime determinism gate (and --jobs N parity) relies on."""
        config = RetryPolicyConfig(kind=kind, escalate_after=2)

        def sequence():
            policy = config.build(stream(seed, "retry.omega-batch"))
            job = make_job(num_tasks=4, job_id=1)
            out = []
            for conflicts in range(1, 12):
                job.conflicts = conflicts
                decision = policy.decide(job)
                if decision.escalate:
                    job.escalated = True
                out.append(decision)
            return out

        assert sequence() == sequence()

    def test_different_streams_diverge(self):
        config = RetryPolicyConfig(kind="backoff")
        a = config.build(stream(0, "retry.a"))
        b = config.build(stream(0, "retry.b"))
        delays_a = [a.decide(job_with_conflicts(k)).delay for k in range(1, 6)]
        delays_b = [b.decide(job_with_conflicts(k)).delay for k in range(1, 6)]
        assert delays_a != delays_b


class TestRetryPolicyConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown retry policy"):
            RetryPolicyConfig(kind="yolo")

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("immediate", ImmediateRetryPolicy),
            ("capped", CappedRetryPolicy),
            ("backoff", ExponentialBackoffPolicy),
            ("starvation", StarvationEscalationPolicy),
        ],
    )
    def test_build_returns_right_policy(self, kind, expected):
        policy = RetryPolicyConfig(kind=kind).build(stream())
        assert isinstance(policy, expected)
        assert policy.name == kind

    def test_config_is_picklable(self):
        """Sweep points must cross --jobs N process boundaries."""
        config = RetryPolicyConfig(kind="starvation", max_conflict_retries=7)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_build_honors_knobs(self):
        config = RetryPolicyConfig(
            kind="backoff", base_delay=3.0, factor=1.5, max_delay=9.0, jitter=0.0
        )
        policy = config.build(stream())
        assert policy.nominal_delay(1) == 3.0
        assert policy.nominal_delay(2) == 4.5
        assert policy.nominal_delay(10) == 9.0
