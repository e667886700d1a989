"""Tests for the MapReduce performance model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce.model import (
    CONFIGURED_WORKER_CHOICES,
    MapReduceJob,
    MapReduceProfile,
    sample_profile,
)
from repro.workload.job import JobType


def profile(maps=100, reduces=20, map_dur=60.0, reduce_dur=120.0, workers=10):
    return MapReduceProfile(
        maps=maps,
        reduces=reduces,
        map_duration=map_dur,
        reduce_duration=reduce_dur,
        workers_configured=workers,
    )


class TestCompletionTime:
    def test_phases_add(self):
        p = profile(maps=100, reduces=20, map_dur=60.0, reduce_dur=120.0, workers=10)
        # 100*60/10 + 20*120/10 = 600 + 240
        assert p.completion_time(10) == pytest.approx(840.0)

    def test_linear_speedup(self):
        p = profile()
        assert p.completion_time(20) == pytest.approx(p.completion_time(10) / 2)

    def test_saturates_at_max_useful_workers(self):
        p = profile(maps=100, reduces=20)
        assert p.max_useful_workers == 100
        assert p.completion_time(100) == p.completion_time(1000)

    def test_reduce_phase_saturates_separately(self):
        """Workers beyond the reduce count stop helping the reduce
        phase while still helping maps (the mapper-reducer dependency)."""
        p = profile(maps=100, reduces=10, map_dur=60.0, reduce_dur=60.0)
        at_50 = p.completion_time(50)
        expected = 100 * 60 / 50 + 10 * 60 / 10
        assert at_50 == pytest.approx(expected)

    def test_map_only_job(self):
        p = profile(reduces=0)
        assert p.completion_time(10) == pytest.approx(600.0)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            profile().completion_time(0)


class TestSpeedup:
    def test_speedup_relative_to_configured(self):
        p = profile(workers=10)
        assert p.speedup(10) == pytest.approx(1.0)
        assert p.speedup(20) == pytest.approx(2.0)

    def test_fewer_workers_is_slowdown(self):
        p = profile(workers=10)
        assert p.speedup(5) == pytest.approx(0.5)

    @given(workers=st.integers(min_value=1, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_speedup_monotone_nondecreasing(self, workers):
        p = profile(maps=200, reduces=50, workers=10)
        assert p.speedup(workers + 1) >= p.speedup(workers) - 1e-12

    @given(workers=st.integers(min_value=1, max_value=2000))
    @settings(max_examples=100, deadline=None)
    def test_speedup_capped_at_full_parallelism(self, workers):
        p = profile(maps=200, reduces=50, workers=10)
        assert p.speedup(workers) <= p.speedup(p.max_useful_workers) + 1e-12


class TestValidation:
    def test_needs_a_map(self):
        with pytest.raises(ValueError):
            profile(maps=0)

    def test_negative_reduces(self):
        with pytest.raises(ValueError):
            profile(reduces=-1)

    def test_zero_map_duration(self):
        with pytest.raises(ValueError):
            profile(map_dur=0.0)

    def test_reduce_duration_checked_when_reduces(self):
        with pytest.raises(ValueError):
            profile(reduces=5, reduce_dur=0.0)
        # No reduces: reduce duration is irrelevant.
        MapReduceProfile(
            maps=10, reduces=0, map_duration=1.0, reduce_duration=0.0,
            workers_configured=1,
        )

    def test_workers_positive(self):
        with pytest.raises(ValueError):
            profile(workers=0)


class TestMapReduceJob:
    def test_from_profile(self):
        p = profile(workers=10)
        job = MapReduceJob.from_profile(p, submit_time=5.0, job_id=1)
        assert job.job_type is JobType.BATCH
        assert job.num_tasks == 10
        assert job.duration == pytest.approx(p.completion_time(10))
        assert job.granted_workers == 0

    def test_profile_required(self):
        with pytest.raises(ValueError, match="profile"):
            MapReduceJob(
                job_type=JobType.BATCH,
                submit_time=0.0,
                num_tasks=1,
                cpu_per_task=1.0,
                mem_per_task=1.0,
                duration=10.0,
                job_id=1,
            )


class TestSampling:
    def test_configured_workers_from_paper_modes(self):
        rng = np.random.default_rng(0)
        observed = {sample_profile(rng).workers_configured for _ in range(200)}
        assert observed <= {5, 11, 200, 1000}
        assert len(observed) >= 3

    def test_activities_exceed_workers(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = sample_profile(rng)
            assert p.maps >= p.workers_configured
            assert p.max_useful_workers >= p.workers_configured

    def test_choice_weights_normalized(self):
        assert CONFIGURED_WORKER_CHOICES.probabilities.sum() == pytest.approx(1.0)
