"""Tests for the Job model and its scheduling lifecycle fields."""

import pytest

from repro.workload.job import JobType
from tests.conftest import make_job


class TestJobValidation:
    def test_valid_job(self):
        job = make_job(num_tasks=3, cpu=0.5, mem=1.0, duration=10.0)
        assert job.unplaced_tasks == 3
        assert job.total_cpu == 1.5
        assert job.total_mem == 3.0

    def test_needs_at_least_one_task(self):
        with pytest.raises(ValueError, match="at least one task"):
            make_job(num_tasks=0)

    def test_rejects_negative_resources(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_job(cpu=-1.0)

    def test_rejects_zero_resource_tasks(self):
        with pytest.raises(ValueError, match="some resource"):
            make_job(cpu=0.0, mem=0.0)

    def test_single_resource_dimension_allowed(self):
        job = make_job(cpu=0.0, mem=1.0)
        assert job.cpu_per_task == 0.0

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            make_job(duration=0.0)


class TestJobIds:
    def test_ids_monotonic(self):
        first = make_job()
        second = make_job()
        assert second.job_id == first.job_id + 1


class TestLifecycle:
    def test_wait_time_none_before_first_attempt(self):
        job = make_job(submit_time=10.0)
        assert job.wait_time is None

    def test_mark_first_attempt_sets_wait(self):
        job = make_job(submit_time=10.0)
        job.mark_first_attempt(25.0)
        assert job.wait_time == 15.0

    def test_mark_first_attempt_is_sticky(self):
        job = make_job(submit_time=0.0)
        job.mark_first_attempt(5.0)
        job.mark_first_attempt(50.0)
        assert job.first_attempt_time == 5.0

    def test_fully_scheduled_tracks_unplaced(self):
        job = make_job(num_tasks=2)
        assert not job.is_fully_scheduled
        job.unplaced_tasks = 0
        assert job.is_fully_scheduled
        assert job.placed_tasks == 2

    def test_job_types(self):
        assert JobType.BATCH.value == "batch"
        assert JobType.SERVICE.value == "service"

    def test_conflict_retry_flag_defaults_false(self):
        assert make_job().requeued_for_conflict is False
