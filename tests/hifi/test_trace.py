"""Tests for trace synthesis."""

import pytest

from repro.hifi.trace import synthesize_trace
from repro.workload.job import JobType
from tests.conftest import tiny_preset


@pytest.fixture
def trace():
    return synthesize_trace(tiny_preset(), horizon=600.0, seed=3)


class TestSynthesis:
    def test_machine_count_matches_preset(self, trace):
        assert len(trace.machines) == tiny_preset().num_machines

    def test_jobs_sorted_by_time_within_horizon(self, trace):
        times = [job.submit_time for job in trace.jobs]
        assert times == sorted(times)
        assert all(0 < t <= 600.0 for t in times)

    def test_both_job_types_present(self, trace):
        types = {job.job_type for job in trace.jobs}
        assert JobType.BATCH in types

    def test_some_jobs_have_constraints(self):
        trace = synthesize_trace(tiny_preset(), horizon=20000.0, seed=1)
        constrained = [job for job in trace.jobs if job.constraints]
        assert constrained
        # Service jobs are pickier than batch jobs.
        service = [j for j in trace.jobs if j.job_type is JobType.SERVICE]
        batch = [j for j in trace.jobs if j.job_type is JobType.BATCH]
        service_picky = sum(1 for j in service if j.constraints) / len(service)
        batch_picky = sum(1 for j in batch if j.constraints) / len(batch)
        assert service_picky > batch_picky

    def test_deterministic(self):
        first = synthesize_trace(tiny_preset(), horizon=600.0, seed=9)
        second = synthesize_trace(tiny_preset(), horizon=600.0, seed=9)
        assert first.jobs == second.jobs
        assert first.machines == second.machines

    def test_seed_changes_trace(self):
        first = synthesize_trace(tiny_preset(), horizon=600.0, seed=1)
        second = synthesize_trace(tiny_preset(), horizon=600.0, seed=2)
        assert first.jobs != second.jobs

    def test_heterogeneous_machines(self, trace):
        sizes = {(m.cpu, m.mem) for m in trace.machines}
        assert len(sizes) > 1

    def test_cell_builds(self, trace):
        cell = trace.cell()
        assert cell.num_machines == len(trace.machines)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            synthesize_trace(tiny_preset(), horizon=0.0)

