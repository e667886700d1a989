"""Tests for trace synthesis and JSON-lines IO."""

import pytest

from repro.hifi.trace import (
    Trace,
    TraceJob,
    TraceMachine,
    read_trace,
    synthesize_trace,
    write_trace,
)
from repro.workload.generator import StandingTasks
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


class TestTraceIO:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.name == trace.name
        assert loaded.horizon == trace.horizon
        assert loaded.machines == trace.machines
        assert loaded.jobs == trace.jobs
        assert loaded.initial_tasks == trace.initial_tasks

    def test_standing_task_columns_round_trip_bit_for_bit(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        tasks, loaded = trace.initial_tasks, read_trace(path).initial_tasks
        assert len(tasks) > 100 and set(tasks.job_type) == {JobType.SERVICE, JobType.BATCH}
        for column in ("cpu", "mem", "duration"):
            assert [value.hex() for value in getattr(loaded, column)] == [
                value.hex() for value in getattr(tasks, column)
            ]
        assert loaded.job_type == tasks.job_type
        # One record per task, in order.
        records = [line for line in path.read_text().splitlines() if "initial_task" in line]
        assert len(records) == len(tasks)

    def test_initial_task_records_load_as_columns(self, tmp_path):
        path = tmp_path / "three.jsonl"
        path.write_text(
            '{"kind": "header", "name": "three", "horizon": 60.0}\n'
            '{"kind": "initial_task", "cpu": 0.5, "mem": 1.25, "duration": 30.0,'
            ' "job_type": "service"}\n'
            '{"kind": "initial_task", "cpu": 2, "mem": 0.0, "duration": 1e9,'
            ' "job_type": "batch"}\n'
            '{"kind": "initial_task", "cpu": 0.1, "mem": 0.2, "duration": 0.0,'
            ' "job_type": "batch"}\n'
        )
        assert read_trace(path).initial_tasks == StandingTasks(
            cpu=[0.5, 2, 0.1],
            mem=[1.25, 0.0, 0.2],
            duration=[30.0, 1e9, 0.0],
            job_type=[JobType.SERVICE, JobType.BATCH, JobType.BATCH],
        )

    def test_constraints_survive_round_trip(self, tmp_path):
        trace = synthesize_trace(tiny_preset(), horizon=20000.0, seed=1)
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        loaded = read_trace(path)
        originals = [j.constraints for j in trace.jobs if j.constraints]
        round_tripped = [j.constraints for j in loaded.jobs if j.constraints]
        assert originals == round_tripped

    def test_unknown_record_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            read_trace(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"kind": "machine", "cpu": -4.0, "mem": 16.0, "rack": 0}', "cpu must be"),
            ('{"kind": "machine", "cpu": 4.0, "mem": NaN, "rack": 0}', "mem must be"),
            ('{"kind": "machine", "cpu": 4.0, "rack": 0}', "machine record has no 'mem'"),
            (
                '{"kind": "initial_task", "cpu": "1", "mem": 1.0, "duration": 5.0,'
                ' "job_type": "batch"}',
                "cpu must be",
            ),
            (
                '{"kind": "initial_task", "cpu": 1.0, "mem": -1.0, "duration": 5.0,'
                ' "job_type": "batch"}',
                "mem must be",
            ),
            (
                '{"kind": "initial_task", "cpu": 1.0, "mem": 1.0, "duration": NaN,'
                ' "job_type": "batch"}',
                "duration must be",
            ),
            (
                '{"kind": "initial_task", "cpu": 1.0, "mem": 1.0, "job_type": "batch"}',
                "initial_task record has no 'duration'",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch", "num_tasks": 0,'
                ' "cpu_per_task": 1.0, "mem_per_task": 1.0, "duration": 5.0}',
                "num_tasks must be",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch", "num_tasks": 2.5,'
                ' "cpu_per_task": 1.0, "mem_per_task": 1.0, "duration": 5.0}',
                "num_tasks must be",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch", "num_tasks": 2,'
                ' "cpu_per_task": -0.5, "mem_per_task": 1.0, "duration": 5.0}',
                "cpu_per_task must be",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch", "num_tasks": 2,'
                ' "cpu_per_task": 0.5, "mem_per_task": true, "duration": 5.0}',
                "mem_per_task must be",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch", "num_tasks": 2,'
                ' "cpu_per_task": 0.5, "mem_per_task": 1.0, "duration": -5.0}',
                "duration must be",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch",'
                ' "cpu_per_task": 0.5, "mem_per_task": 1.0, "duration": 5.0}',
                "job record has no 'num_tasks'",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "nightly", "num_tasks": 2,'
                ' "cpu_per_task": 0.5, "mem_per_task": 1.0, "duration": 5.0}',
                "nightly",
            ),
        ],
    )
    def test_bad_records_are_refused_with_path_and_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "name": "x", "horizon": 10}\n\n' + record + "\n")
        with pytest.raises(ValueError, match=message) as raised:
            read_trace(path)
        assert str(raised.value).startswith(f"{path}:3: ")

    def test_blank_lines_skipped(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        content = path.read_text().replace("\n", "\n\n", 3)
        path.write_text(content)
        assert read_trace(path).num_jobs == trace.num_jobs
