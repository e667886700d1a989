"""Tests for trace synthesis and JSON-lines IO."""

import json

import pytest
from hypothesis import given, settings, strategies as st

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


#: Any JSON value, including the non-finite floats ``json`` reads.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
#: A trace line: free text (any character a UTF-8 file can hold, so no
#: lone surrogate), or a record of a known kind whose fields hold a
#: valid value or any JSON value.
_RECORDS = st.text(
    st.characters(exclude_characters="\r\n", exclude_categories=("Cs",)), max_size=20
) | st.builds(
    lambda kind, fields: {"kind": kind, **fields},
    st.sampled_from(["header", "machine", "initial_task", "job"]),
    st.fixed_dictionaries(
        {},
        optional={
            "name": st.just("x") | _JSON,
            "horizon": st.just(10.0) | _JSON,
            "cpu": st.just(4.0) | _JSON,
            "mem": st.just(16.0) | _JSON,
            "rack": st.just(0) | _JSON,
            "attributes": st.just({"kernel": "3.8"}) | _JSON,
            "duration": st.just(5.0) | _JSON,
            "submit_time": st.just(1.0) | _JSON,
            "job_type": st.sampled_from(["batch", "service"]) | _JSON,
            "num_tasks": st.just(2) | _JSON,
            "cpu_per_task": st.just(0.5) | _JSON,
            "mem_per_task": st.just(1.0) | _JSON,
            "constraints": st.just([["kernel", "==", "3.8"]]) | _JSON,
        },
    ),
)


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
            ('["machine", 4.0, 16.0, 0]', "a record must be a JSON object, got list"),
            ('"machine"', "a record must be a JSON object, got str"),
            ('{"kind": "machine", "cpu": 4.0,', "not JSON: "),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch", "num_tasks": 2,'
                ' "cpu_per_task": 0.5, "mem_per_task": 1.0, "duration": 5.0,'
                ' "constraints": [3]}',
                "constraints must be",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch", "num_tasks": 2,'
                ' "cpu_per_task": 0.5, "mem_per_task": 1.0, "duration": 5.0,'
                ' "constraints": [["kernel", "==", 3.8]]}',
                "constraints must be",
            ),
            (
                '{"kind": "job", "submit_time": 1.0, "job_type": "batch", "num_tasks": 2,'
                ' "cpu_per_task": 0.5, "mem_per_task": 1.0, "duration": 5.0,'
                ' "constraints": [["kernel", "<", "3.8"]]}',
                "'<' is not a valid ConstraintOp",
            ),
            ('{"kind": "machine", "cpu": 4.0, "mem": 16.0, "rack": "r1"}', "rack must be"),
            ('{"kind": "machine", "cpu": 4.0, "mem": 16.0, "rack": -1}', "rack must be"),
            ('{"kind": "machine", "cpu": 0, "mem": 16.0, "rack": 0}', "cpu must be positive"),
            (
                '{"kind": "machine", "cpu": 4.0, "mem": Infinity, "rack": 0}',
                "mem must be positive",
            ),
            (
                '{"kind": "machine", "cpu": 4.0, "mem": 16.0, "rack": 0, "attributes": ["x86"]}',
                "attributes must map",
            ),
            ('{"kind": "header", "name": "x", "horizon": NaN}', "horizon must be"),
            ('{"kind": "header", "name": "x", "horizon": Infinity}', "horizon must be"),
            ('{"kind": "header", "name": "x", "horizon": 0}', "horizon must be"),
            ('{"kind": "header", "name": "x", "horizon": "10"}', "horizon must be"),
            ('{"kind": "header", "name": 7, "horizon": 10}', "name must be"),
        ],
    )
    def test_bad_records_are_refused_with_path_and_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "name": "x", "horizon": 10}\n\n' + record + "\n")
        with pytest.raises(ValueError, match=message) as raised:
            read_trace(path)
        assert str(raised.value).startswith(f"{path}:3: ")

    @settings(max_examples=200, deadline=None)
    @given(record=_RECORDS)
    def test_any_record_loads_or_is_refused_with_path_and_line(self, tmp_path_factory, record):
        """Whatever one line holds, the loader returns a trace whose cell
        builds, or raises one ``ValueError`` naming the line."""
        path = tmp_path_factory.mktemp("fuzz") / "trace.jsonl"
        line = record if isinstance(record, str) else json.dumps(record)
        path.write_text('{"kind": "header", "name": "x", "horizon": 10}\n' + line + "\n")
        try:
            trace = read_trace(path)
        except ValueError as error:
            assert str(error).startswith(f"{path}:2: ")
        else:
            if trace.machines:
                assert trace.cell().num_machines == len(trace.machines)

    def test_blank_lines_skipped(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        content = path.read_text().replace("\n", "\n\n", 3)
        path.write_text(content)
        assert read_trace(path).num_jobs == trace.num_jobs
