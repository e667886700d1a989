"""Parallel sweep executor (:func:`repro.recovery.runner.execute_map`):
order preservation, serial/parallel equivalence, worker isolation, and
trace capture/replay."""

import json
import time

import pytest

from repro import obs
from repro.analysis.determinism import canonical_record
from repro.recovery.runner import execute_map, resolve_jobs


def _square(x, _recorder):
    return x * x


def _square_later_first(x, _recorder):
    """Earlier items finish later, so completion order is reversed."""
    time.sleep(0.05 * (4 - x))
    return x * x


def _traced_point(label, recorder):
    recorder.event("work", t=0.0, sched=label, step=1)
    recorder.event("point", t=0.0, sched=label)
    return label


class TestResolveJobs:
    def test_explicit_passthrough(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_zero_and_none_mean_all_cores(self):
        import os

        expected = max(1, os.cpu_count() or 1)
        assert resolve_jobs(0) == expected
        assert resolve_jobs(None) == expected

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestParallelMap:
    def test_serial_path(self):
        assert execute_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(12))
        assert execute_map(_square, items, jobs=3) == [x * x for x in items]

    def test_results_in_submission_order_not_completion_order(self):
        assert execute_map(_square_later_first, [0, 1, 2, 3], jobs=4) == [0, 1, 4, 9]

    def test_single_item_stays_serial(self):
        assert execute_map(_square, [5], jobs=8) == [25]

    def test_empty(self):
        assert execute_map(_square, [], jobs=4) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            execute_map(lambda x, _recorder: 1 // x, [1, 0], jobs=1)


class TestTraceReplay:
    def _run(self, jobs):
        recorder = obs.TraceRecorder()
        results = execute_map(
            _traced_point, ["a", "b", "c"], jobs=jobs, recorder=recorder
        )
        return results, recorder.records

    def test_parallel_trace_identical_to_serial(self):
        results_serial, trace_serial = self._run(jobs=1)
        results_parallel, trace_parallel = self._run(jobs=2)
        assert results_serial == results_parallel == ["a", "b", "c"]
        assert trace_serial  # non-vacuous
        # Byte-identical modulo wall-clock fields, same as the
        # determinism gate's comparison.
        assert json.dumps([canonical_record(r) for r in trace_serial]) == (
            json.dumps([canonical_record(r) for r in trace_parallel])
        )

    def test_replay_reemits_records_unchanged(self):
        recorder = obs.TraceRecorder(keep_records=True)
        recorder.event("before", t=0.0)
        captured = [{"name": "w", "t": 1.0, "fields": {"n": 1}}, {"name": "e"}]
        recorder.replay(captured)
        assert recorder.records[1:] == captured
        assert recorder.records_emitted == 3
