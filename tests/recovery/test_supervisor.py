"""Supervised execution: crash salvage, timeouts, retries, degradation.

Worker bodies must be module-level (picklable-by-reference) functions,
exactly as for the ``Pool.map`` fan-out they replace. Crash tests make
the *worker* SIGKILL itself — the harshest failure the supervisor must
absorb — using a sentinel file so only the first attempt dies.
"""

import os
import signal
import time

import pytest

from repro import obs
from repro.recovery.supervisor import (
    PointFailure,
    SupervisorPolicy,
    supervised_map,
)

FAST = SupervisorPolicy(backoff_base=0.0)  # no sleeping in tests


def _square(x, _recorder):
    return x * x


def _crash_once(item, _recorder):
    """SIGKILL the worker on the first attempt at each point."""
    value, sentinel_dir = item
    sentinel = os.path.join(sentinel_dir, f"attempted-{value}")
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("1")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _crash_always(item, _recorder):
    os.kill(os.getpid(), signal.SIGKILL)


def _crash_in_workers_only(item, _recorder):
    """Die in any worker process; succeed inline in the parent."""
    value, parent_pid = item
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return value + 100


def _hang_if_odd(x, _recorder):
    if x % 2:
        time.sleep(60.0)
    return x


def _raise_for_zero(x, _recorder):
    if x == 0:
        raise ZeroDivisionError("deterministic bug")
    return x


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


def _raise_unpicklable(x, _recorder):
    raise Unpicklable(f"bad point {x}")


def _incidents(run):
    """Names of the ``recovery.*`` trace events ``run(recorder)`` emits."""
    recorder = obs.TraceRecorder()
    run(recorder)
    return [r["name"] for r in recorder.records if r["name"].startswith("recovery.")]


def _traced(label, recorder):
    recorder.event("work", t=0.0, label=label)
    recorder.event("point", t=0.0, label=label)
    return label


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="point_timeout"):
            SupervisorPolicy(point_timeout=0.0)
        with pytest.raises(ValueError, match="degrade_after"):
            SupervisorPolicy(degrade_after=0)

    def test_backoff_deterministic_and_capped(self):
        policy = SupervisorPolicy(backoff_base=0.05, backoff_cap=0.15)
        assert policy.backoff(1) == 0.05
        assert policy.backoff(2) == 0.1
        assert policy.backoff(3) == 0.15  # capped
        assert SupervisorPolicy(backoff_base=0.0).backoff(5) == 0.0


class TestInlinePath:
    def test_serial_results_in_order(self):
        results = supervised_map(_square, [1, 2, 3], jobs=1)
        assert [value for value, _ in results] == [1, 4, 9]

    def test_single_item_runs_inline_even_with_jobs(self):
        assert supervised_map(_square, [7], jobs=8)[0][0] == 49

    def test_inline_exception_propagates_unchanged(self):
        with pytest.raises(ZeroDivisionError):
            supervised_map(_raise_for_zero, [1, 0], jobs=1)

    def test_capture_returns_records(self):
        results = supervised_map(_traced, ["a"], jobs=1, capture=True)
        value, records = results[0]
        assert value == "a"
        assert [r["name"] for r in records] == ["work", "point"]

    def test_empty(self):
        assert supervised_map(_square, [], jobs=4) == []


class TestParallelPath:
    def test_results_in_submission_order(self):
        items = list(range(8))
        results = supervised_map(_square, items, jobs=3, policy=FAST)
        assert [value for value, _ in results] == [x * x for x in items]

    def test_on_result_sees_every_completion(self):
        seen = {}
        supervised_map(
            _square,
            [2, 3],
            jobs=2,
            policy=FAST,
            on_result=lambda i, value, records: seen.__setitem__(i, value),
        )
        assert seen == {0: 4, 1: 9}

    def test_crashed_worker_point_is_retried(self, tmp_path):
        items = [(1, str(tmp_path)), (2, str(tmp_path))]
        results = []
        incidents = _incidents(
            lambda recorder: results.extend(
                supervised_map(_crash_once, items, jobs=2, policy=FAST, recorder=recorder)
            )
        )
        assert [value for value, _ in results] == [10, 20]
        assert incidents.count("recovery.point.crash") >= 2

    def test_exhausted_attempts_raise_point_failure(self, tmp_path):
        policy = SupervisorPolicy(max_attempts=2, backoff_base=0.0)
        with pytest.raises(PointFailure, match="crash") as excinfo:
            supervised_map(_crash_always, [1, 2], jobs=2, policy=policy)
        assert "--checkpoint/--resume" in str(excinfo.value)

    def test_hung_point_killed_at_timeout(self):
        policy = SupervisorPolicy(
            point_timeout=0.3, max_attempts=1, backoff_base=0.0
        )
        start = time.monotonic()
        with pytest.raises(PointFailure, match="timeout"):
            supervised_map(_hang_if_odd, [0, 1], jobs=2, policy=policy)
        assert time.monotonic() - start < 30.0  # killed, not waited out

    def test_worker_exception_propagates_without_retry(self):
        def run(recorder):
            with pytest.raises(ZeroDivisionError, match="deterministic bug"):
                supervised_map(
                    _raise_for_zero, [1, 0], jobs=2, policy=FAST, recorder=recorder
                )

        # A raise is a result, not an incident: no recovery events.
        assert _incidents(run) == []

    def test_unpicklable_exception_summarized(self):
        with pytest.raises(RuntimeError, match="Unpicklable: bad point"):
            supervised_map(_raise_unpicklable, [1, 2], jobs=2, policy=FAST)

    def test_degrades_to_serial_after_incidents(self):
        policy = SupervisorPolicy(
            degrade_after=1, max_attempts=10, backoff_base=0.0
        )
        items = [(i, os.getpid()) for i in range(4)]
        results = []
        incidents = _incidents(
            lambda recorder: results.extend(
                supervised_map(
                    _crash_in_workers_only, items, jobs=2, policy=policy, recorder=recorder
                )
            )
        )
        assert [value for value, _ in results] == [100, 101, 102, 103]
        assert incidents.count("recovery.degraded_serial") == 1

    def test_incidents_emit_trace_events(self, tmp_path):
        recorder = obs.TraceRecorder()
        supervised_map(
            _crash_once,
            [(1, str(tmp_path)), (2, str(tmp_path))],
            jobs=2,
            policy=FAST,
            labels=["one", "two"],
            recorder=recorder,
        )
        crashes = [r for r in recorder.records if r["name"] == "recovery.point.crash"]
        # Each point's first attempt died; the event names point and attempt.
        assert sorted(r["fields"]["label"] for r in crashes) == ["one", "two"]
        assert all(r["attempt"] == 1 for r in crashes)
