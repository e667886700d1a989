"""execute_map: checkpointing, resume skip, structure-change refusal,
trace stitching, and the workers' crash salvage, timeouts and retries.

Worker bodies must be module-level (picklable-by-reference) functions.
Crash tests make the *worker* SIGKILL itself — the harshest failure a
sweep must absorb — using a sentinel file so only the first attempt
dies.
"""

import json
import multiprocessing
import os
import signal
import time
from functools import partial

import pytest

from repro import obs
from repro.analysis.determinism import canonical_record
from repro.recovery.checkpoint import CheckpointStore, RecoveryError
from repro.recovery.manifest import RunManifest
from repro.recovery.runner import ATTEMPTS, PointFailure, execute_map


def _double(x, _recorder):
    return {"value": x * 2}


def _explode(x, _recorder):
    raise AssertionError("a skipped point must not re-run")


def _traced(x, recorder):
    recorder.event("work", t=0.0, value=x)
    recorder.event("point", t=0.0, value=x)
    return {"value": x * 2}


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


MANIFEST = dict(experiment="test", seed=0, parameters={})
LABELS = ["a", "b", "c"]


def new_store(tmp_path):
    store = CheckpointStore(tmp_path / "ck")
    store.initialize(RunManifest(**MANIFEST))
    return store


def checkpointed_run(
    tmp_path, fn=_double, labels=LABELS, items=(1, 2, 3), recorder=obs.NULL_RECORDER
):
    with new_store(tmp_path) as store:
        rows = execute_map(fn, list(items), labels=labels, store=store, recorder=recorder)
    return rows, store


def resuming_store(tmp_path):
    store = CheckpointStore(tmp_path / "ck")
    store.resume(RunManifest(**MANIFEST))
    return store


class TestWithoutContext:
    def test_plain_map(self):
        assert execute_map(_double, [1, 2]) == [{"value": 2}, {"value": 4}]

    def test_label_count_validated(self):
        with pytest.raises(ValueError, match="2 labels for 3 items"):
            execute_map(_double, [1, 2, 3], labels=["a", "b"])

    def test_no_context_active(self, tmp_path):
        """A store steers only the calls it is passed to: there is no
        process-wide one for a later call to inherit."""
        _, store = checkpointed_run(tmp_path)
        assert execute_map(_double, [4]) == [{"value": 8}]
        assert store.appended == 3
        assert len((tmp_path / "ck" / "points.jsonl").read_text().splitlines()) == 3


class TestContext:
    def test_closes_store_on_exit(self, tmp_path):
        _, store = checkpointed_run(tmp_path)
        assert store._handle is None  # closed by the with block


class TestCheckpointedExecution:
    def test_appends_every_point(self, tmp_path):
        rows, store = checkpointed_run(tmp_path)
        assert rows == [{"value": 2}, {"value": 4}, {"value": 6}]
        assert store.appended == 3
        log = (tmp_path / "ck" / "points.jsonl").read_text().splitlines()
        assert len(log) == 3
        first = json.loads(log[0])["record"]
        assert first == {
            "index": 0,
            "label": "a",
            "row": {"value": 2},
            "trace": None,
        }

    def test_resume_skips_completed_points(self, tmp_path):
        rows, _ = checkpointed_run(tmp_path)
        with resuming_store(tmp_path) as store:
            resumed_rows = execute_map(_explode, [1, 2, 3], labels=LABELS, store=store)
        assert resumed_rows == rows
        assert len(store.completed) == 3
        assert store.appended == 0

    def test_partial_resume_reruns_only_missing(self, tmp_path):
        rows, _ = checkpointed_run(tmp_path)
        log = tmp_path / "ck" / "points.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:2]))  # lose the last point
        with resuming_store(tmp_path) as store:
            resumed_rows = execute_map(_double, [1, 2, 3], labels=LABELS, store=store)
        assert resumed_rows == rows
        assert len(store.completed) == 3
        assert store.appended == 1


class TestStructureChangeRefusal:
    def test_label_mismatch_refused(self, tmp_path):
        checkpointed_run(tmp_path)
        with resuming_store(tmp_path) as store:
            with pytest.raises(RecoveryError, match="sweep structure changed"):
                execute_map(
                    _double,
                    [1, 2, 3],
                    labels=["a", "b", "DIFFERENT"],
                    store=store,
                )

    def test_shrunken_sweep_refused(self, tmp_path):
        checkpointed_run(tmp_path)
        with resuming_store(tmp_path) as store:
            with pytest.raises(RecoveryError, match="beyond this run's sweep"):
                execute_map(_double, [1, 2], labels=["a", "b"], store=store)


class TestTraceStitching:
    def _records(self, run):
        recorder = obs.TraceRecorder()
        run(recorder=recorder)
        return [canonical_record(r) for r in recorder.records]

    def test_checkpointed_trace_matches_plain_serial(self, tmp_path):
        plain = self._records(partial(execute_map, _traced, [1, 2, 3]))
        checkpointed = self._records(partial(checkpointed_run, tmp_path, fn=_traced))
        assert plain  # non-vacuous
        assert json.dumps(plain) == json.dumps(checkpointed)

    def test_timed_serial_trace_matches_plain_serial(self):
        """A point timeout runs even a serial sweep in workers; their
        records come back as if the points had run inline."""
        plain = self._records(partial(execute_map, _traced, [1, 2]))
        timed = self._records(partial(execute_map, _traced, [1, 2], point_timeout=30.0))
        assert plain  # non-vacuous
        assert json.dumps(plain) == json.dumps(timed)

    def test_resumed_trace_matches_uninterrupted(self, tmp_path):
        uninterrupted = self._records(partial(checkpointed_run, tmp_path, fn=_traced))
        # Simulate a crash after two points: drop the third record and
        # resume in a second "process".
        log = tmp_path / "ck" / "points.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:2]))

        def resume(recorder):
            with resuming_store(tmp_path) as store:
                execute_map(
                    _traced, [1, 2, 3], labels=LABELS, store=store, recorder=recorder
                )

        stitched = self._records(resume)
        assert json.dumps(stitched) == json.dumps(uninterrupted)

    def test_stored_traces_round_trip_through_log(self, tmp_path):
        self._records(partial(checkpointed_run, tmp_path, fn=_traced))
        records = [
            json.loads(line)["record"]
            for line in (tmp_path / "ck" / "points.jsonl").read_text().splitlines()
        ]
        assert all(r["trace"] for r in records)
        assert records[0]["trace"][0]["name"] == "work"


class TestInlinePath:
    def test_inline_exception_propagates_unchanged(self):
        with pytest.raises(ZeroDivisionError):
            execute_map(_raise_for_zero, [1, 0], jobs=1)

    def test_capture_returns_records(self, tmp_path):
        """A checkpointed inline point runs on a private recorder; its
        records are stored and replayed into the caller's."""
        recorder = obs.TraceRecorder()
        with new_store(tmp_path) as store:
            assert execute_map(_traced, [1], labels=["a"], store=store, recorder=recorder)
        assert [r["name"] for r in store.completed[0]["trace"]] == ["work", "point"]
        assert [r["name"] for r in recorder.records] == ["work", "point"]

    def test_a_timeout_runs_even_one_serial_point_in_a_worker(self):
        start = time.monotonic()
        with pytest.raises(PointFailure, match="timeout"):
            execute_map(_hang_if_odd, [1], jobs=1, point_timeout=0.2)
        assert time.monotonic() - start < 30.0  # killed, not waited out

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
    def test_point_timeout_must_be_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="positive and finite"):
            execute_map(_square, [1], point_timeout=timeout)


class TestParallelPath:
    def test_store_sees_every_completion(self, tmp_path):
        with new_store(tmp_path) as store:
            execute_map(_square, [2, 3], jobs=2, labels=["a", "b"], store=store)
        assert {i: r["row"] for i, r in store.completed.items()} == {0: 4, 1: 9}

    def test_crashed_worker_point_is_retried(self, tmp_path):
        items = [(1, str(tmp_path)), (2, str(tmp_path))]
        results = []
        incidents = _incidents(
            lambda recorder: results.extend(
                execute_map(_crash_once, items, jobs=2, recorder=recorder)
            )
        )
        assert results == [10, 20]
        assert incidents.count("recovery.point.crash") >= 2

    def test_exhausted_attempts_raise_point_failure(self):
        with pytest.raises(PointFailure, match="crash") as excinfo:
            execute_map(_crash_always, [1, 2], jobs=2)
        assert f"after {ATTEMPTS} attempt(s)" in str(excinfo.value)
        assert "--checkpoint/--resume" in str(excinfo.value)

    def test_hung_point_killed_at_timeout(self):
        start = time.monotonic()

        def run(recorder):
            with pytest.raises(PointFailure, match="timeout"):
                execute_map(_hang_if_odd, [0, 1], jobs=2, point_timeout=0.2, recorder=recorder)

        incidents = _incidents(run)
        assert time.monotonic() - start < 30.0  # killed, not waited out
        assert incidents == ["recovery.point.timeout"] * ATTEMPTS

    def test_worker_exception_propagates_without_retry(self):
        def run(recorder):
            with pytest.raises(ZeroDivisionError, match="deterministic bug"):
                execute_map(_raise_for_zero, [1, 0], jobs=2, recorder=recorder)

        # A raise is a result, not an incident: no recovery events.
        assert _incidents(run) == []

    def test_unpicklable_exception_summarized(self):
        with pytest.raises(RuntimeError, match="Unpicklable: bad point"):
            execute_map(_raise_unpicklable, [1, 2], jobs=2)

    def test_incidents_emit_trace_events(self, tmp_path):
        recorder = obs.TraceRecorder()
        execute_map(
            _crash_once,
            [(1, str(tmp_path)), (2, str(tmp_path))],
            jobs=2,
            labels=["one", "two"],
            recorder=recorder,
        )
        crashes = [r for r in recorder.records if r["name"] == "recovery.point.crash"]
        # Each point's first attempt died; the event names point and attempt.
        assert sorted(r["fields"]["label"] for r in crashes) == ["one", "two"]
        assert all(r["attempt"] == 1 for r in crashes)


def _raise_zero_hang_odd(x, recorder):
    return _hang_if_odd(_raise_for_zero(x, recorder), recorder)


def _ends_normally(tmp_path, monkeypatch):
    assert execute_map(_square, [1, 2, 3], jobs=2) == [1, 4, 9]


def _ends_with_a_raise(tmp_path, monkeypatch):
    with pytest.raises(ZeroDivisionError):
        execute_map(_raise_zero_hang_odd, [1, 0], jobs=2)


def _ends_after_crashes(tmp_path, monkeypatch):
    with pytest.raises(PointFailure, match="crash"):
        execute_map(_crash_always, [1, 2], jobs=2)


def _ends_after_timeouts(tmp_path, monkeypatch):
    with pytest.raises(PointFailure, match="timeout"):
        execute_map(_hang_if_odd, [1, 3], jobs=2, point_timeout=0.2)


def _ends_when_append_raises(tmp_path, monkeypatch):
    def append(record):
        raise OSError("disk full")

    with new_store(tmp_path) as store, pytest.raises(OSError, match="disk full"):
        monkeypatch.setattr(store, "append", append)
        execute_map(_hang_if_odd, [2, 1], jobs=2, labels=["a", "b"], store=store)


@pytest.mark.parametrize(
    "sweep",
    [
        _ends_normally,
        _ends_with_a_raise,
        _ends_after_crashes,
        _ends_after_timeouts,
        _ends_when_append_raises,
    ],
    ids=lambda sweep: sweep.__name__.removeprefix("_ends_"),
)
def test_no_worker_outlives_execute_map(sweep, tmp_path, monkeypatch):
    start = time.monotonic()
    sweep(tmp_path, monkeypatch)
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 30.0  # hung workers killed, not waited out
