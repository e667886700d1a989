"""execute_map under a RecoveryContext: checkpointing, resume skip,
structure-change refusal, and trace stitching."""

import json
from functools import partial

import pytest

from repro import obs
from repro.analysis.determinism import canonical_record
from repro.recovery.checkpoint import CheckpointStore, RecoveryError
from repro.recovery.manifest import RunManifest
from repro.recovery.runner import RecoveryContext, execute_map
from repro.recovery.supervisor import SupervisorPolicy


def _double(x, _recorder):
    return {"value": x * 2}


def _explode(x, _recorder):
    raise AssertionError("a skipped point must not re-run")


def _traced(x, recorder):
    recorder.event("work", t=0.0, value=x)
    recorder.event("point", t=0.0, value=x)
    return {"value": x * 2}


MANIFEST = dict(experiment="test", seed=0, parameters={})
LABELS = ["a", "b", "c"]


def checkpointed_run(
    tmp_path, fn=_double, labels=LABELS, items=(1, 2, 3), recorder=obs.NULL_RECORDER
):
    store = CheckpointStore(tmp_path / "ck")
    store.initialize(RunManifest(**MANIFEST))
    with RecoveryContext(store=store) as context:
        rows = execute_map(
            fn, list(items), labels=labels, context=context, recorder=recorder
        )
    return rows, context


def resuming_context(tmp_path):
    store = CheckpointStore(tmp_path / "ck")
    resumed = store.resume(RunManifest(**MANIFEST))
    return RecoveryContext(store=store, resumed_points=resumed)


class TestWithoutContext:
    def test_plain_map(self):
        assert execute_map(_double, [1, 2]) == [{"value": 2}, {"value": 4}]

    def test_label_count_validated(self):
        with pytest.raises(ValueError, match="2 labels for 3 items"):
            execute_map(_double, [1, 2, 3], labels=["a", "b"])

    def test_no_context_active(self, tmp_path):
        """A context steers only the calls it is passed to: there is no
        process-wide one for a later call to inherit."""
        _, context = checkpointed_run(tmp_path)
        assert execute_map(_double, [4]) == [{"value": 8}]
        assert context.points_completed == 3
        assert len((tmp_path / "ck" / "points.jsonl").read_text().splitlines()) == 3


class TestContext:
    def test_closes_store_on_exit(self, tmp_path):
        _, context = checkpointed_run(tmp_path)
        assert context.store._handle is None  # closed by the with block


class TestCheckpointedExecution:
    def test_appends_every_point(self, tmp_path):
        rows, context = checkpointed_run(tmp_path)
        assert rows == [{"value": 2}, {"value": 4}, {"value": 6}]
        assert context.points_completed == 3
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
        with resuming_context(tmp_path) as context:
            resumed_rows = execute_map(
                _explode, [1, 2, 3], labels=LABELS, context=context
            )
        assert resumed_rows == rows
        assert context.points_skipped == 3
        assert context.points_completed == 0

    def test_partial_resume_reruns_only_missing(self, tmp_path):
        rows, _ = checkpointed_run(tmp_path)
        log = tmp_path / "ck" / "points.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:2]))  # lose the last point
        with resuming_context(tmp_path) as context:
            resumed_rows = execute_map(
                _double, [1, 2, 3], labels=LABELS, context=context
            )
        assert resumed_rows == rows
        assert context.points_skipped == 2
        assert context.points_completed == 1


class TestStructureChangeRefusal:
    def test_label_mismatch_refused(self, tmp_path):
        checkpointed_run(tmp_path)
        with resuming_context(tmp_path) as context:
            with pytest.raises(RecoveryError, match="sweep structure changed"):
                execute_map(
                    _double,
                    [1, 2, 3],
                    labels=["a", "b", "DIFFERENT"],
                    context=context,
                )

    def test_shrunken_sweep_refused(self, tmp_path):
        checkpointed_run(tmp_path)
        with resuming_context(tmp_path) as context:
            with pytest.raises(RecoveryError, match="beyond this run's sweep"):
                execute_map(_double, [1, 2], labels=["a", "b"], context=context)


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
        timed = self._records(
            partial(
                execute_map,
                _traced,
                [1, 2],
                policy=SupervisorPolicy(point_timeout=30.0),
            )
        )
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
            with resuming_context(tmp_path) as context:
                execute_map(
                    _traced, [1, 2, 3], labels=LABELS, context=context, recorder=recorder
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
