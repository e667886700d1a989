"""Recorder behaviour: the record envelope, replay, the null path."""

from __future__ import annotations

from pathlib import Path

from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    get_recorder,
    reset_recorder,
    set_recorder,
)
from repro.obs import recorder as recorder_module


class TestNullRecorder:
    def test_default_global_is_null_and_disabled(self):
        rec = get_recorder()
        assert isinstance(rec, NullRecorder)
        assert rec.enabled is False

    def test_event_and_replay_are_no_ops(self):
        rec = NullRecorder()
        rec.event("sched.attempt", t=1.0, sched="s", job=1)
        rec.replay([{"name": "sched.attempt"}])
        rec.close()  # nothing to flush, must not raise

    def test_enabled_is_class_attribute(self):
        # The hot-path guard relies on a plain attribute load.
        assert "enabled" in NullRecorder.__dict__
        assert "enabled" in TraceRecorder.__dict__


class TestGlobalSwitching:
    def test_set_and_reset(self):
        rec = TraceRecorder()
        assert set_recorder(rec) is rec
        assert get_recorder() is rec
        assert recorder_module.RECORDER is rec
        assert reset_recorder() is NULL_RECORDER
        assert get_recorder() is NULL_RECORDER

    def test_set_none_restores_null(self):
        set_recorder(TraceRecorder())
        assert set_recorder(None) is NULL_RECORDER


class TestEvents:
    def test_event_envelope(self):
        rec = TraceRecorder()
        rec.event("sched.attempt", t=12.5, sched="omega-batch", job=7, attempt=2, unplaced=4)
        assert rec.records == [
            {
                "name": "sched.attempt",
                "t": 12.5,
                "sched": "omega-batch",
                "job": 7,
                "attempt": 2,
                "fields": {"unplaced": 4},
            }
        ]

    def test_event_without_fields_has_no_fields_key(self):
        rec = TraceRecorder()
        rec.event("run.start", t=0.0)
        assert "fields" not in rec.records[0]

    def test_records_emitted_counts_everything(self):
        rec = TraceRecorder()
        rec.event("a")
        rec.replay([{"name": "b"}, {"name": "c"}])
        assert rec.records_emitted == 3
        assert [record["name"] for record in rec.records] == ["a", "b", "c"]


class TestFileBacked:
    def test_path_streams_and_drops_memory_by_default(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        rec = TraceRecorder(path=path)
        rec.event("a", t=1.0)
        rec.event("b", t=2.0)
        rec.close()
        assert rec.records == []  # keep_records defaults off with a path
        assert rec.records_emitted == 2
        lines = [l for l in Path(path).read_text().splitlines() if l]
        assert len(lines) == 2

    def test_keep_records_true_with_path_keeps_both(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        rec = TraceRecorder(path=path, keep_records=True)
        rec.event("a")
        rec.close()
        assert len(rec.records) == 1
        assert Path(path).read_text().strip()

    def test_close_is_idempotent(self, tmp_path):
        rec = TraceRecorder(path=str(tmp_path / "t.jsonl"))
        rec.close()
        rec.close()
