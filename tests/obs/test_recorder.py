"""Recorder behaviour: spans, context inheritance, the null path."""

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

    def test_event_and_span_are_no_ops(self):
        rec = NullRecorder()
        rec.event("txn.begin", t=1.0, sched="s", job=1)
        with rec.span("sched.attempt", t=1.0) as span:
            span.note(outcome="ignored")
        rec.close()  # nothing to flush, must not raise

    def test_null_span_is_shared_instance(self):
        rec = NullRecorder()
        assert rec.span("a") is rec.span("b")

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
        rec.event("txn.begin", t=12.5, sched="omega-batch", job=7, attempt=2, unplaced=4)
        (record,) = rec.records
        assert record["kind"] == "event"
        assert record["name"] == "txn.begin"
        assert record["t"] == 12.5
        assert record["sched"] == "omega-batch"
        assert record["job"] == 7
        assert record["attempt"] == 2
        assert record["span"] is None
        assert record["fields"] == {"unplaced": 4}

    def test_event_without_fields_has_no_fields_key(self):
        rec = TraceRecorder()
        rec.event("run.start", t=0.0)
        assert "fields" not in rec.records[0]

    def test_records_emitted_counts_everything(self):
        rec = TraceRecorder()
        rec.event("a")
        with rec.span("b"):
            rec.event("c")
        assert rec.records_emitted == 3
        assert len(rec.records) == 3


class TestSpans:
    def test_span_emitted_on_exit_with_wall_time(self):
        rec = TraceRecorder()
        with rec.span("sched.attempt", t=3.0, sched="s1", job=9, attempt=1):
            assert rec.records == []  # nothing emitted until exit
        (record,) = rec.records
        assert record["kind"] == "span"
        assert record["name"] == "sched.attempt"
        assert record["t"] == 3.0
        assert record["sched"] == "s1"
        assert record["job"] == 9
        assert record["attempt"] == 1
        assert record["wall_ms"] >= 0.0

    def test_events_inherit_span_context(self):
        rec = TraceRecorder()
        with rec.span("sched.attempt", t=5.0, sched="s1", job=3, attempt=2):
            rec.event("txn.commit", conflicted=False)
        commit, span = rec.records
        assert commit["t"] == 5.0
        assert commit["sched"] == "s1"
        assert commit["job"] == 3
        assert commit["attempt"] == 2
        assert commit["span"] == span["id"]

    def test_explicit_event_values_override_inherited(self):
        rec = TraceRecorder()
        with rec.span("outer", t=1.0, sched="a", job=1):
            rec.event("e", t=2.0, job=99)
        event = rec.records[0]
        assert event["t"] == 2.0
        assert event["job"] == 99
        assert event["sched"] == "a"  # still inherited

    def test_nested_spans_link_parents_and_close_in_order(self):
        rec = TraceRecorder()
        with rec.span("outer", t=1.0, sched="a") as outer:
            with rec.span("inner", job=5) as inner:
                assert inner._parent == outer._id
        inner_rec, outer_rec = rec.records  # inner closes (emits) first
        assert inner_rec["name"] == "inner"
        assert outer_rec["name"] == "outer"
        assert inner_rec["parent"] == outer_rec["id"]
        assert outer_rec["parent"] is None
        # inner inherited the outer frame, outer never saw inner's job
        assert inner_rec["t"] == 1.0
        assert inner_rec["sched"] == "a"
        assert outer_rec["job"] is None

    def test_span_ids_are_unique_and_increasing(self):
        rec = TraceRecorder()
        for _ in range(3):
            with rec.span("s"):
                pass
        ids = [record["id"] for record in rec.records]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_note_lands_in_fields(self):
        rec = TraceRecorder()
        with rec.span("sched.attempt") as span:
            span.note(outcome="abandoned", unplaced=3)
        assert rec.records[0]["fields"] == {"outcome": "abandoned", "unplaced": 3}

    def test_span_emitted_even_when_body_raises(self):
        rec = TraceRecorder()
        try:
            with rec.span("boom", t=1.0):
                raise RuntimeError("body failed")
        except RuntimeError:
            pass
        assert rec.records[0]["name"] == "boom"
        assert rec._context == []
        assert rec._span_stack == []


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
