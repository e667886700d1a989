"""Recorder behaviour: the record envelope, replay, the null path, and
one recorder per run."""

from __future__ import annotations

from pathlib import Path

from repro import CLUSTER_B, LightweightConfig
from repro.analysis.determinism import canonical_record, run_gate
from repro.experiments import cli
from repro.experiments.common import LightweightSimulation
from repro.experiments.federation import build_federation, federation_points
from repro.obs import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.world import RunContext


class TestNullRecorder:
    def test_default_global_is_null_and_disabled(self):
        # ``NULL_RECORDER`` is the one module-level recorder: every run's
        # default, and read only through the run.
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert NULL_RECORDER.enabled is False
        assert RunContext().sim.recorder is NULL_RECORDER

    def test_event_and_replay_are_no_ops(self):
        rec = NullRecorder()
        rec.event("sched.attempt", t=1.0, sched="s", job=1)
        rec.replay([{"name": "sched.attempt"}])
        rec.close()  # nothing to flush, must not raise

    def test_enabled_is_class_attribute(self):
        # The hot-path guard relies on a plain attribute load.
        assert "enabled" in NullRecorder.__dict__
        assert "enabled" in TraceRecorder.__dict__


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


def _omega(recorder):
    config = LightweightConfig(
        preset=CLUSTER_B.scaled(0.05), architecture="omega", horizon=1800.0, seed=3
    )
    return LightweightSimulation(config, RunContext(recorder))


def _federation(recorder):
    ((config, _),) = federation_points(
        cells=(2,), staleness_values=(60.0,), intensities=(0.0,),
        scale=0.05, horizon=1800.0, seed=5,
    )  # fmt: skip
    return build_federation(config, RunContext(recorder))


def _step(*worlds):
    """Build ``worlds``, then run their simulators one event each in
    turn until every queue is empty."""
    for world in worlds:
        world.build()
    while any([world.sim.step() for world in worlds]):
        pass


def _clean(records):
    return [canonical_record(record) for record in records]


class TestTheRecorderBelongsToTheRun:
    def test_two_runs_interleaved_in_one_process_keep_their_records(self):
        alone = {}
        for make in (_omega, _federation):
            alone[make] = TraceRecorder()
            _step(make(alone[make]))
        omega, federation = TraceRecorder(), TraceRecorder()
        _step(_omega(omega), _federation(federation))
        assert _clean(omega.records) == _clean(alone[_omega].records)
        assert _clean(federation.records) == _clean(alone[_federation].records)
        names = {record["name"] for record in federation.records}
        assert {"sched.attempt", "fed.digest"} <= names  # non-vacuous
        assert not {r["sched"] for r in omega.records} & {
            r["sched"] for r in federation.records if r["sched"] is not None
        }

    def test_a_gate_or_a_traced_command_leaves_the_callers_recorder(
        self, tmp_path, capsys
    ):
        outer = TraceRecorder()
        _omega(outer).run()
        before = len(outer.records)
        assert before > 0
        report = run_gate(lambda recorder: _omega(recorder).run().jobs_scheduled)
        assert report.identical and report.records_a == before
        trace = tmp_path / "t.jsonl"
        flags = ["--scale", "0.05", "--hours", "0.1", "--trace", str(trace)]
        assert cli.main(["omega", *flags]) == 0
        assert trace.stat().st_size > 0
        assert len(outer.records) == before  # the inner runs wrote elsewhere
        _omega(outer).run()
        assert _clean(outer.records[before:]) == _clean(outer.records[:before])
