"""JSONL round-trip and malformed-input handling."""

from __future__ import annotations

import pytest

from repro.experiments import cli
from repro.obs import TraceRecorder
from repro.obs.export import JsonlWriter, read_jsonl


def test_round_trip_preserves_records(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    records = [
        {"name": "run.start", "t": 0.0, "fields": {"trace_version": 2}},
        {"name": "sched.attempt", "t": 1.0, "job": 3,
         "fields": {"t0": 0.5, "outcome": "scheduled", "conflicts": [[4, 1, "capacity"]]}},
    ]
    writer = JsonlWriter(path)
    for record in records:
        writer.write(record)
    writer.close()
    assert read_jsonl(path) == records


def test_recorder_stream_round_trips(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    rec = TraceRecorder(path=path, keep_records=True)
    rec.event("sched.attempt", t=1.5, sched="s", job=1, attempt=1, t0=1.0)
    rec.event("run.end", t=2.0, wall_ms=0.5)
    rec.close()
    assert read_jsonl(path) == rec.records


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"name":"a"}\n\n  \n{"name":"b"}\n')
    assert read_jsonl(str(path)) == [{"name": "a"}, {"name": "b"}]


def test_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"name":"ok"}\nnot json\n')
    with pytest.raises(ValueError, match=r"trace\.jsonl:2"):
        read_jsonl(str(path))


def test_non_utf8_line_names_line_number(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b'{"name":"ok"}\n{"name":"\xff"}\n')
    with pytest.raises(ValueError, match=r"trace\.jsonl:2: not UTF-8 text$"):
        read_jsonl(str(path))


def test_non_object_line_rejected(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("[1,2,3]\n")
    with pytest.raises(ValueError, match="not an object"):
        read_jsonl(str(path))


#: The first line of a trace this version writes.
RUN_START = b'{"name":"run.start","t":0.0,"fields":{"trace_version":2}}'

#: Records whose envelope, attempt fields or histogram state a trace
#: loader cannot read.
BAD_RECORDS = {
    "string time": b'{"name":"x","t":"a"}',
    "list fields": b'{"name":"sched.attempt","sched":"s","fields":[1]}',
    "bad conflicts": b'{"name":"sched.attempt","sched":"s",'
    b'"fields":{"t0":0.0,"conflicts":[[[1],2,"x"]]}}',
    "string t0": b'{"name":"sched.attempt","t":1.0,"sched":"s","fields":{"t0":"a"}}',
    "stateless histogram": b'{"name":"run.metrics","t":0.0,"fields":'
    b'{"histograms":[{"name":"jobs.wait_seconds","labels":{}}]}}',
    "not UTF-8": b'{"name":"\xff"}',
}


def _argv(tmp_path, command, trace):
    """The argv by which ``command`` reads ``trace``: ``trace second``
    reads it after a good trace, as the second of two files."""
    if command == "trace second":
        good = tmp_path / "good.jsonl"
        good.write_bytes(RUN_START + b"\n")
        return ["trace", str(good), str(trace)]
    if command == "perfetto":
        return [command, str(trace), "--output", str(tmp_path / "out")]
    return [command, str(trace)]


@pytest.mark.parametrize("command", ["trace", "trace second", "perfetto"])
@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_bad_record_exits_two_naming_its_line(tmp_path, capsys, command, case):
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(RUN_START + b"\n" + BAD_RECORDS[case])
    argv = _argv(tmp_path, command, trace)
    if command == "perfetto" and case == "stateless histogram":
        assert cli.main(argv) == 0  # the Perfetto export reads no histograms
        return
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{trace}:2: " in err


#: A trace written before ``trace_version``: spans, ``kind`` and the
#: seven records per attempt.
PARENT_FORMAT = (
    b'{"kind":"event","name":"run.start","t":0.0,"sched":null,"job":null,'
    b'"attempt":null,"span":null,"fields":{"architecture":"omega","seed":0}}\n'
    b'{"kind":"event","name":"sched.busy","t":1.0,"sched":"s","job":1,'
    b'"attempt":1,"span":null,"fields":{"t0":0.5,"conflict_retry":false}}\n'
)


@pytest.mark.parametrize("command", ["trace", "trace second", "perfetto"])
@pytest.mark.parametrize(
    "first", [PARENT_FORMAT, b'{"name":"run.start","t":0.0,"fields":{"trace_version":1}}\n'],
    ids=["unversioned", "version 1"],
)
def test_older_trace_exits_two_naming_its_line(tmp_path, capsys, command, first):
    trace = tmp_path / "old.jsonl"
    trace.write_bytes(first)
    assert cli.main(_argv(tmp_path, command, trace)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{trace}:1: trace format version " in captured.err
    assert not (tmp_path / "out").exists()


#: Input no run wrote: each is refused in one line, and nothing is
#: printed or exported.
NOT_TRACES = {
    "empty file": b"",
    "nameless record": b'{"a": 1}\n',
    "checkpoint log": b'{"record":{"index":0,"label":"p","row":{},"trace":null},'
    b'"sha256":"sha256:00"}\n',
    "no run.start": b'{"name":"sched.attempt","t":1.0,"sched":"s","fields":{"t0":0.5}}\n',
}


@pytest.mark.parametrize("command", ["trace", "perfetto"])
@pytest.mark.parametrize("case", sorted(NOT_TRACES))
def test_input_that_is_not_a_trace_exits_two(tmp_path, capsys, command, case):
    trace = tmp_path / "in.jsonl"
    trace.write_bytes(NOT_TRACES[case])
    assert cli.main(_argv(tmp_path, command, trace)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    if NOT_TRACES[case].startswith(b'{"name"') or not NOT_TRACES[case]:
        assert f"{trace}: no run.start record" in captured.err
    else:
        assert f"{trace}:1: trace record has no string 'name'" in captured.err
    assert not (tmp_path / "out").exists()


# One consumer takes --output; the parameter keeps the cases' ids.
@pytest.mark.parametrize("command", ["perfetto"])
@pytest.mark.parametrize("output", ["a directory", "in a missing directory"])
def test_unwritable_output_exits_two_before_reading(tmp_path, capsys, command, output):
    target = tmp_path / "out"
    if output == "a directory":
        target.mkdir()
    else:
        target = tmp_path / "absent" / "out"
    # The trace does not exist either: the output is checked first.
    assert cli.main([command, str(tmp_path / "run.jsonl"), "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"omega-sim {command}: --output ")
    assert [path.name for path in tmp_path.iterdir()] == (["out"] if target.exists() else [])


@pytest.mark.parametrize(
    "flag, value", [("--bins", "0"), ("--bins", "-3"), ("--jobs", "0")], ids=["0", "-3", "jobs 0"]
)
def test_trace_bins_below_one_exits_two(tmp_path, capsys, flag, value):
    """``--bins`` or ``--jobs`` (retry chains to show) below one exits 2
    with one line naming the flag."""
    trace = tmp_path / "run.jsonl"
    trace.write_bytes(RUN_START + b"\n")
    assert cli.main(["trace", str(trace), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"omega-sim trace: {flag} must be >= 1, got {value}\n"


def test_write_after_close_raises(tmp_path):
    writer = JsonlWriter(str(tmp_path / "t.jsonl"))
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.write({"a": 1})


class TestAtomicMode:
    """The writer streams to .tmp and renames on close — a killed run
    leaves only the clearly-partial temp file, never a torn trace."""

    def test_final_path_absent_until_close(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        writer = JsonlWriter(str(target))
        writer.write({"name": "a"})
        assert not target.exists()
        assert (tmp_path / "trace.jsonl.tmp").exists()
        writer.close()
        assert target.exists()
        assert not (tmp_path / "trace.jsonl.tmp").exists()
        assert read_jsonl(str(target)) == [{"name": "a"}]

    def test_abandoned_writer_leaves_only_tmp(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        writer = JsonlWriter(str(target))
        writer.write({"name": "a"})
        # Simulate a crash: close() never runs, so nothing is renamed.
        assert not target.exists()
        assert (tmp_path / "trace.jsonl.tmp").exists()
        writer._file.close()  # the handle only; the writer stays abandoned
        assert not target.exists()

    def test_recorder_trace_is_atomic(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        rec = TraceRecorder(path=str(target))
        rec.event("run.end", t=0.0)
        assert not target.exists()  # still streaming to .tmp
        rec.close()
        records = read_jsonl(str(target))
        assert len(records) == 1
        assert records[0]["name"] == "run.end"

    def test_double_close_renames_once(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        writer = JsonlWriter(str(target))
        writer.close()
        writer.close()  # no-op, must not raise or re-rename
        assert target.exists()
