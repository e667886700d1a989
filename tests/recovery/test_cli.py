"""CLI --checkpoint/--resume failure paths: one-line messages, exit 2.

Every refusal here happens before any simulation runs, so these tests
stay fast; the success path (checkpoint, SIGKILL, resume, byte-identical
output) is exercised end-to-end by the kill-and-resume determinism gate
(``python -m repro.analysis.determinism --kill-resume``).
"""

import json

import pytest

from repro.experiments.cli import main
from repro.recovery.artifacts import canonical_json, checksum_line, write_json_artifact
from repro.recovery.checkpoint import LOG_NAME, MANIFEST_NAME, CheckpointStore
from repro.recovery.manifest import RunManifest

ARGS = ["fig8", "--scale", "0.05", "--hours", "0.3"]


def make_checkpoint(tmp_path, seed=0, points=0):
    store = CheckpointStore(tmp_path / "ck")
    store.initialize(
        RunManifest(
            experiment="fig8",
            seed=seed,
            parameters={"scale": 0.05, "hours": 0.3},
        )
    )
    for index in range(points):
        store.append(
            {"index": index, "label": "p", "row": {}, "trace": None}
        )
    store.close()
    return store


def test_resume_without_checkpoint_exits_two(capsys):
    assert main(ARGS + ["--resume"]) == 2
    err = capsys.readouterr().err
    assert "--resume requires --checkpoint DIR" in err
    assert err.count("\n") == 1  # one-line message, no stack trace


def test_checkpoint_into_existing_run_exits_two(tmp_path, capsys):
    store = make_checkpoint(tmp_path)
    assert main(ARGS + ["--checkpoint", str(store.directory)]) == 2
    assert "already contains a checkpoint" in capsys.readouterr().err


def test_bad_trace_path_leaves_no_checkpoint(tmp_path, capsys):
    """The trace path is checked before the store is initialized, so the
    corrected command is not refused as a second run into ``ck``."""
    checkpoint = tmp_path / "ck"
    argv = ["fig8", "--scale", "0.05", "--hours", "0.1", "--checkpoint", str(checkpoint)]
    assert main(argv + ["--trace", str(tmp_path / "nodir" / "t.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("omega-sim: --trace ") and err.count("\n") == 1
    assert not checkpoint.exists()
    assert main(argv + ["--trace", str(tmp_path / "t.jsonl")]) == 0


def test_resume_with_mismatched_seed_exits_two(tmp_path, capsys):
    store = make_checkpoint(tmp_path, seed=1)
    rc = main(
        ARGS + ["--seed", "2", "--checkpoint", str(store.directory), "--resume"]
    )
    assert rc == 2
    assert "seed 1 != requested 2" in capsys.readouterr().err


def test_resume_with_mismatched_parameters_exits_two(tmp_path, capsys):
    store = make_checkpoint(tmp_path)
    rc = main(
        [
            "fig8",
            "--scale",
            "0.25",
            "--hours",
            "0.3",
            "--checkpoint",
            str(store.directory),
            "--resume",
        ]
    )
    assert rc == 2
    assert "parameter scale" in capsys.readouterr().err


def test_resume_from_corrupt_log_exits_two(tmp_path, capsys):
    store = make_checkpoint(tmp_path, points=2)
    lines = store.log_path.read_text().splitlines(keepends=True)
    entry = json.loads(lines[0])
    entry["record"]["row"] = {"tampered": True}  # checksum now wrong
    lines[0] = json.dumps(entry) + "\n"
    store.log_path.write_text("".join(lines))
    rc = main(ARGS + ["--checkpoint", str(store.directory), "--resume"])
    assert rc == 2
    assert "corrupt checkpoint record" in capsys.readouterr().err


def test_resume_missing_manifest_exits_two(tmp_path, capsys):
    rc = main(ARGS + ["--checkpoint", str(tmp_path / "nowhere"), "--resume"])
    assert rc == 2
    assert "cannot read checkpoint manifest" in capsys.readouterr().err


def test_checkpoint_at_a_regular_file_exits_two(tmp_path, capsys):
    path = tmp_path / "ck"
    path.write_text("not a directory\n")
    assert main(ARGS + ["--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"omega-sim: {path}: cannot create checkpoint directory: File exists\n"
    assert path.read_text() == "not a directory\n"


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_bad_point_timeout_exits_two(value, capsys):
    assert main(ARGS + ["--point-timeout", value]) == 2
    assert capsys.readouterr().err == (
        f"omega-sim: --point-timeout must be positive and finite, got {float(value)}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["fig8", "--scale", "0.03", "--hours", "0.05"],  # --jobs 1
        ["fig8", "--scale", "0.03", "--hours", "0.05", "--jobs", "2"],
        ["omega", "--smoke", "--jobs", "2"],  # one point
    ],
    ids=["serial", "parallel", "one-point"],
)
def test_point_timeout_is_enforced_when_points_would_run_inline(argv, capsys):
    """A point cannot be killed in this process, so a timeout puts even
    a serial run's points, or a lone point, in a worker; it holds for
    the whole sweep, however many points time out."""
    assert main(argv + ["--point-timeout", "0.0001"]) == 1
    err = capsys.readouterr().err
    assert "last incident: timeout" in err
    assert err.count("\n") == 1


_GOOD_MANIFEST = RunManifest(
    experiment="fig8", seed=0, parameters={"scale": 0.05, "hours": 0.3}
).to_doc()
_GOOD_RECORD = {"index": 0, "label": "p", "row": {}, "trace": None}


def test_resume_of_a_format_one_checkpoint_exits_two(tmp_path, capsys):
    """Format 1 numbered each record's sweep; such a directory is
    refused in one line before its log is read."""
    directory = tmp_path / "ck"
    directory.mkdir()
    write_json_artifact(
        directory / MANIFEST_NAME, {**_GOOD_MANIFEST, "checkpoint_format": 1}
    )
    old = {"sweep": 0, **_GOOD_RECORD}
    sha = checksum_line(canonical_json(old))
    (directory / LOG_NAME).write_text(json.dumps({"record": old, "sha256": sha}) + "\n")
    assert main(ARGS + ["--checkpoint", str(directory), "--resume"]) == 2
    err = capsys.readouterr().err
    assert "checkpoint format 1 != supported 2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "manifest, record",
    [
        ({"parameters": [1]}, None),
        ({"checkpoint_format": None}, None),
        ({"seed": "x"}, None),
        ({"seed": True}, None),
        ({"experiment": 8}, None),
        (None, {"row": 5}),
        (None, {"label": 3}),
        (None, {"trace": {}}),
        (None, {"index": "0"}),
    ],
    ids=[
        "manifest-parameters",
        "manifest-format",
        "manifest-seed-str",
        "manifest-seed-bool",
        "manifest-experiment",
        "record-row",
        "record-label",
        "record-trace",
        "record-index",
    ],
)
def test_wrong_typed_checkpoint_exits_two_naming_the_path(
    tmp_path, capsys, manifest, record
):
    """A checksum-valid manifest or point record with a wrong-typed key
    is refused in one line naming the file (and line), not a traceback."""
    directory = tmp_path / "ck"
    directory.mkdir()
    write_json_artifact(
        directory / MANIFEST_NAME, {**_GOOD_MANIFEST, **(manifest or {})}
    )
    bad = {**_GOOD_RECORD, **(record or {})}
    with open(directory / LOG_NAME, "w", encoding="utf-8") as log:
        for entry in (bad, {**_GOOD_RECORD, "index": 1}):
            sha = checksum_line(canonical_json(entry))
            log.write(json.dumps({"record": entry, "sha256": sha}) + "\n")
    rc = main(ARGS + ["--checkpoint", str(directory), "--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    if manifest:
        assert f"{directory / MANIFEST_NAME}: corrupt checkpoint manifest" in err
    else:
        assert f"{directory / LOG_NAME}:1: corrupt checkpoint record" in err
