"""Checkpoint store: durable appends, resume, salvage, refusal modes."""

import json

import pytest

from repro.recovery.checkpoint import CheckpointStore, RecoveryError
from repro.recovery.manifest import CHECKPOINT_FORMAT_VERSION, RunManifest


def manifest(**overrides):
    defaults = dict(
        experiment="fig8", seed=0, parameters={"scale": 0.05, "hours": 0.3}
    )
    defaults.update(overrides)
    return RunManifest(**defaults)


def record(index=0, label="p", row=None, trace=None):
    return {
        "index": index,
        "label": label,
        "row": row if row is not None else {"x": 1.0},
        "trace": trace,
    }


def fresh_store(tmp_path, points=()):
    store = CheckpointStore(tmp_path / "ck")
    store.initialize(manifest())
    for point in points:
        store.append(point)
    store.close()
    return store


class TestInitialize:
    def test_writes_hashed_manifest(self, tmp_path):
        store = fresh_store(tmp_path)
        doc = json.loads(store.manifest_path.read_text())
        assert doc["kind"] == "omega-sim-checkpoint"
        assert doc["experiment"] == "fig8"
        assert doc["checkpoint_format"] == CHECKPOINT_FORMAT_VERSION
        assert doc["content_hash"].startswith("sha256:")

    def test_refuses_existing_checkpoint(self, tmp_path):
        fresh_store(tmp_path)
        again = CheckpointStore(tmp_path / "ck")
        with pytest.raises(RecoveryError, match="already contains a checkpoint"):
            again.initialize(manifest())


class TestAppendAndResume:
    def test_round_trip(self, tmp_path):
        points = [record(index=i, label=f"p{i}", row={"v": i}) for i in range(3)]
        fresh_store(tmp_path, points)
        resumed = CheckpointStore(tmp_path / "ck")
        assert resumed.resume(manifest()) == 3
        assert resumed.completed[1]["row"] == {"v": 1}
        assert resumed.salvaged_line is None
        resumed.close()

    def test_rows_survive_json_exactly(self, tmp_path):
        row = {"nan": float("nan"), "f": 0.1 + 0.2, "s": "x", "n": None}
        fresh_store(tmp_path, [record(row=row)])
        resumed = CheckpointStore(tmp_path / "ck")
        resumed.resume(manifest())
        got = resumed.completed[0]["row"]
        assert got["f"] == row["f"]  # float repr round-trips exactly
        assert got["nan"] != got["nan"]
        assert got["s"] == "x" and got["n"] is None
        resumed.close()

    def test_resume_before_first_point(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck")
        store.initialize(manifest())
        store.close()
        resumed = CheckpointStore(tmp_path / "ck")
        assert resumed.resume(manifest()) == 0
        resumed.close()

    def test_appends_continue_after_resume(self, tmp_path):
        fresh_store(tmp_path, [record(index=0)])
        resumed = CheckpointStore(tmp_path / "ck")
        resumed.resume(manifest())
        resumed.append(record(index=1, label="q"))
        resumed.close()
        final = CheckpointStore(tmp_path / "ck")
        assert final.resume(manifest()) == 2
        final.close()


class TestTailSalvage:
    def test_partial_final_line_truncated(self, tmp_path):
        store = fresh_store(
            tmp_path, [record(index=i, label=f"p{i}") for i in range(2)]
        )
        intact = store.log_path.read_bytes()
        with open(store.log_path, "ab") as handle:
            handle.write(b'{"record": {"index": 0, "lab')  # died mid-append
        resumed = CheckpointStore(tmp_path / "ck")
        assert resumed.resume(manifest()) == 2
        assert resumed.salvaged_line == 3
        # The salvage physically truncated the partial tail away.
        assert store.log_path.read_bytes() == intact
        resumed.close()

    def test_complete_but_checksum_less_tail_salvaged(self, tmp_path):
        store = fresh_store(tmp_path, [record(index=0)])
        with open(store.log_path, "ab") as handle:
            handle.write(b'{"record": {"index": 1}}\n')
        resumed = CheckpointStore(tmp_path / "ck")
        assert resumed.resume(manifest()) == 1
        assert resumed.salvaged_line == 2
        resumed.close()

    def test_corrupt_mid_log_is_fatal(self, tmp_path):
        store = fresh_store(
            tmp_path, [record(index=i, label=f"p{i}") for i in range(3)]
        )
        lines = store.log_path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"record": "garbage"}\n'
        store.log_path.write_bytes(b"".join(lines))
        resumed = CheckpointStore(tmp_path / "ck")
        with pytest.raises(RecoveryError, match=r"points\.jsonl:2.*corrupt"):
            resumed.resume(manifest())

    def test_bitflip_mid_log_fails_checksum(self, tmp_path):
        store = fresh_store(
            tmp_path,
            [record(index=i, label=f"p{i}", row={"v": float(i)}) for i in range(2)],
        )
        data = store.log_path.read_bytes()
        # Flip one digit inside the first record's row value.
        mutated = data.replace(b'"v":0.0', b'"v":9.0', 1)
        assert mutated != data
        store.log_path.write_bytes(mutated)
        resumed = CheckpointStore(tmp_path / "ck")
        with pytest.raises(RecoveryError, match="checksum mismatch"):
            resumed.resume(manifest())


class TestResumeRefusals:
    @pytest.mark.parametrize(
        "requested, detail",
        [
            (dict(seed=2), "seed 0 != requested 2"),
            (dict(experiment="fig14"), "experiment 'fig8' != requested 'fig14'"),
            (
                dict(parameters={"scale": 0.25, "hours": 0.3}),
                "parameter scale",
            ),
        ],
    )
    def test_mismatched_run_refused(self, tmp_path, requested, detail):
        fresh_store(tmp_path)
        resumed = CheckpointStore(tmp_path / "ck")
        with pytest.raises(RecoveryError, match="cannot resume") as excinfo:
            resumed.resume(manifest(**requested))
        assert detail in str(excinfo.value)

    def test_missing_manifest_refused(self, tmp_path):
        store = CheckpointStore(tmp_path / "empty")
        with pytest.raises(RecoveryError, match="cannot read"):
            store.resume(manifest())

    def test_tampered_manifest_refused(self, tmp_path):
        store = fresh_store(tmp_path)
        doc = json.loads(store.manifest_path.read_text())
        doc["seed"] = 7  # edit without recomputing content_hash
        store.manifest_path.write_text(json.dumps(doc))
        resumed = CheckpointStore(tmp_path / "ck")
        with pytest.raises(RecoveryError, match="integrity check"):
            resumed.resume(manifest())

    def test_future_format_refused(self, tmp_path):
        store = fresh_store(tmp_path)
        from repro.recovery.artifacts import write_json_artifact

        doc = json.loads(store.manifest_path.read_text())
        doc["checkpoint_format"] = CHECKPOINT_FORMAT_VERSION + 1
        write_json_artifact(store.manifest_path, doc)
        resumed = CheckpointStore(tmp_path / "ck")
        with pytest.raises(RecoveryError, match="checkpoint format"):
            resumed.resume(manifest())
