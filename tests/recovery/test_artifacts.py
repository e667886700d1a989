"""Atomic writes, content hashing, and validating loads."""

import json
import os

import pytest

from repro.recovery.artifacts import (
    ArtifactError,
    atomic_write_text,
    canonical_json,
    content_hash,
    load_json_artifact,
    write_json_artifact,
)


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        path = atomic_write_text(tmp_path / "out.txt", "hello\n")
        assert path.read_text() == "hello\n"

    def test_no_temp_file_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_failed_rename_leaves_no_tmp(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise IsADirectoryError(dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(IsADirectoryError):
            atomic_write_text(tmp_path / "out.html", "<html>")
        assert list(tmp_path.iterdir()) == []

    def test_temp_name_is_labelled(self, tmp_path):
        # The documented crash signature: an interrupted write leaves
        # only a clearly-labelled temp file, never a truncated target.
        target = tmp_path / "out.json"
        tmp = target.with_name(target.name + f".tmp.{os.getpid()}")
        assert ".tmp." in tmp.name


class TestContentHash:
    def test_stable_under_key_order(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_prefixed(self):
        assert content_hash({}).startswith("sha256:")

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestJsonArtifactRoundTrip:
    def test_round_trip_verifies(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_artifact(path, {"rows": [1, 2], "experiment": "fig8"})
        doc = load_json_artifact(path, description="table", require=("rows",))
        assert doc["rows"] == [1, 2]
        assert doc["content_hash"].startswith("sha256:")

    def test_hash_excludes_itself(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_artifact(path, {"a": 1})
        doc = json.loads(path.read_text())
        body = {k: v for k, v in doc.items() if k != "content_hash"}
        assert doc["content_hash"] == content_hash(body)

    def test_rewrite_replaces_stale_hash(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_artifact(path, {"a": 1})
        doc = load_json_artifact(path)
        doc["a"] = 2
        write_json_artifact(path, doc)  # stale content_hash is recomputed
        assert load_json_artifact(path)["a"] == 2


class TestLoadFailureModes:
    """Every failure is an ArtifactError with a one-line message."""

    def _assert_one_line(self, excinfo):
        assert "\n" not in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read bench baseline") as ei:
            load_json_artifact(tmp_path / "nope.json", description="bench baseline")
        self._assert_one_line(ei)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON") as ei:
            load_json_artifact(path)
        self._assert_one_line(ei)

    def test_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ArtifactError, match="expected a JSON object"):
            load_json_artifact(path)

    def test_hash_mismatch_after_tampering(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_artifact(path, {"rows": [1, 2]})
        doc = json.loads(path.read_text())
        doc["rows"] = [1, 2, 3]  # edit without recomputing the hash
        path.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="integrity check") as ei:
            load_json_artifact(path)
        self._assert_one_line(ei)

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_artifact(path, {"rows": []})
        with pytest.raises(ArtifactError, match="missing required"):
            load_json_artifact(path, require=("rows", "machine"))

    def test_document_without_hash_still_loads(self, tmp_path):
        # Hand-written or legacy artifacts carry no hash; structure is
        # still validated.
        path = tmp_path / "doc.json"
        path.write_text('{"rows": []}\n')
        assert load_json_artifact(path, require=("rows",)) == {"rows": []}

    def test_artifact_error_is_value_error(self):
        assert issubclass(ArtifactError, ValueError)
