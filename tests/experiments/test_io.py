"""Tests for experiment-result persistence."""

import csv
import json

import pytest

from repro.experiments.io import FORMAT_VERSION, save_rows
from repro.recovery.artifacts import load_json_artifact

ROWS = [
    {"cluster": "A", "rate_factor": 1.0, "busy_batch": 0.38},
    {"cluster": "B", "rate_factor": 2.0, "busy_batch": 0.33},
]


def saved_rows(path) -> list[dict]:
    """The rows of a saved JSON table, its ``content_hash`` verified."""
    return load_json_artifact(path, description="result table")["rows"]


def csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        path = save_rows(ROWS, tmp_path / "out.json", experiment="fig8")
        assert saved_rows(path) == ROWS

    def test_envelope_metadata(self, tmp_path):
        path = save_rows(
            ROWS, tmp_path / "out.json", experiment="fig8", parameters={"scale": 0.25}
        )
        envelope = json.loads(path.read_text())
        assert envelope["experiment"] == "fig8"
        assert envelope["parameters"]["scale"] == 0.25
        assert envelope["format_version"] == FORMAT_VERSION

    def test_cli_envelope_records_declared_arguments(self, tmp_path, capsys):
        """A saved table says what produced it: the same parameters the
        checkpoint manifest gets, plus the seed."""
        from repro.experiments.cli import main

        path = tmp_path / "federation.json"
        assert main([
            "federation", "--cells", "1", "--staleness", "0",
            "--intensities", "0", "--policy", "round-robin",
            "--scale", "0.05", "--hours", "0.2", "--seed", "4",
            "--output", str(path),
        ]) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["parameters"] == {
            "scale": 0.05,
            "hours": 0.2,
            "seed": 4,
            "cells": "1",
            "staleness": "0",
            "intensities": "0",
            "policy": "round-robin",
            "smoke": False,
            "degenerate_gate": False,
        }
        (row,) = saved_rows(path)
        assert row["cells"] == 1 and row["policy"] == "round-robin"


class TestCsvRoundTrip:
    def test_round_trip_values(self, tmp_path):
        path = save_rows(ROWS, tmp_path / "out.csv")
        loaded = csv_rows(path)
        assert loaded[0]["cluster"] == "A"
        assert float(loaded[0]["busy_batch"]) == pytest.approx(0.38)

    def test_union_of_columns(self, tmp_path):
        ragged = [{"a": 1}, {"a": 2, "b": 3}]
        path = save_rows(ragged, tmp_path / "out.csv")
        header = path.read_text().splitlines()[0]
        assert header == "a,b"

    def test_empty_rows(self, tmp_path):
        path = save_rows([], tmp_path / "empty.csv")
        assert csv_rows(path) == []


class TestFormatValidation:
    def test_unknown_save_format(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported output"):
            save_rows(ROWS, tmp_path / "out.xlsx")

    def test_cli_output_flag(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "rows.json"
        assert main(["table1", "--output", str(out)]) == 0
        rows = saved_rows(out)
        assert any(row["approach"] == "Shared-state (Omega)" for row in rows)


class TestAtomicIntegrity:
    """save_rows writes atomically with an embedded content hash."""

    def test_json_embeds_content_hash(self, tmp_path):
        from repro.recovery.artifacts import content_hash

        path = save_rows(ROWS, tmp_path / "out.json", experiment="fig8")
        envelope = json.loads(path.read_text())
        body = {k: v for k, v in envelope.items() if k != "content_hash"}
        assert envelope["content_hash"] == content_hash(body)

    def test_tampered_json_rejected(self, tmp_path):
        from repro.recovery.artifacts import ArtifactError

        path = save_rows(ROWS, tmp_path / "out.json")
        envelope = json.loads(path.read_text())
        envelope["rows"][0]["busy_batch"] = 0.99
        path.write_text(json.dumps(envelope))
        with pytest.raises(ArtifactError, match="integrity check"):
            saved_rows(path)

    def test_truncated_json_rejected_with_one_line(self, tmp_path):
        from repro.recovery.artifacts import ArtifactError

        path = save_rows(ROWS, tmp_path / "out.json")
        path.write_text(path.read_text()[:-40])
        with pytest.raises(ArtifactError) as excinfo:
            saved_rows(path)
        assert "\n" not in str(excinfo.value)

    def test_no_temp_files_left_behind(self, tmp_path):
        save_rows(ROWS, tmp_path / "out.json")
        save_rows(ROWS, tmp_path / "out.csv")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["out.csv", "out.json"]

    def test_overwrite_keeps_file_loadable(self, tmp_path):
        path = save_rows(ROWS, tmp_path / "out.json")
        save_rows(ROWS[:1], path)
        assert saved_rows(path) == ROWS[:1]
