"""Saving and loading experiment result rows.

Experiment drivers return plain row dicts; this module persists them as
JSON (with a metadata envelope) or CSV so runs can be compared across
machines, scales and code versions. The ``omega-sim`` CLI exposes this
via ``--output``.

Writes are atomic (temp-file + fsync + rename, see
:mod:`repro.recovery.artifacts`): a crashed or killed run can never
leave a truncated result file behind — the output path either holds the
complete previous table or the complete new one. JSON envelopes embed a
``content_hash`` that :func:`load_rows` verifies, so corruption after
the write (disk faults, partial copies, manual edits) fails loudly
instead of silently skewing comparisons.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Any

from repro.recovery.artifacts import (
    ArtifactError,
    atomic_write_text,
    load_json_artifact,
    write_json_artifact,
)

#: Envelope format version, bumped on breaking changes.
FORMAT_VERSION = 1


def check_output_path(path: str | Path) -> None:
    """Raise a one-line ``ValueError`` if :func:`save_rows` could not
    write ``path``: unsupported suffix, or a directory that is missing
    or not writable. The CLI checks before it computes the rows."""
    path = Path(path)
    if path.suffix not in (".json", ".csv"):
        raise ValueError(
            f"unsupported output format {path.suffix!r}; use .json or .csv"
        )
    if not path.parent.is_dir():
        raise ValueError(f"directory {path.parent} does not exist")
    if not os.access(path.parent, os.W_OK | os.X_OK):
        raise ValueError(f"directory {path.parent} is not writable")


def save_rows(
    rows: list[dict],
    path: str | Path,
    experiment: str = "",
    parameters: dict[str, Any] | None = None,
) -> Path:
    """Atomically write rows to ``path``; the suffix picks the format.

    ``.json`` wraps the rows in an envelope carrying the experiment name,
    parameters and a ``content_hash``; ``.csv`` writes a flat table (the
    union of all row keys, in first-seen order).
    """
    path = Path(path)
    check_output_path(path)
    if path.suffix == ".json":
        envelope = {
            "format_version": FORMAT_VERSION,
            "experiment": experiment,
            "parameters": parameters or {},
            "rows": rows,
        }
        write_json_artifact(path, envelope)
    else:
        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        buffer = io.StringIO(newline="")
        writer = csv.DictWriter(buffer, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
        atomic_write_text(path, buffer.getvalue())
    return path


def load_rows(path: str | Path) -> list[dict]:
    """Read rows written by :func:`save_rows`.

    JSON restores the exact values (verifying the envelope's
    ``content_hash`` when present; a mismatch, or ``rows`` that are not
    a list of objects, raises
    :class:`~repro.recovery.artifacts.ArtifactError`); CSV values come
    back as strings (or floats where they parse cleanly), which is
    sufficient for comparisons and plotting.
    """
    path = Path(path)
    if path.suffix == ".json":
        envelope = load_json_artifact(
            path, description="result table", require=("rows",)
        )
        version = envelope.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported format_version {version!r} "
                f"(expected {FORMAT_VERSION})"
            )
        rows = envelope["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ArtifactError(
                f"{path}: corrupt result table: 'rows' is not a list of objects"
            )
        return rows
    if path.suffix == ".csv":
        with path.open("r", newline="", encoding="utf-8") as handle:
            rows = []
            for record in csv.DictReader(handle):
                parsed: dict[str, Any] = {}
                for key, value in record.items():
                    try:
                        parsed[key] = float(value)
                    except (TypeError, ValueError):
                        parsed[key] = value
                rows.append(parsed)
            return rows
    raise ValueError(f"unsupported input format {path.suffix!r}; use .json or .csv")
